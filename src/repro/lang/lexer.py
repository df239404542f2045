"""A hand-written lexer for G-CORE.

The LDBC reference grammar is an ANTLR artifact; offline we tokenize by
hand. The lexer is deliberately *atomic*: ASCII-art arrows such as
``-[`` ``]->`` ``-/`` ``/->`` are **not** fused into multi-character
tokens, because the same characters mean subtraction, division and
comparisons inside expressions. The parser reassembles arrows from atoms;
where a pattern may stand in an expression (a parenthesized term in
WHERE) it looks ahead to tell the two apart. Only ``:=``, ``<>``,
``!=``, ``<=`` and ``>=`` are fused — no legal G-CORE text puts those
adjacent characters together with another meaning.

Keywords are case-insensitive (the paper writes them upper-case);
identifiers are case-sensitive. ``#`` starts a line comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import LexerError

__all__ = ["Token", "tokenize", "KEYWORDS"]

KEYWORDS = frozenset(
    {
        "CONSTRUCT", "MATCH", "WHERE", "ON", "OPTIONAL",
        "UNION", "INTERSECT", "MINUS",
        "GRAPH", "VIEW", "AS", "PATH", "COST", "SHORTEST", "ALL",
        "EXISTS", "NOT", "AND", "OR", "XOR", "IN", "SUBSET", "OF",
        "SET", "REMOVE", "WHEN", "GROUP",
        "CASE", "THEN", "ELSE", "END",
        "TRUE", "FALSE",
        "SELECT", "FROM", "DISTINCT", "ORDER", "BY", "ASC", "DESC",
        "LIMIT", "OFFSET",
    }
)

_PUNCT_TWO = {":=": "ASSIGN", "<>": "NEQ", "!=": "NEQ", "<=": "LE", ">=": "GE"}
_PUNCT_ONE = {
    "(": "LPAREN", ")": "RPAREN",
    "[": "LBRACKET", "]": "RBRACKET",
    "{": "LBRACE", "}": "RBRACE",
    "<": "LT", ">": "GT",
    "=": "EQ", ",": "COMMA", ".": "DOT",
    ":": "COLON", ";": "SEMI", "@": "AT", "~": "TILDE",
    "|": "PIPE", "*": "STAR", "+": "PLUS", "-": "DASH",
    "/": "SLASH", "!": "BANG", "?": "QUESTION", "%": "PERCENT",
    "^": "CARET",
}


@dataclass(frozen=True)
class Token:
    """A lexical token with its source position (1-based line/column)."""

    kind: str        # 'KEYWORD' | 'IDENT' | 'NUMBER' | 'STRING' | punct kind | 'EOF'
    text: str        # canonical text (keywords upper-cased)
    line: int
    column: int
    value: object = None  # parsed value for NUMBER/STRING

    def is_keyword(self, *names: str) -> bool:
        """True iff this token is one of the given keywords."""
        return self.kind == "KEYWORD" and self.text in names

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.column})"


def tokenize(text: str) -> List[Token]:
    """Tokenize *text* into a list ending with an EOF token."""
    tokens: List[Token] = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> LexerError:
        return LexerError(message, line, column)

    while index < length:
        char = text[index]

        # Whitespace ----------------------------------------------------
        if char == "\n":
            index += 1
            line += 1
            column = 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue

        # Comments ------------------------------------------------------
        if char == "#":
            while index < length and text[index] != "\n":
                index += 1
            continue

        start_line, start_column = line, column

        # Strings ---------------------------------------------------------
        if char in "'\"":
            quote = char
            index += 1
            column += 1
            chars: List[str] = []
            closed = False
            while index < length:
                current = text[index]
                if current == "\\" and index + 1 < length:
                    escape = text[index + 1]
                    mapping = {"n": "\n", "t": "\t", "\\": "\\", "'": "'", '"': '"'}
                    chars.append(mapping.get(escape, escape))
                    index += 2
                    column += 2
                    continue
                if current == quote:
                    # '' inside a '-quoted string is an escaped quote
                    if index + 1 < length and text[index + 1] == quote:
                        chars.append(quote)
                        index += 2
                        column += 2
                        continue
                    index += 1
                    column += 1
                    closed = True
                    break
                if current == "\n":
                    raise error("unterminated string literal")
                chars.append(current)
                index += 1
                column += 1
            if not closed:
                raise error("unterminated string literal")
            literal = "".join(chars)
            tokens.append(
                Token("STRING", literal, start_line, start_column, literal)
            )
            continue

        # Numbers -----------------------------------------------------------
        if char.isdigit():
            end = index
            while end < length and text[end].isdigit():
                end += 1
            is_float = False
            if (
                end < length
                and text[end] == "."
                and end + 1 < length
                and text[end + 1].isdigit()
            ):
                is_float = True
                end += 1
                while end < length and text[end].isdigit():
                    end += 1
            if end < length and text[end] in "eE":
                peek = end + 1
                if peek < length and text[peek] in "+-":
                    peek += 1
                if peek < length and text[peek].isdigit():
                    is_float = True
                    end = peek
                    while end < length and text[end].isdigit():
                        end += 1
            raw = text[index:end]
            value = float(raw) if is_float else int(raw)
            tokens.append(Token("NUMBER", raw, start_line, start_column, value))
            column += end - index
            index = end
            continue

        # Identifiers and keywords ------------------------------------------
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            raw = text[index:end]
            upper = raw.upper()
            if upper in KEYWORDS:
                # Keyword tokens keep the raw spelling in .value so that
                # keyword-named labels (e.g. :End) survive verbatim.
                tokens.append(Token("KEYWORD", upper, start_line, start_column, raw))
            else:
                tokens.append(Token("IDENT", raw, start_line, start_column, raw))
            column += end - index
            index = end
            continue

        # Backtick-quoted identifiers (labels with spaces etc.) -------------
        if char == "`":
            end = index + 1
            while end < length and text[end] != "`":
                if text[end] == "\n":
                    raise error("unterminated quoted identifier")
                end += 1
            if end >= length:
                raise error("unterminated quoted identifier")
            raw = text[index + 1 : end]
            tokens.append(Token("IDENT", raw, start_line, start_column, raw))
            column += end - index + 1
            index = end + 1
            continue

        # Query parameters ($name) -------------------------------------------
        if char == "$":
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            if end == index + 1:
                raise error("expected a parameter name after '$'")
            raw = text[index + 1 : end]
            tokens.append(Token("PARAM", raw, start_line, start_column, raw))
            column += end - index
            index = end
            continue

        # Two-character punctuation ------------------------------------------
        pair = text[index : index + 2]
        if pair in _PUNCT_TWO:
            tokens.append(Token(_PUNCT_TWO[pair], pair, start_line, start_column))
            index += 2
            column += 2
            continue

        # One-character punctuation ------------------------------------------
        if char in _PUNCT_ONE:
            tokens.append(Token(_PUNCT_ONE[char], char, start_line, start_column))
            index += 1
            column += 1
            continue

        raise error(f"unexpected character {char!r}")

    tokens.append(Token("EOF", "", line, column))
    return tokens
