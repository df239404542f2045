"""Typed diagnostics: the stable vocabulary of the semantic analyzer.

Every finding of :mod:`repro.analysis` is a :class:`Diagnostic` carrying
a **stable machine-readable code** (``GC101``, ``GC201``, ...), a
severity, a human message, an optional source span (1-based line/column
from the lexer) and an optional fix hint. The codes are the wire
contract of ``POST /analyze`` and the exit-code contract of the batch
linter (``python -m repro.analysis``), mirroring how
:class:`~repro.errors.GCoreError` subclasses carry stable ``code``
values for the error envelope.

Code blocks, by the pass that emits them:

* ``GC0xx`` — the query does not lex/parse at all;
* ``GC1xx`` — name resolution against the catalog/schema/statistics
  (unknown graphs, tables, labels, properties, path views);
* ``GC2xx`` — variable sorts and expression types (Section 3 /
  Appendix A.1 static semantics);
* ``GC3xx`` — satisfiability (predicates provably false);
* ``GC4xx`` — cost smells (cartesian atoms).

The registry (:data:`CODES`) is the single source of truth consumed by
``docs/analysis.md`` and the registry cross-check test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "SEVERITIES",
    "CODES",
    "CodeInfo",
    "Diagnostic",
    "AnalysisResult",
    "severity_rank",
]

#: Severities, mildest first. The batch linter's exit code is the rank
#: of the worst finding (clean/info = 0, warning = 1, error = 2).
SEVERITIES: Tuple[str, ...] = ("info", "warning", "error")


def severity_rank(severity: str) -> int:
    """The numeric rank of *severity* (info=0, warning=1, error=2)."""
    return SEVERITIES.index(severity)


@dataclass(frozen=True)
class CodeInfo:
    """Registry metadata of one diagnostic code."""

    code: str
    name: str            # short kebab-case name, e.g. "unknown-label"
    severity: str        # default severity of the code
    summary: str         # one-line description for docs and tooling


#: The diagnostic-code registry. Codes are append-only and never reused;
#: ``docs/analysis.md`` documents one example query per code and a test
#: cross-checks the two (both directions).
CODES: Dict[str, CodeInfo] = {
    info.code: info
    for info in (
        CodeInfo("GC001", "parse-error", "error",
                 "the statement does not lex or parse"),
        CodeInfo("GC101", "unknown-graph", "error",
                 "the statement references a graph name not in the catalog"),
        CodeInfo("GC102", "unknown-table", "error",
                 "FROM references a table name not in the catalog"),
        CodeInfo("GC103", "unknown-label", "warning",
                 "a label test names a label absent from the target graph "
                 "(schema and statistics)"),
        CodeInfo("GC104", "unknown-property", "warning",
                 "a property access names a key no object of the target "
                 "graph carries"),
        CodeInfo("GC105", "unknown-path-view", "error",
                 "a regular path expression references an undefined PATH "
                 "view"),
        CodeInfo("GC201", "sort-clash", "error",
                 "a variable is used in positions of two different sorts "
                 "(node/edge/path/value)"),
        CodeInfo("GC202", "all-paths-projection", "error",
                 "an ALL-paths variable is used outside graph projection"),
        CodeInfo("GC203", "optional-shared-variable", "error",
                 "OPTIONAL blocks share a variable that does not occur in "
                 "the enclosing pattern"),
        CodeInfo("GC204", "unbound-variable", "error",
                 "an expression references a variable no pattern binds"),
        CodeInfo("GC205", "type-clash", "warning",
                 "a comparison or arithmetic mixes incompatible value types "
                 "(always false under Section 3 semantics)"),
        CodeInfo("GC206", "non-boolean-where", "error",
                 "a WHERE/WHEN condition cannot evaluate to a boolean"),
        CodeInfo("GC207", "aggregate-misuse", "error",
                 "an aggregate is used where no grouping context exists "
                 "(e.g. inside WHERE) or aggregates are nested"),
        CodeInfo("GC208", "builtin-arity", "error",
                 "a builtin function is called with the wrong number of "
                 "arguments (prepare raises SemanticError)"),
        CodeInfo("GC301", "always-false-predicate", "warning",
                 "a predicate is provably unsatisfiable (contradictory "
                 "conjuncts or constant-foldable to false)"),
        CodeInfo("GC302", "empty-label", "info",
                 "a label exists in the schema but matches zero objects of "
                 "the target graph"),
        CodeInfo("GC401", "cartesian-product", "warning",
                 "a MATCH block contains disconnected pattern components "
                 "(cartesian blow-up)"),
    )
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, ready for the wire.

    ``line``/``column`` are 1-based lexer positions (``None`` when the
    analyzer ran over a bare AST with no source text, or when the
    finding has no anchoring token). ``hint`` is an optional one-line
    fix suggestion.
    """

    code: str
    severity: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None
    hint: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unregistered diagnostic code: {self.code!r}")
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity: {self.severity!r}")

    @property
    def name(self) -> str:
        """The registry name of this diagnostic's code."""
        return CODES[self.code].name

    def to_json(self) -> Dict[str, Any]:
        """The documented wire form (``docs/analysis.md``)."""
        payload: Dict[str, Any] = {
            "code": self.code,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
        }
        if self.line is not None:
            payload["line"] = self.line
            payload["column"] = self.column
        if self.hint is not None:
            payload["hint"] = self.hint
        return payload

    def describe(self) -> str:
        """One human-readable line (REPL ``.lint``, EXPLAIN, CLI)."""
        where = f" [{self.line}:{self.column}]" if self.line is not None else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return f"{self.code} {self.severity}{where}: {self.message}{hint}"


@dataclass
class AnalysisResult:
    """The ordered findings of one analyzer run.

    Diagnostics are sorted worst-first (then by source position and
    code) so the leading entry is always the most severe. Iterable and
    indexable like a list.
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.diagnostics = sorted(
            self.diagnostics,
            key=lambda d: (
                -severity_rank(d.severity),
                d.line if d.line is not None else 1 << 30,
                d.column if d.column is not None else 1 << 30,
                d.code,
                d.message,
            ),
        )

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __getitem__(self, index: int) -> Diagnostic:
        return self.diagnostics[index]

    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    @property
    def infos(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "info"]

    @property
    def ok(self) -> bool:
        """True iff no error-level diagnostic was found."""
        return not self.errors

    @property
    def max_severity(self) -> Optional[str]:
        """The worst severity present, or None for a clean result."""
        if not self.diagnostics:
            return None
        return self.diagnostics[0].severity

    def exit_code(self) -> int:
        """The batch linter's exit code: rank of the worst finding.

        Clean and info-only results exit 0, warnings 1, errors 2.
        """
        worst = self.max_severity
        if worst is None or worst == "info":
            return 0
        return severity_rank(worst)

    def codes(self) -> List[str]:
        """The distinct codes present, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def to_json(self) -> Dict[str, Any]:
        """The documented ``POST /analyze`` response body."""
        return {
            "ok": self.ok,
            "error_count": len(self.errors),
            "warning_count": len(self.warnings),
            "info_count": len(self.infos),
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }

    def describe(self) -> str:
        """Multi-line human rendering (one ``describe()`` line each)."""
        if not self.diagnostics:
            return "no diagnostics"
        return "\n".join(d.describe() for d in self.diagnostics)
