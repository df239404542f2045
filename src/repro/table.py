"""Plain tables for the tabular extensions of Section 5.

G-CORE proper is closed over graphs; Section 5 sketches a multi-sorted
extension with (a) ``SELECT`` projecting a table out of the binding set and
(b) two ways to *import* tables (``FROM <table>`` and ``MATCH .. ON
<table>``). :class:`Table` is the value those extensions exchange with the
host application: an ordered list of named columns over literal rows.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from .errors import EvaluationError
from .model.values import format_value_set

__all__ = ["Table"]


class Table:
    """An immutable table of literal values."""

    __slots__ = ("_columns", "_rows", "_name")

    def __init__(
        self,
        columns: Sequence[str],
        rows: Iterable[Sequence[Any]] = (),
        name: str = "",
    ) -> None:
        self._columns: Tuple[str, ...] = tuple(columns)
        normalized: List[Tuple[Any, ...]] = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(self._columns):
                raise EvaluationError(
                    f"row width {len(row)} does not match "
                    f"{len(self._columns)} columns"
                )
            normalized.append(row)
        self._rows: Tuple[Tuple[Any, ...], ...] = tuple(normalized)
        self._name = name

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> Tuple[Tuple[Any, ...], ...]:
        return self._rows

    def column(self, name: str) -> Tuple[Any, ...]:
        """All values of one column, in row order."""
        try:
            index = self._columns.index(name)
        except ValueError:
            raise EvaluationError(f"unknown column: {name!r}") from None
        return tuple(row[index] for row in self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._columns == other._columns and self._rows == other._rows

    def __repr__(self) -> str:
        return f"<Table {list(self._columns)} with {len(self._rows)} rows>"

    def with_name(self, name: str) -> "Table":
        return Table(self._columns, self._rows, name=name)

    # ------------------------------------------------------------------
    def pretty(self, limit: int = 50) -> str:
        """Fixed-width rendering, matching the paper's result tables."""

        def cell(value: Any) -> str:
            if value is None:
                return ""
            if isinstance(value, frozenset):
                return format_value_set(value)
            if isinstance(value, str):
                return value
            if isinstance(value, tuple):
                return "[" + ", ".join(cell(v) for v in value) + "]"
            return str(value)

        widths = {c: len(c) for c in self._columns}
        rendered = []
        for row in self._rows[:limit]:
            cells = [cell(v) for v in row]
            for column, text in zip(self._columns, cells):
                widths[column] = max(widths[column], len(text))
            rendered.append(cells)
        header = " | ".join(c.ljust(widths[c]) for c in self._columns)
        separator = "-+-".join("-" * widths[c] for c in self._columns)
        lines = [header, separator]
        for cells in rendered:
            lines.append(
                " | ".join(
                    text.ljust(widths[column])
                    for column, text in zip(self._columns, cells)
                )
            )
        if len(self._rows) > limit:
            lines.append(f"... ({len(self._rows) - limit} more rows)")
        return "\n".join(lines)
