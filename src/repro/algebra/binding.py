"""Bindings and binding tables — Appendix A.1 of the paper.

A *binding* is a partial function from variables to graph objects or
literal values. The MATCH clause produces a *set* of bindings, which the
paper also visualizes as a table with one column per variable; both views
are provided here. Bindings are immutable and hashable so tables behave
as sets (duplicate bindings collapse), exactly matching the formal model.

Partiality matters: a variable missing from a binding's domain (e.g. after
an OPTIONAL block that did not match) is *compatible* with any value of
that variable in another binding — compatibility only constrains the
intersection of the domains.

Storage layout
--------------

:class:`BindingTable` is **columnar**: one value vector per variable plus
the :data:`ABSENT` sentinel as a presence mask for partial bindings. Set
semantics is enforced on construction by deduplicating on the tuple of a
row's values across all stored variables (``ABSENT`` included, so two rows
with different domains never collapse). :class:`Binding` remains the cheap
row view the evaluator passes to expression code: tables materialize row
views lazily (and cache them), so per-row consumers — ``eval/context.py``,
``eval/expressions.py``, user-facing iteration — see exactly the set of
bindings of the formal semantics, while the columnar operators in
``eval/match.py`` and friends work on the vectors directly.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

__all__ = ["ABSENT", "Binding", "BindingTable", "EMPTY_BINDING"]


class _Absent:
    """Presence-mask sentinel: 'this row does not bind this variable'."""

    _instance = None
    __slots__ = ()

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<absent>"


ABSENT = _Absent()


class Binding(Mapping[str, Any]):
    """An immutable partial assignment of variables to values."""

    __slots__ = ("_data", "_hash")

    def __init__(self, data: Optional[Mapping[str, Any]] = None) -> None:
        self._data: Dict[str, Any] = dict(data or {})
        self._hash: Optional[int] = None

    @classmethod
    def _adopt(cls, data: Dict[str, Any]) -> "Binding":
        """A row view over *data* without copying (caller cedes ownership)."""
        view = cls.__new__(cls)
        view._data = data
        view._hash = None
        return view

    # Mapping protocol -------------------------------------------------
    def __getitem__(self, var: str) -> Any:
        return self._data[var]

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, var: object) -> bool:
        return var in self._data

    # Set-of-bindings support -------------------------------------------
    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._data.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Binding):
            return self._data == other._data
        if isinstance(other, Mapping):
            return self._data == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{var}={self._data[var]!r}" for var in sorted(self._data)
        )
        return "{" + inner + "}"

    # Operations ---------------------------------------------------------
    @property
    def domain(self) -> FrozenSet[str]:
        """``dom(mu)`` — the set of variables this binding assigns."""
        return frozenset(self._data)

    def get(self, var: str, default: Any = None) -> Any:
        return self._data.get(var, default)

    def compatible(self, other: "Binding") -> bool:
        """``mu1 ~ mu2``: agreement on the intersection of the domains."""
        if len(self._data) > len(other._data):
            self, other = other, self
        for var, value in self._data.items():
            if var in other._data and other._data[var] != value:
                return False
        return True

    def merge(self, other: "Binding") -> "Binding":
        """``mu1 u mu2`` for compatible bindings (caller checks compatibility)."""
        merged = dict(self._data)
        merged.update(other._data)
        return Binding._adopt(merged)

    def extend(self, var: str, value: Any) -> "Binding":
        """A new binding that additionally maps *var* to *value*."""
        extended = dict(self._data)
        extended[var] = value
        return Binding._adopt(extended)

    def project(self, variables: Iterable[str]) -> "Binding":
        """Restrict the binding to *variables* (missing ones are dropped)."""
        return Binding._adopt(
            {var: self._data[var] for var in variables if var in self._data}
        )

    def drop(self, variables: Iterable[str]) -> "Binding":
        """Remove *variables* from the binding's domain."""
        doomed = set(variables)
        return Binding._adopt(
            {var: val for var, val in self._data.items() if var not in doomed}
        )


EMPTY_BINDING = Binding()


class BindingTable:
    """A set of bindings, stored columnar, with ordered display columns.

    The *columns* record every variable that may appear in the table (the
    union of pattern variables), while individual rows may be partial.
    Internally the table keeps one vector per variable (``ABSENT`` marking
    rows outside a variable's domain); rows are deduplicated on
    construction, so the table is semantically the set the formal
    semantics manipulates. Row :class:`Binding` views are materialized
    lazily and cached.
    """

    __slots__ = ("_columns", "_vars", "_data", "_nrows", "_row_views")

    def __init__(
        self,
        columns: Sequence[str] = (),
        rows: Iterable[Binding] = (),
    ) -> None:
        self._columns: Tuple[str, ...] = tuple(dict.fromkeys(columns))
        row_list = rows if isinstance(rows, (list, tuple)) else list(rows)
        var_list: List[str] = list(self._columns)
        var_set = set(var_list)
        for row in row_list:
            for var in row:
                if var not in var_set:
                    var_set.add(var)
                    var_list.append(var)
        data: Dict[str, List[Any]] = {var: [] for var in var_list}
        nrows = 0
        seen = set()
        for row in row_list:
            get = row.get
            key = tuple(get(var, ABSENT) for var in var_list)
            if key in seen:
                continue
            seen.add(key)
            nrows += 1
            for var, value in zip(var_list, key):
                data[var].append(value)
        if not var_list and row_list:
            nrows = 1  # every row is the empty binding
        self._vars: Tuple[str, ...] = tuple(var_list)
        self._data = data
        self._nrows = nrows
        self._row_views: Optional[Tuple[Binding, ...]] = None

    # ------------------------------------------------------------------
    # Columnar construction (the fast path used by the operators)
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        columns: Sequence[str],
        variables: Sequence[str],
        data: Mapping[str, List[Any]],
        nrows: int,
        dedup: bool = True,
    ) -> "BindingTable":
        """Build a table directly from column vectors.

        *variables* names the stored vectors (``data`` keys) in display
        order; *columns* is the user-visible column list and may mention
        variables with no vector (declared-but-never-bound). Vectors must
        all have length *nrows* and use :data:`ABSENT` for missing values.
        With ``dedup=True`` duplicate rows are collapsed (first occurrence
        wins); pass ``dedup=False`` only when rows are known unique (e.g.
        a filter of an already-deduplicated table). The vectors are
        adopted, not copied — callers cede ownership.
        """
        table = cls.__new__(cls)
        table._columns = tuple(dict.fromkeys(columns))
        variables = tuple(variables)
        if not variables:
            nrows = min(nrows, 1)
            data = {}
        elif dedup and nrows > 1:
            vectors = [data[var] for var in variables]
            seen = set()
            keep: List[int] = []
            for index, key in enumerate(zip(*vectors)):
                if key not in seen:
                    seen.add(key)
                    keep.append(index)
            if len(keep) != nrows:
                data = {
                    var: [vector[i] for i in keep]
                    for var, vector in zip(variables, vectors)
                }
                nrows = len(keep)
        table._vars = variables
        table._data = dict(data)
        table._nrows = nrows
        table._row_views = None
        return table

    @classmethod
    def unit(cls) -> "BindingTable":
        """The table containing only the empty binding (join identity)."""
        return cls((), (EMPTY_BINDING,))

    @classmethod
    def empty(cls, columns: Sequence[str] = ()) -> "BindingTable":
        """The table with no rows (join annihilator)."""
        return cls(columns, ())

    # ------------------------------------------------------------------
    # Columnar accessors
    # ------------------------------------------------------------------
    @property
    def variables(self) -> Tuple[str, ...]:
        """All stored variables (display columns first, extras after)."""
        return self._vars

    def column_values(self, var: str) -> Optional[List[Any]]:
        """The vector of *var* (``ABSENT``-masked), or None if unstored.

        The returned list is the table's internal storage — callers must
        not mutate it.
        """
        return self._data.get(var)

    def row_at(self, index: int) -> Binding:
        """The row view at *index* (materializes lazily, like ``rows``)."""
        return self.rows[index]

    def select_rows(self, indices: Sequence[int]) -> "BindingTable":
        """The sub-table of *indices*, in that order (no re-dedup)."""
        data = {
            var: [vector[i] for i in indices]
            for var, vector in self._data.items()
        }
        table = BindingTable.from_columns(
            self._columns, self._vars, data, len(indices), dedup=False
        )
        if self._row_views is not None:
            table._row_views = tuple(self._row_views[i] for i in indices)
        return table

    # ------------------------------------------------------------------
    @property
    def columns(self) -> Tuple[str, ...]:
        return self._columns

    @property
    def rows(self) -> Tuple[Binding, ...]:
        if self._row_views is None:
            vars_ = self._vars
            vectors = [self._data[var] for var in vars_]
            views: List[Binding] = []
            for index in range(self._nrows):
                row: Dict[str, Any] = {}
                for var, vector in zip(vars_, vectors):
                    value = vector[index]
                    if value is not ABSENT:
                        row[var] = value
                views.append(Binding._adopt(row))
            self._row_views = tuple(views)
        return self._row_views

    def __len__(self) -> int:
        return self._nrows

    def __iter__(self) -> Iterator[Binding]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self._nrows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BindingTable):
            return NotImplemented
        return set(self.rows) == set(other.rows)

    def __repr__(self) -> str:
        return f"<BindingTable {list(self._columns)} with {self._nrows} rows>"

    # ------------------------------------------------------------------
    def with_columns(self, columns: Sequence[str]) -> "BindingTable":
        """The same rows under a widened column list."""
        widened = BindingTable.from_columns(
            tuple(self._columns) + tuple(columns),
            self._vars,
            self._data,
            self._nrows,
            dedup=False,
        )
        widened._row_views = self._row_views
        return widened

    def maximal_domain(self) -> FrozenSet[str]:
        """The union of all row domains (used by COUNT(*) semantics)."""
        return frozenset(
            var
            for var, vector in self._data.items()
            if any(value is not ABSENT for value in vector)
        )

    def project(self, variables: Sequence[str]) -> "BindingTable":
        """Project (and deduplicate) onto *variables*."""
        variables = tuple(dict.fromkeys(variables))
        stored = tuple(var for var in variables if var in self._data)
        data = {var: list(self._data[var]) for var in stored}
        return BindingTable.from_columns(
            variables, stored, data, self._nrows, dedup=True
        )

    def drop(self, variables: Iterable[str]) -> "BindingTable":
        """Drop *variables* from columns and rows (deduplicates)."""
        doomed = set(variables)
        remaining = tuple(c for c in self._columns if c not in doomed)
        kept = tuple(var for var in self._vars if var not in doomed)
        data = {var: list(self._data[var]) for var in kept}
        return BindingTable.from_columns(
            remaining, kept, data, self._nrows, dedup=True
        )

    def filter(self, predicate) -> "BindingTable":
        """Keep rows satisfying *predicate* (a ``Binding -> bool``)."""
        rows = self.rows
        keep = [i for i in range(self._nrows) if predicate(rows[i])]
        if len(keep) == self._nrows:
            return self
        return self.select_rows(keep)

    def pretty(self, limit: int = 25) -> str:
        """Render the table the way the paper prints binding tables."""
        columns = list(self._columns) or sorted(self.maximal_domain())
        widths = {c: len(c) for c in columns}
        rendered: List[List[str]] = []
        for row in self.rows[:limit]:
            cells = []
            for column in columns:
                if column in row:
                    text = _render_cell(row[column])
                else:
                    text = ""
                widths[column] = max(widths[column], len(text))
                cells.append(text)
            rendered.append(cells)
        header = " | ".join(c.ljust(widths[c]) for c in columns)
        separator = "-+-".join("-" * widths[c] for c in columns)
        lines = [header, separator]
        for cells in rendered:
            lines.append(
                " | ".join(
                    cell.ljust(widths[column])
                    for column, cell in zip(columns, cells)
                )
            )
        if self._nrows > limit:
            lines.append(f"... ({self._nrows - limit} more rows)")
        return "\n".join(lines)


def _render_cell(value: Any) -> str:
    from ..model.values import format_value_set, is_scalar, format_scalar

    if isinstance(value, frozenset):
        return format_value_set(value)
    if is_scalar(value):
        return format_scalar(value)
    return str(value)
