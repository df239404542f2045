"""Grouping of binding tables — the ``grp`` operator of Appendix A.3.

CONSTRUCT groups the binding set by a *grouping set* Γ, and SELECT by its
GROUP BY keys: two bindings are equivalent when their key values are the
same under Section 3's ``=`` (the sameness key
:func:`~repro.model.values.distinct_key`). A variable absent from a
binding's domain is its own group key (the ``MISSING`` sentinel), so
partial bindings group deterministically.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from ..model.values import distinct_keys, order_key
from .binding import ABSENT, BindingTable

__all__ = ["MISSING", "group_indices", "key_column", "presence_mask"]

Key = Tuple[Any, ...]


class _Missing:
    """Sentinel for 'variable not bound'; sorts before every real value."""

    _instance = None

    def __new__(cls) -> "_Missing":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "<missing>"


MISSING = _Missing()


def key_column(table: BindingTable, var: str) -> List[Any]:
    """*var*'s cells in *table*, MISSING where a row leaves it unbound."""
    vector = table.column_values(var)
    if vector is None:
        return [MISSING] * len(table)
    return [MISSING if value is ABSENT else value for value in vector]


def group_indices(columns: Sequence[Sequence[Any]], nrows: int) -> List[Tuple[Key, List[int]]]:
    """The row indices ``0 .. nrows-1`` partitioned by their cells in the
    key *columns* (one class of every row when there are none).

    Each class comes with its tuple of sameness keys — what the skolem
    ``new`` function of CONSTRUCT is applied to — and holds its rows in
    table order. Classes are sorted by the
    :func:`~repro.model.values.order_key` of their first row's cells
    (MISSING like an absent value), so identifiers are handed out in the
    same order on every run.
    """
    keyed = [distinct_keys(column) for column in columns]
    # One column groups by its keys themselves, several by key tuples.
    keys: Sequence[Any] = keyed[0] if len(keyed) == 1 else list(zip(*keyed)) or [()] * nrows
    groups: Dict[Any, List[int]] = {}
    for index, key in enumerate(keys):
        group = groups.get(key)
        if group is None:
            groups[key] = [index]
        else:
            group.append(index)
    if len(keyed) == 1:
        kinds = set(map(type, groups))
    else:
        kinds = {type(part) for key in groups for part in key}
    if kinds <= {str} or kinds <= {int}:
        # Such a key is its cells' own order (a set of one str included).
        ordered = sorted(groups.items(), key=itemgetter(0))
    else:

        def rank(item: Tuple[Any, List[int]]) -> Tuple[Any, ...]:
            first = item[1][0]
            return tuple(
                order_key(None if column[first] is MISSING else column[first])
                for column in columns
            )

        ordered = sorted(groups.items(), key=rank)
    if len(keyed) == 1:
        return [((key,), indices) for key, indices in ordered]
    return ordered


def presence_mask(table: BindingTable, domain: Iterable[str]) -> List[bool]:
    """Per-row mask: does the row bind every variable of *domain*?

    The columnar form of the ``maximal_domain <= row.domain`` test the
    COUNT(*) maximality rule performs — computed once from the presence
    (non-``ABSENT``) masks of the domain's column vectors instead of per
    row view, so vectorized aggregation can count a group by summing a
    mask slice.
    """
    nrows = len(table)
    mask = [True] * nrows
    for var in domain:
        vector = table.column_values(var)
        if vector is None:
            return [False] * nrows
        mask = [m and vector[i] is not ABSENT for i, m in enumerate(mask)]
    return mask
