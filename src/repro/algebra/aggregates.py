"""Aggregation functions — COUNT, SUM, MIN, MAX, AVG, COLLECT.

Appendix A.1 lists the aggregation functions inherited from relational
query languages plus COLLECT. They are evaluated over a *group* of
bindings (an equivalence class produced by grouping, or a whole table).

One deliberate semantic choice the paper leaves implicit: ``COUNT(*)``
counts only *maximal* bindings — those whose domain covers every variable
of the enclosing match block. This makes the paper's Figure-5 view produce
``nr_messages = 0`` for pairs whose OPTIONAL block did not match, exactly
as Section 3 asserts, while remaining the ordinary row count for tables
without partial rows.

The module is split into a value-list core (:func:`collect_values`,
:func:`aggregate_values`) and the row-at-a-time wrapper
(:func:`evaluate_aggregate`). The vectorized GROUP BY path in
``eval/kernels.py`` evaluates the argument expression once per table and
feeds per-group column slices straight into the core, so both evaluation
modes share one implementation of the aggregate semantics — including the
DISTINCT normalization (``TRUE`` and ``1`` stay distinct, ``1`` and
``1.0`` collapse) and single-type extrema over any totally ordered
literal type (numbers, strings, booleans, ``Date``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional

from ..errors import EvaluationError
from ..model.values import as_scalar, distinct_keys, is_scalar
from .binding import Binding

__all__ = [
    "AGGREGATE_NAMES",
    "aggregate_values",
    "collect_values",
    "evaluate_aggregate",
    "is_aggregate_name",
]

AGGREGATE_NAMES = frozenset({"count", "sum", "min", "max", "avg", "collect"})


def is_aggregate_name(name: str) -> bool:
    """True for the aggregation function names of Appendix A.1."""
    return name.lower() in AGGREGATE_NAMES


def _numeric(values: List[Any], function: str) -> List[float]:
    numbers: List[float] = []
    for value in values:
        scalar = as_scalar(value)
        if isinstance(scalar, bool) or not isinstance(scalar, (int, float)):
            raise EvaluationError(
                f"{function.upper()} over non-numeric value: {scalar!r}"
            )
        numbers.append(scalar)
    return numbers


def collect_values(raw: Iterable[Any], distinct: bool = False) -> List[Any]:
    """Normalize raw argument values into the list an aggregate ranges over.

    ``None`` and empty value sets (absent properties) are skipped,
    mirroring SQL's treatment of NULLs; singleton sets unwrap to their
    scalar. With ``distinct``, values deduplicate through
    :func:`~repro.model.values.distinct_key` — the sameness of ``=``, as
    GROUP BY's — so ``COUNT(DISTINCT x)`` over ``{1, TRUE}`` is 2.
    """
    values: List[Any] = []
    for value in raw:
        if value is None:
            continue
        if isinstance(value, frozenset):
            if not value:
                continue
            value = as_scalar(value)
        values.append(value)
    if distinct:
        unique: Dict[Any, Any] = {}
        for key, value in zip(distinct_keys(values), values):
            unique.setdefault(key, value)
        values = list(unique.values())
    return values


def aggregate_values(name: str, values: List[Any]) -> Any:
    """Apply aggregate *name* to an already-collected value list.

    This is the shared core of the interpreted and vectorized paths;
    *values* must come from :func:`collect_values` (absent values dropped,
    DISTINCT already applied).
    """
    if name == "count":
        return len(values)
    if name == "collect":
        return tuple(values)
    if not values:
        # MIN/MAX/SUM/AVG over an empty group: absent value (empty set).
        return frozenset()
    if name == "sum":
        return sum(_numeric(values, name))
    if name == "avg":
        numbers = _numeric(values, name)
        return sum(numbers) / len(numbers)
    if name == "min":
        return _extremum(values, minimum=True)
    if name == "max":
        return _extremum(values, minimum=False)
    raise EvaluationError(f"unknown aggregate: {name}")


def evaluate_aggregate(
    name: str,
    rows: Iterable[Binding],
    evaluate_argument: Optional[Callable[[Binding], Any]],
    star: bool = False,
    distinct: bool = False,
    maximal_domain: Optional[FrozenSet[str]] = None,
) -> Any:
    """Evaluate aggregate *name* over *rows*.

    ``evaluate_argument`` maps a binding to the argument value (None for
    ``COUNT(*)``). Empty/absent argument values (empty value sets) are
    skipped, mirroring SQL's treatment of NULLs. ``maximal_domain`` feeds
    the COUNT(*) maximality rule described in the module docstring.
    """
    name = name.lower()
    if name not in AGGREGATE_NAMES:
        raise EvaluationError(f"unknown aggregate: {name}")

    if name == "count" and star:
        if maximal_domain is None:
            return sum(1 for _ in rows)
        return sum(1 for row in rows if maximal_domain <= row.domain)

    if evaluate_argument is None:
        raise EvaluationError(f"{name.upper()} requires an argument")

    values = collect_values(
        (evaluate_argument(row) for row in rows), distinct=distinct
    )
    return aggregate_values(name, values)


def _extremum(values: List[Any], minimum: bool) -> Any:
    """MIN/MAX over a group of scalars of one totally ordered type.

    Any mix of non-boolean numbers compares (``1 < 1.5 < 2``); otherwise
    every value must share one exact type whose instances order —
    strings, booleans, and :class:`~repro.model.values.Date` all qualify.
    Mixed-type groups (booleans among numbers included, per the
    ``normalize_scalar`` policy) and unordered values raise.
    """
    scalars = [as_scalar(v) for v in values]
    numbers = [
        s
        for s in scalars
        if isinstance(s, (int, float)) and not isinstance(s, bool)
    ]
    if len(numbers) == len(scalars):
        return min(numbers) if minimum else max(numbers)
    first_type = type(scalars[0])
    if any(type(s) is not first_type for s in scalars):
        raise EvaluationError("MIN/MAX over mixed-type values")
    if not is_scalar(scalars[0]):
        # Multi-valued sets and list values have no total order.
        raise EvaluationError("MIN/MAX over non-scalar values")
    try:
        return min(scalars) if minimum else max(scalars)
    except TypeError:
        raise EvaluationError(
            f"MIN/MAX over unordered values of type {first_type.__name__}"
        ) from None
