"""Literal values and set-valued property semantics of the PPG model.

Definition 2.1 of the paper makes the property assignment
``sigma : (N u E u P) x K -> FSET(V)`` — i.e. every property maps to a
*finite set* of literal values, and an absent property is the empty set.
Section 3 ("Dealing with Multi-Valued properties") then fixes the
comparison semantics we implement here:

* ``=`` compares value sets; a scalar stands for its singleton set, so
  ``"MIT" = {"CWI","MIT"}`` is false while ``"MIT" = {"MIT"}`` is true.
* ``IN`` tests membership of a (singleton) value in a set.
* ``SUBSET OF`` tests set containment.
* Comparisons against an absent property (the empty set) are false; a
  length test (``SIZE``) can detect absence.

Literals are Python ``bool``, ``int``, ``float``, ``str`` and
:class:`Date`. Value sets are plain ``frozenset`` instances.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass
from typing import Any, FrozenSet, Union

__all__ = [
    "Date",
    "Scalar",
    "ValueSet",
    "EMPTY_SET",
    "is_scalar",
    "as_value_set",
    "as_scalar",
    "format_scalar",
    "format_value_set",
    "gcore_equals",
    "gcore_compare",
    "gcore_in",
    "gcore_subset",
    "normalize_scalar",
    "distinct_key",
    "truthy",
]


@dataclass(frozen=True, order=True)
class Date:
    """A calendar date literal.

    The paper's toy instance stores ``since = 1/12/2014``; we parse both the
    paper's day/month/year form and ISO ``YYYY-MM-DD``.
    """

    year: int
    month: int
    day: int

    _DMY = re.compile(r"^(\d{1,2})/(\d{1,2})/(\d{4})$")
    _ISO = re.compile(r"^(\d{4})-(\d{2})-(\d{2})$")

    @classmethod
    def parse(cls, text: str) -> "Date":
        """Parse a date from ``d/m/yyyy`` or ``yyyy-mm-dd`` text.

        Raises ``ValueError`` for any other text and for a date the
        calendar does not have (``2021-02-30``).
        """
        match = cls._DMY.match(text)
        if match:
            day, month, year = match.groups()
        else:
            match = cls._ISO.match(text)
            if not match:
                raise ValueError(f"unrecognized date literal: {text!r}")
            year, month, day = match.groups()
        try:
            valid = datetime.date(int(year), int(month), int(day))
        except ValueError as exc:
            raise ValueError(f"invalid date {text!r}: {exc}") from None
        return cls(valid.year, valid.month, valid.day)

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"


Scalar = Union[bool, int, float, str, Date]
ValueSet = FrozenSet[Scalar]

EMPTY_SET: ValueSet = frozenset()


def is_scalar(value: Any) -> bool:
    """Return True if *value* is a legal PPG literal."""
    return isinstance(value, (bool, int, float, str, Date))


def as_value_set(value: Any) -> ValueSet:
    """Normalize *value* into a value set.

    Scalars become singletons, ``None`` becomes the empty set, and any
    iterable of scalars becomes a frozenset. Raises ``TypeError`` for
    non-literal content so property stores never hold opaque objects.
    """
    if value is None:
        return EMPTY_SET
    if is_scalar(value):
        return frozenset({value})
    if isinstance(value, frozenset):
        for item in value:
            if not is_scalar(item):
                raise TypeError(f"non-literal value in property set: {item!r}")
        return value
    if isinstance(value, (set, list, tuple)):
        return as_value_set(frozenset(value))
    raise TypeError(f"cannot use {value!r} as a property value")


def as_scalar(value: Any) -> Any:
    """Unwrap singleton value sets to their scalar; pass through otherwise."""
    if isinstance(value, frozenset) and len(value) == 1:
        return next(iter(value))
    return value


def _sort_key(value: Scalar) -> tuple:
    """A total order over heterogeneous scalars, used only for display."""
    return (type(value).__name__, str(value))


def format_scalar(value: Scalar) -> str:
    """Render a scalar the way the paper prints it (strings quoted)."""
    if isinstance(value, str):
        return f'"{value}"'
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    return str(value)


def format_value_set(values: ValueSet) -> str:
    """Render a value set; singletons print without braces, as in Section 3."""
    if not values:
        return "{}"
    if len(values) == 1:
        return format_scalar(next(iter(values)))
    inner = ", ".join(format_scalar(v) for v in sorted(values, key=_sort_key))
    return "{" + inner + "}"


def _normalize_number(value: Any) -> Any:
    """Make 1 and 1.0 compare equal without conflating bools and ints.

    Python's ``True == 1`` (and ``hash(True) == hash(1)``) would otherwise
    leak through set comparisons, so scalars are tagged with a type class.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", float(value))
    return (type(value).__name__, value)


#: Public name of the scalar-normalization policy shared by ``=``, ``IN``,
#: ``SUBSET OF``, ordered comparisons and DISTINCT deduplication.
normalize_scalar = _normalize_number


def distinct_key(value: Any) -> Any:
    """The deduplication key DISTINCT aggregates use for *value*.

    Scalars key through :func:`normalize_scalar`, so ``TRUE`` and ``1``
    (whose Python hashes collide) stay distinct while ``1`` and ``1.0``
    collapse. Value sets and lists key element-wise; anything else falls
    back to its ``repr``.
    """
    if is_scalar(value):
        return _normalize_number(value)
    if isinstance(value, frozenset):
        return frozenset(_normalize_number(v) for v in value)
    if isinstance(value, tuple):
        return ("tuple", tuple(distinct_key(v) for v in value))
    return repr(value)


def gcore_equals(left: Any, right: Any) -> bool:
    """The paper's ``=`` over literals and value sets.

    Both sides are normalized to value sets (scalar => singleton) and
    compared as sets; ``"MIT" = {"CWI","MIT"}`` is false.
    """
    left_set = as_value_set(left)
    right_set = as_value_set(right)
    return {_normalize_number(v) for v in left_set} == {
        _normalize_number(v) for v in right_set
    }


def gcore_compare(op: str, left: Any, right: Any) -> bool:
    """Ordered comparison (``<``, ``<=``, ``>``, ``>=``) on scalars.

    Each side must be a scalar or a singleton set; comparisons involving an
    empty or multi-valued set are false (absence of a property is not an
    error, per Section 3). Mixed-type comparisons are false rather than
    raising, matching the tolerant behaviour of the paper's examples.
    Booleans are *not* numbers here, mirroring :func:`normalize_scalar`:
    ``TRUE < 2`` is false, never a 1-vs-2 comparison.
    """
    left_scalar = as_scalar(as_value_set(left)) if left is not None else None
    right_scalar = as_scalar(as_value_set(right)) if right is not None else None
    if isinstance(left_scalar, frozenset) or isinstance(right_scalar, frozenset):
        return False
    if left_scalar is None or right_scalar is None:
        return False
    comparable_numbers = (
        isinstance(left_scalar, (int, float))
        and isinstance(right_scalar, (int, float))
        and not isinstance(left_scalar, bool)
        and not isinstance(right_scalar, bool)
    )
    same_type = type(left_scalar) is type(right_scalar)
    if not (comparable_numbers or same_type):
        return False
    if op == "<":
        return left_scalar < right_scalar
    if op == "<=":
        return left_scalar <= right_scalar
    if op == ">":
        return left_scalar > right_scalar
    if op == ">=":
        return left_scalar >= right_scalar
    raise ValueError(f"unknown comparison operator: {op}")


def gcore_in(left: Any, right: Any) -> bool:
    """The paper's ``IN``: is the (singleton) left value in the right set?"""
    left_scalar = as_scalar(as_value_set(left))
    if isinstance(left_scalar, frozenset):
        return False
    right_set = as_value_set(right)
    normalized = {_normalize_number(v) for v in right_set}
    return _normalize_number(left_scalar) in normalized


def gcore_subset(left: Any, right: Any) -> bool:
    """The paper's ``SUBSET OF``: set containment of value sets."""
    left_set = {_normalize_number(v) for v in as_value_set(left)}
    right_set = {_normalize_number(v) for v in as_value_set(right)}
    return left_set <= right_set


def truthy(value: Any) -> bool:
    """Coerce an expression result to the paper's truth values.

    Booleans pass through; a singleton set of a boolean unwraps; anything
    else (including absent values) is false. This keeps WHERE filters total
    without a three-valued logic, matching the examples in Section 3.
    """
    value = as_scalar(value) if not isinstance(value, bool) else value
    if isinstance(value, frozenset):
        return False
    return value is True
