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
from typing import Any, Dict, FrozenSet, Iterable, List, Union

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
    "distinct_keys",
    "order_key",
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
    inner = ", ".join(format_scalar(v) for v in sorted(values, key=order_key))
    return "{" + inner + "}"


def normalize_scalar(value: Any) -> Any:
    """The scalar-normalization policy of ``=``, ``IN``, ``SUBSET OF`` and
    ordered comparisons: make 1 and 1.0 compare equal without conflating
    bools and ints (:func:`distinct_key` agrees).

    Python's ``True == 1`` (and ``hash(True) == hash(1)``) would otherwise
    leak through set comparisons, so scalars are tagged with a type class.
    Numbers stay exact: Python compares an ``int`` with a ``float`` by
    value and hashes equal numbers alike, so ``2**53 + 1`` is not
    ``2**53`` and ``10**400`` needs no float.
    """
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, (int, float)):
        return ("num", value)
    return (type(value).__name__, value)


def distinct_key(value: Any) -> Any:
    """The sameness key of *value*: GROUP BY, DISTINCT, CONSTRUCT's Γ and
    ``COUNT(DISTINCT)`` treat two values as one exactly when their keys
    are equal.

    Keys follow ``=``: ``1`` and ``1.0`` key alike, ``TRUE`` never keys
    like a number (Python's ``True == 1`` is kept out by a tag), a value
    set keys by its members whatever their insertion order, a singleton
    by its member, and ``None`` like the empty set. Numbers key exactly,
    as ``=`` compares them: ints beyond 2**53 that round to one float
    stay apart, and two graph objects, whose ids are ``str`` or ``int``,
    never share a key. Lists (``COLLECT`` results)
    key element-wise in order; any other object is its own key.
    """
    kind = type(value)
    if kind is str or kind is int or kind is float or kind is Date:
        return value
    if kind is bool:
        return ("bool", value)
    if kind is frozenset:
        if len(value) == 1:
            (member,) = value
            return distinct_key(member)
        return frozenset(map(distinct_key, value))
    if kind is tuple:
        return ("tuple", tuple(map(distinct_key, value)))
    if value is None:
        return EMPTY_SET
    return value


def distinct_keys(column: Iterable[Any]) -> List[Any]:
    """:func:`distinct_key` of every cell of *column*.

    A ``str`` or ``int`` cell is its own key, and a set of strings is
    keyed once per distinct set (a ``str`` never equals a non-``str``,
    so Python's set equality is sameness there): the id and name columns
    grouping mostly sees cost one type test per cell.
    """
    known: Dict[Any, Any] = {}

    def first_sight(value: Any) -> Any:
        key = distinct_key(value)
        if type(value) is frozenset and all(type(member) is str for member in value):
            known[value] = key
        return key

    get = known.get
    return [
        cell if type(cell) is str or type(cell) is int else get(cell) or first_sight(cell)
        for cell in column
    ]


# The ranks of order_key: the order across kinds of value.
_ABSENT, _BOOL, _NUMBER, _NAN, _STR, _DATE, _SET, _LIST, _OTHER = range(9)


def order_key(value: Any) -> tuple:
    """The total order ORDER BY, grouping and display sort values by.

    Absent values (``None``, the empty set) come first, then booleans
    (``FALSE < TRUE``), numbers by value (``NaN`` after them), strings,
    dates, multi-valued sets (by their sorted members), lists (element
    by element) and any other object (by type name, then ``repr``).
    A singleton set orders as its member, so values with equal
    :func:`distinct_key` have equal order keys.
    """
    kind = type(value)
    if kind is str:
        return (_STR, value)
    if kind is int or kind is float:
        return (_NUMBER, value) if value == value else (_NAN,)
    if kind is bool:
        return (_BOOL, value)
    if kind is Date:
        return (_DATE, value)
    if kind is frozenset:
        if len(value) == 1:
            (member,) = value
            return order_key(member)
        return (_SET, tuple(sorted(map(order_key, value)))) if value else (_ABSENT,)
    if kind is tuple or kind is list:
        return (_LIST, tuple(map(order_key, value)))
    if value is None:
        return (_ABSENT,)
    return (_OTHER, kind.__name__, repr(value))


def gcore_equals(left: Any, right: Any) -> bool:
    """The paper's ``=`` over literals and value sets.

    Both sides are normalized to value sets (scalar => singleton) and
    compared as sets; ``"MIT" = {"CWI","MIT"}`` is false.
    """
    left_set = as_value_set(left)
    right_set = as_value_set(right)
    return {normalize_scalar(v) for v in left_set} == {
        normalize_scalar(v) for v in right_set
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
    normalized = {normalize_scalar(v) for v in right_set}
    return normalize_scalar(left_scalar) in normalized


def gcore_subset(left: Any, right: Any) -> bool:
    """The paper's ``SUBSET OF``: set containment of value sets."""
    left_set = {normalize_scalar(v) for v in as_value_set(left)}
    right_set = {normalize_scalar(v) for v in as_value_set(right)}
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
