"""Binding tables and their operators (Appendix A.1 of the paper)."""

from .binding import EMPTY_BINDING, Binding, BindingTable
from .grouping import MISSING, group_indices, key_column
from .ops import (
    cartesian_product,
    table_antijoin,
    table_join,
    table_left_join,
    table_semijoin,
    table_union,
)

__all__ = [
    "EMPTY_BINDING",
    "Binding",
    "BindingTable",
    "MISSING",
    "group_indices",
    "key_column",
    "cartesian_product",
    "table_antijoin",
    "table_join",
    "table_left_join",
    "table_semijoin",
    "table_union",
]
