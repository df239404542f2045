"""Runtime well-formedness check of a MATCH clause.

The formal model (Appendix A.1) partitions variables into node, edge,
path and value sorts. Sort inference and the paper's static restrictions
live in one place, :mod:`repro.analysis.scopes`; this module runs that
walker with a reporter that raises, so evaluation rejects exactly what
the static analyzer reports as GC201/GC202/GC203:

* a variable may not occupy positions of two sorts ("it would be illegal
  to use n (a node) in the place of y (an edge)" — Section 3);
* an ``ALL``-paths variable may only be used for graph projection
  (Section 3);
* variables shared between OPTIONAL blocks must occur in the enclosing
  pattern, so that evaluation order does not matter (Section 3, citing
  the SPARQL OPTIONAL analysis of Pérez et al.).
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.scopes import (
    Scope,
    chain_variables,
    check_optional_restriction,
    collect_chain_sorts,
)
from ..errors import SemanticError
from ..lang import ast
from .expressions import expr_variables

__all__ = [
    "VariableSorts",
    "analyze_match",
    "chain_variables",
]

VariableSorts = Dict[str, str]  # name -> 'node' | 'edge' | 'path' | 'value'


class _Raise:
    """Reporter that turns the first violation into a SemanticError."""

    def emit(self, code, message, anchor=None, hint=None) -> None:
        raise SemanticError(message)


_RAISE = _Raise()


def analyze_match(match: Optional[ast.MatchClause]) -> VariableSorts:
    """Infer the sorts of all variables declared by a MATCH clause.

    Raises :class:`~repro.errors.SemanticError` on sort clashes and on
    violations of the ALL-paths and OPTIONAL restrictions.
    """
    scope = Scope()
    if match is None:
        return scope.sorts
    blocks = (match.block, *match.optionals)
    for block in blocks:
        for location in block.patterns:
            collect_chain_sorts(_RAISE, scope, location.chain)
    # ALL-paths variables must not be referenced in WHERE conditions.
    for block in blocks:
        if block.where is not None:
            for name in sorted(
                expr_variables(block.where) & scope.all_path_vars
            ):
                raise SemanticError(
                    f"ALL-paths variable {name!r} may only be used for "
                    f"graph projection"
                )
    check_optional_restriction(_RAISE, match)
    return scope.sorts
