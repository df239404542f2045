"""The sort check of a MATCH clause, run once when a statement is prepared.

A statement's text alone fixes each variable's sort (Appendix A.1).
Sort inference and the paper's static restrictions live in one place,
:mod:`repro.analysis.scopes`; this module runs that walker with a
reporter that raises. :class:`~repro.engine.PreparedQuery` calls it on
every MATCH clause of a statement when it is made (and
``GCoreEngine.bindings`` on its fragment), so the engine rejects what
the static analyzer reports as GC201/GC202/GC203 — a variable of two
sorts, an ``ALL``-paths variable used beyond graph projection, OPTIONAL
blocks sharing a variable the enclosing pattern lacks (Section 3) —
before anything runs, and the evaluator checks nothing.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis.scopes import (
    Scope,
    check_optional_restriction,
    collect_chain_sorts,
)
from ..errors import SemanticError
from ..lang import ast
from .expressions import expr_variables

__all__ = ["analyze_match"]


class _Raise:
    """Reporter that turns the first violation into a SemanticError."""

    def emit(
        self, code: str, message: str, anchor: Optional[str] = None, hint: Optional[str] = None
    ) -> None:
        raise SemanticError(message)


_RAISE = _Raise()


def analyze_match(match: Optional[ast.MatchClause]) -> Dict[str, str]:
    """Infer the sorts (name -> 'node' | 'edge' | 'path' | 'value') of
    all variables declared by a MATCH clause.

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
