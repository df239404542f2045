"""Pass 1 — variable scopes and sorts over full queries.

The one sort-inference walker of the code base. It covers every
variable-binding position of a statement — MATCH blocks (including
OPTIONAL), CONSTRUCT bodies, EXISTS patterns, PATH-clause chains and
FROM table imports — and hands violations of the paper's static
restrictions to a :class:`Reporter`: the analyzer collects them as
:class:`~repro.analysis.diagnostics.Diagnostic` values and carries on,
the prepare-time check (:func:`repro.eval.analysis.analyze_match`, run
on each MATCH clause when a statement is prepared) raises
:class:`~repro.errors.SemanticError` on the first one:

* ``GC201 sort-clash`` — a variable occupies positions of two sorts
  ("it would be illegal to use n (a node) in the place of y (an edge)",
  Section 3);
* ``GC202 all-paths-projection`` — an ``ALL``-paths variable escapes
  graph projection (Section 3);
* ``GC203 optional-shared-variable`` — OPTIONAL blocks share a variable
  absent from the enclosing pattern (Section 3, citing Pérez et al.).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Protocol, Set

from ..lang import ast

__all__ = [
    "Reporter",
    "Scope",
    "collect_chain_sorts",
    "collect_match_scope",
    "collect_construct_sorts",
    "check_optional_restriction",
]

#: variable name -> 'node' | 'edge' | 'path' | 'value'
Sorts = Dict[str, str]


class Reporter(Protocol):
    """How a violation is reported (``Analyzer.emit`` is the model)."""

    def emit(
        self,
        code: str,
        message: str,
        anchor: Optional[str] = None,
        hint: Optional[str] = None,
    ) -> None: ...


class Scope:
    """The variables visible inside one basic query.

    ``sorts`` covers every declared variable; ``all_path_vars`` are the
    ALL-mode path variables (legal only in graph-projection positions);
    ``outer`` names variables inherited from an enclosing query
    (correlated EXISTS subqueries see their parent's bindings).
    """

    def __init__(self, outer: Optional["Scope"] = None) -> None:
        self.sorts: Sorts = {}
        self.all_path_vars: Set[str] = set()
        self.outer = outer
        #: True when the scope may bind names the analyzer cannot see
        #: (e.g. a FROM import of a table whose columns are unknown);
        #: suppresses GC204 unbound-variable findings.
        self.open = False

    # ------------------------------------------------------------------
    def sort_of(self, name: str) -> Optional[str]:
        """The sort of *name*, searching enclosing scopes."""
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.sorts:
                return scope.sorts[name]
            scope = scope.outer
        return None

    def is_open(self) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if scope.open:
                return True
            scope = scope.outer
        return False

    def is_all_paths(self, name: str) -> bool:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.all_path_vars:
                return True
            scope = scope.outer
        return False


def _assign(ctx: Reporter, scope: Scope, name: Optional[str], sort: str) -> None:
    """Record *name* at *sort*, emitting GC201 on a clash.

    Clashes against an *enclosing* scope count too: a correlated
    subquery reusing an outer node variable as an edge is exactly the
    Section 3 illegality.
    """
    if not name:
        return
    existing = scope.sort_of(name)
    if existing is not None and existing != sort:
        ctx.emit(
            "GC201",
            f"variable {name!r} is used both as {existing} and as {sort}",
            anchor=name,
            hint=f"rename one of the {name!r} occurrences",
        )
        return
    scope.sorts[name] = sort


def collect_chain_sorts(ctx: Reporter, scope: Scope, chain: ast.Chain) -> None:
    """Fold one pattern chain's declarations into *scope*."""
    for element in chain.elements:
        if isinstance(element, ast.NodePattern):
            _assign(ctx, scope, element.var, "node")
            for _key, bind_var in element.prop_binds:
                _assign(ctx, scope, bind_var, "value")
        elif isinstance(element, ast.EdgePattern):
            _assign(ctx, scope, element.var, "edge")
            for _key, bind_var in element.prop_binds:
                _assign(ctx, scope, bind_var, "value")
        elif isinstance(element, ast.PathPatternElem):
            _assign(ctx, scope, element.var, "path")
            _assign(ctx, scope, element.cost_var, "value")
            if element.var and element.mode == "all":
                scope.all_path_vars.add(element.var)


def collect_match_scope(
    ctx: Reporter, match: Optional[ast.MatchClause], outer: Optional[Scope] = None
) -> Scope:
    """The scope declared by a MATCH clause (all blocks), with checks."""
    scope = Scope(outer)
    if match is None:
        return scope
    for block in (match.block, *match.optionals):
        for location in block.patterns:
            collect_chain_sorts(ctx, scope, location.chain)
    check_optional_restriction(ctx, match)
    return scope


def collect_construct_sorts(
    ctx: Reporter, scope: Scope, construct: ast.ConstructClause
) -> None:
    """Fold CONSTRUCT pattern declarations into *scope*.

    Construct variables unbound by the MATCH introduce fresh objects
    (one per group) — legal; what this pass catches is a *bound*
    variable re-used at a different sort (``MATCH (n)-[e]->(m)
    CONSTRUCT (e)`` uses an edge as a node).
    """
    for item in construct.items:
        if isinstance(item, ast.GraphRefItem):
            continue
        collect_chain_sorts(ctx, scope, item.chain)


def check_optional_restriction(ctx: Reporter, match: ast.MatchClause) -> None:
    """GC203: OPTIONAL-shared variables must occur in the main pattern."""
    main_vars: Set[str] = set()
    for location in match.block.patterns:
        main_vars |= location.chain.variables()
    optional_vars: List[FrozenSet[str]] = [
        frozenset().union(
            *(loc.chain.variables() for loc in block.patterns)
        )
        if block.patterns
        else frozenset()
        for block in match.optionals
    ]
    for i in range(len(optional_vars)):
        for j in range(i + 1, len(optional_vars)):
            rogue = (optional_vars[i] & optional_vars[j]) - main_vars
            for name in sorted(rogue):
                ctx.emit(
                    "GC203",
                    f"variable {name!r} is shared by OPTIONAL blocks but "
                    f"does not appear in the enclosing pattern",
                    anchor=name,
                    hint="bind the variable in the main MATCH pattern so "
                    "OPTIONAL evaluation order cannot matter",
                )
