"""Pass 4 — cost smells (warnings only, never blocking).

* ``GC401 cartesian-product`` — a MATCH block whose patterns fall into
  more than one variable-connected component: the planner has no join
  key between the components, so the block multiplies their
  cardinalities.
"""

from __future__ import annotations

from typing import Dict, TYPE_CHECKING

from ..lang import ast

if TYPE_CHECKING:  # pragma: no cover
    from .analyzer import Analyzer

__all__ = ["check_cartesian"]


def check_cartesian(ctx: "Analyzer", block: ast.MatchBlock) -> None:
    """GC401 when a block's patterns share no variables (per component)."""
    if len(block.patterns) < 2:
        return
    # Union-find over pattern indexes, joined through shared variables.
    parent = list(range(len(block.patterns)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    var_home: Dict[str, int] = {}
    for index, location in enumerate(block.patterns):
        for name in location.chain.variables():
            if name in var_home:
                parent[find(index)] = find(var_home[name])
            else:
                var_home[name] = index
    components = {find(i) for i in range(len(block.patterns))}
    if len(components) > 1:
        ctx.emit(
            "GC401",
            f"MATCH block has {len(components)} disconnected pattern "
            f"components; their cardinalities multiply (cartesian "
            f"product)",
            hint="connect the patterns through a shared variable, or "
            "split the query",
        )
