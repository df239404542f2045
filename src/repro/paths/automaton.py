"""Thompson construction of NFAs for regular path expressions.

Appendix A.1 evaluates path patterns by "standard automata-theoretic
techniques in conjunction with Dijkstra-style algorithms". This module is
the automata half: it compiles a :class:`~repro.lang.ast.RegexExpr` into a
small epsilon-NFA whose arcs are one of

* ``edge``  — traverse a graph edge with a required label (or any label),
  forward or inverse (``l`` vs ``l-``),
* ``node``  — test a label on the *current* node without moving (``!l``),
* ``view``  — traverse one segment of a PATH-clause view (``~name``),
  carrying that segment's cost and witness walk.

Epsilon closures are precomputed so the product-graph search never deals
with epsilon moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, List, Optional, Set, Tuple

from ..errors import SemanticError
from ..lang import ast

__all__ = [
    "Arc",
    "NFA",
    "compile_regex",
    "regex_view_names",
    "regex_edge_steps",
    "reverse_regex",
]


@dataclass(frozen=True)
class Arc:
    """A non-epsilon NFA transition label."""

    kind: str                      # 'edge' | 'node' | 'view'
    label: Optional[str] = None    # edge/node label; view name for 'view'
    inverse: bool = False          # traverse the edge backwards


class NFA:
    """An epsilon-free view over a Thompson NFA.

    After :meth:`_finalize`, ``moves(state)`` lists the non-epsilon arcs
    available from a state (through epsilon closure) and
    ``is_accepting(state)`` answers through the closure as well.
    """

    def __init__(self) -> None:
        self._transitions: List[List[Tuple[Optional[Arc], int]]] = []
        self.start: int = 0
        self.accept: int = 0
        self._closed_moves: List[Tuple[Tuple[Arc, int], ...]] = []
        self._accepting: List[bool] = []
        self._unit_cost: bool = True

    # Construction ------------------------------------------------------
    def new_state(self) -> int:
        self._transitions.append([])
        return len(self._transitions) - 1

    def add_arc(self, source: int, arc: Optional[Arc], target: int) -> None:
        self._transitions[source].append((arc, target))

    def _epsilon_closure(self, state: int) -> FrozenSet[int]:
        seen: Set[int] = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for arc, target in self._transitions[current]:
                if arc is None and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)

    def _finalize(self) -> "NFA":
        count = len(self._transitions)
        self._closed_moves = []
        self._accepting = []
        for state in range(count):
            closure = self._epsilon_closure(state)
            moves: List[Tuple[Arc, int]] = []
            for member in closure:
                for arc, target in self._transitions[member]:
                    if arc is not None:
                        moves.append((arc, target))
            self._closed_moves.append(tuple(moves))
            self._accepting.append(self.accept in closure)
        self._unit_cost = not any(
            arc.kind == "view" for moves in self._closed_moves for arc, _ in moves
        )
        return self

    # Queries -------------------------------------------------------------
    @property
    def state_count(self) -> int:
        return len(self._transitions)

    def moves(self, state: int) -> Tuple[Tuple[Arc, int], ...]:
        """All non-epsilon arcs reachable from *state* via epsilon closure."""
        return self._closed_moves[state]

    def is_accepting(self, state: int) -> bool:
        """True iff an accept state is in the epsilon closure of *state*."""
        return self._accepting[state]

    @property
    def unit_cost(self) -> bool:
        """True iff every arc costs 0 or 1 (no PATH-view arcs).

        Edge arcs cost 1 and node-test arcs cost 0; only ``view`` arcs
        carry arbitrary positive costs. A unit-cost automaton lets the
        product-graph k-scan run level-synchronously, ranking walks,
        instead of over a heap of walk keys (see :mod:`repro.paths.product`).
        """
        return self._unit_cost

    def view_names(self) -> FrozenSet[str]:
        """All PATH-view names referenced by this automaton."""
        names: Set[str] = set()
        for moves in self._closed_moves:
            for arc, _ in moves:
                if arc.kind == "view" and arc.label is not None:
                    names.add(arc.label)
        return frozenset(names)


def compile_regex(regex: Optional[ast.RegexExpr]) -> NFA:
    """Compile *regex* into an epsilon-free NFA (None means any-edge star).

    A missing regex — a bare ``-/p/->`` pattern — is interpreted as ``_*``
    (any walk), the least restrictive conforming expression.
    """
    if regex is None:
        regex = ast.RStar(ast.RAnyEdge())
    nfa = NFA()
    start = nfa.new_state()
    accept = nfa.new_state()
    nfa.start = start
    nfa.accept = accept
    _build(nfa, regex, start, accept)
    return nfa._finalize()


def _build(nfa: NFA, regex: ast.RegexExpr, source: int, target: int) -> None:
    if isinstance(regex, ast.REps):
        nfa.add_arc(source, None, target)
    elif isinstance(regex, ast.RLabel):
        nfa.add_arc(source, Arc("edge", regex.label, regex.inverse), target)
    elif isinstance(regex, ast.RAnyEdge):
        nfa.add_arc(source, Arc("edge", None, regex.inverse), target)
    elif isinstance(regex, ast.RNodeTest):
        nfa.add_arc(source, Arc("node", regex.label), target)
    elif isinstance(regex, ast.RView):
        nfa.add_arc(source, Arc("view", regex.name), target)
    elif isinstance(regex, ast.RConcat):
        current = source
        for index, item in enumerate(regex.items):
            nxt = target if index == len(regex.items) - 1 else nfa.new_state()
            _build(nfa, item, current, nxt)
            current = nxt
    elif isinstance(regex, ast.RAlt):
        for item in regex.items:
            _build(nfa, item, source, target)
    elif isinstance(regex, ast.RStar):
        hub = nfa.new_state()
        nfa.add_arc(source, None, hub)
        nfa.add_arc(hub, None, target)
        _build(nfa, regex.item, hub, hub)
    elif isinstance(regex, ast.RPlus):
        hub = nfa.new_state()
        _build(nfa, regex.item, source, hub)
        _build(nfa, regex.item, hub, hub)
        nfa.add_arc(hub, None, target)
    elif isinstance(regex, ast.ROpt):
        nfa.add_arc(source, None, target)
        _build(nfa, regex.item, source, target)
    elif isinstance(regex, ast.RRepeat):
        # r{m,n}: m mandatory copies, then (n-m) optional ones (or a star
        # when the upper bound is open).
        current = source
        for _ in range(regex.low):
            nxt = nfa.new_state()
            _build(nfa, regex.item, current, nxt)
            current = nxt
        if regex.high is None:
            _build(nfa, ast.RStar(regex.item), current, target)
        else:
            for _ in range(regex.high - regex.low):
                nxt = nfa.new_state()
                nfa.add_arc(current, None, target)
                _build(nfa, regex.item, current, nxt)
                current = nxt
            nfa.add_arc(current, None, target)
    else:
        raise SemanticError(f"unsupported regular path expression: {regex!r}")


def reverse_regex(regex: Optional[ast.RegexExpr]) -> Optional[ast.RegexExpr]:
    """The regex whose conforming walks are *regex*'s walks reversed, or
    None when it names a PATH view (a segment is a directed witness).

    Concatenations run backwards and every edge step flips (``l`` <->
    ``l^``); node tests, alternation and repetition keep their shape. A
    search from a bound target over the result finds exactly the sources
    that reach it. None (a bare ``-/p/->``) reverses as ``_*``.
    """
    if regex_view_names(regex):
        return None
    return _reversed(regex if regex is not None else ast.RStar(ast.RAnyEdge()))


def _reversed(regex: ast.RegexExpr) -> ast.RegexExpr:
    if isinstance(regex, (ast.RLabel, ast.RAnyEdge)):
        return replace(regex, inverse=not regex.inverse)
    if isinstance(regex, (ast.RConcat, ast.RAlt)):
        items = tuple(map(_reversed, regex.items))
        return replace(regex, items=items[::-1] if isinstance(regex, ast.RConcat) else items)
    if isinstance(regex, (ast.RStar, ast.RPlus, ast.ROpt, ast.RRepeat)):
        return replace(regex, item=_reversed(regex.item))
    return regex  # REps and RNodeTest read the same both ways


def regex_edge_steps(
    regex: Optional[ast.RegexExpr],
) -> Optional[FrozenSet[Tuple[str, bool]]]:
    """The ``(label, inverse)`` edge steps a conforming walk may take
    (``inverse`` for ``l^``), or None if unknown.

    ``None`` means the steps cannot be bounded statically — the regex
    contains an any-edge wildcard or a PATH-view reference, or is a bare
    ``-/p/->`` pattern (any-walk). The cost model uses this to bound
    reachability estimates per label and direction
    (:meth:`repro.model.statistics.GraphStatistics.reachability_estimate`).
    """
    if regex is None:
        return None
    steps: Set[Tuple[str, bool]] = set()
    for node in ast.walk(regex):
        if isinstance(node, (ast.RAnyEdge, ast.RView)):
            return None
        if isinstance(node, ast.RLabel):
            steps.add((node.label, node.inverse))
    return frozenset(steps)


def regex_view_names(regex: Optional[ast.RegexExpr]) -> FrozenSet[str]:
    """Statically collect the ``~view`` names referenced by *regex*."""
    return frozenset(
        node.name for node in ast.walk(regex) if isinstance(node, ast.RView)
    )
