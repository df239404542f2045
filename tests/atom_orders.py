"""Run a MATCH block's atoms in any order the planner may choose.

A block's answer is a join of its atoms filtered by the conjunction of
its pattern tests and WHERE (Appendix A.2), so every order returns the
same row multiset, and every order is allowed. An order runs as a plan
does: ``PushdownPlan.assign`` gives each step its conjuncts, then
``run_atom_sequence`` and ``finish_block_where`` run the steps and the
residual.

:func:`syntax_order_plans` runs whole statements with every block in
syntax order, for what lies past the steps: the columns of a block
that emptied early, and the heads that consume its table.

The regret harness measures what an order costs. The *work* of an
order is the sum of the table sizes after each of its steps, and the
table after a set of atoms does not depend on the order they ran in
(the join is the same; pushdown applies each conjunct once its
variables are bound), so :func:`block_regret` builds one table per
set of atoms and finds the least work by dynamic programming
over those sets. It reports the planner's work, the least work, and
the q-error of each planned step's ``rows~`` against the table the step
built.
"""

import contextlib
import itertools
import math
import random
from collections import Counter
from typing import NamedTuple, Tuple

from repro.algebra.binding import BindingTable
from repro.errors import GCoreError
from repro.eval import match as match_module
from repro.eval.kernels import ExpressionCompiler
from repro.eval.match import (
    block_atoms,
    block_graphs,
    finish_block_where,
    path_finder,
    run_atom_sequence,
)
from repro.eval.planner import (
    BlockPlan,
    PlanStep,
    _is_search,
    _searches_backward,
    plan_block,
)
from repro.eval.pushdown import PushdownPlan


def allowed_orders(atoms):
    """Every order of *atoms* as index tuples, syntax order first."""
    return itertools.permutations(range(len(atoms)))


#: How many orders :func:`connected_orders` draws besides syntax order.
SAMPLED_ORDERS = 24


def connected_orders(atoms, bound):
    """Syntax order, then up to :data:`SAMPLED_ORDERS` distinct orders
    drawn by a walk seeded with 42 that always takes an atom sharing a
    variable with what is bound when one exists: connected orders
    wherever the pattern allows one."""
    rng = random.Random(42)
    orders = dict.fromkeys([tuple(range(len(atoms)))])
    for _ in range(4 * SAMPLED_ORDERS):
        if len(orders) > SAMPLED_ORDERS:
            break
        order, seen = [], set(bound)
        left = list(range(len(atoms)))
        while left:
            joined = [i for i in left if atoms[i].binds() & seen]
            choice = rng.choice(joined or left)
            left.remove(choice)
            order.append(choice)
            seen |= atoms[choice].binds()
        orders.setdefault(tuple(order))
    return list(orders)


def every_allowed_order(atoms, bound):
    """:func:`allowed_orders`, whatever is *bound*."""
    return allowed_orders(atoms)


def run_steps(steps, residual, graphs, table, ctx):
    """*steps* over the block's *graphs*, then the *residual* WHERE, as
    block evaluation runs them."""
    compiler = ExpressionCompiler(ctx, graphs)
    table = run_atom_sequence(steps, graphs, table, ctx, compiler)
    return finish_block_where(table, residual, ctx, compiler)


def ordered_plan(atoms, order, where, bound, params):
    """The plan that runs *atoms* in *order*, their pattern tests and
    the WHERE assigned to it."""
    ordered = [atoms[i] for i in order]
    applied, residual = PushdownPlan(where, params, atoms).assign(ordered)
    steps = tuple(
        PlanStep(atom, None, None, probe, post)
        for atom, (probe, post) in zip(ordered, applied)
    )
    return BlockPlan(steps, residual, frozenset(bound), None)


def run_order(atoms, graphs, order, where, table, ctx):
    """The block's rows with *atoms* run in *order* from *table*."""
    plan = ordered_plan(atoms, order, where, table.columns, ctx.params)
    return run_steps(plan.steps, plan.residual, graphs, table, ctx)


def row_multiset(table):
    """The rows of *table* as a multiset, whatever the column order."""
    return Counter(tuple(sorted(row.items())) for row in table)


def _answer(run):
    """The rows ``run()`` returns as a multiset, or the class of the
    :class:`~repro.errors.GCoreError` it raises."""
    try:
        return row_multiset(run())
    except GCoreError as exc:
        return type(exc)


def _block_scope(block, ctx, graphs):
    """*block*'s graphs (given, or resolved in *ctx*) and the context its
    WHERE reads, as :func:`~repro.eval.match.evaluate_block` makes it."""
    graphs = graphs if graphs is not None else block_graphs(block, ctx)
    return graphs, ctx.scope(graphs[0])


def check_block_orders(block, ctx, seed=None, orders=every_allowed_order, graphs=None):
    """Assert that each order ``orders(atoms, bound)`` yields for *block*
    (over *graphs*, resolved in *ctx* when None) gives the answer of its
    cost plan, rows or error; returns the number of orders run."""
    table = seed if seed is not None else BindingTable.unit()
    atoms = block_atoms(block)
    graphs, ctx = _block_scope(block, ctx, graphs)
    plan = plan_block(atoms, graphs, block.where, table.columns, ctx.params)
    expected = _answer(
        lambda: run_steps(plan.steps, plan.residual, graphs, table, ctx)
    )
    count = 0
    for order in orders(atoms, table.columns):
        got = _answer(
            lambda: run_order(atoms, graphs, order, block.where, table, ctx)
        )
        assert got == expected, f"order {order} of {len(atoms)} atoms"
        count += 1
    return count


@contextlib.contextmanager
def every_block(measure):
    """While open, each block evaluation also runs ``measure(block, ctx,
    seed, graphs=graphs)`` over the graphs the evaluation read (the blocks
    a measure evaluates are not measured again); yields the list of what
    it returned, one entry per block."""
    original = match_module.evaluate_block
    measured, inside = [], []

    def spy(block, ctx, seed=None, site=None, graphs=None):
        if graphs is None:
            graphs = match_module.block_graphs(block, ctx)
        table = original(block, ctx, seed, site, graphs)
        if not inside:
            inside.append(block)
            try:
                measured.append(measure(block, ctx, seed, graphs=graphs))
            finally:
                inside.pop()
        return table

    match_module.evaluate_block = spy
    try:
        yield measured
    finally:
        match_module.evaluate_block = original


def every_block_checked(orders=every_allowed_order):
    """:func:`every_block` running :func:`check_block_orders`: yields
    the list of order counts, one per block."""
    return every_block(
        lambda block, ctx, seed, graphs: check_block_orders(block, ctx, seed, orders, graphs)
    )


@contextlib.contextmanager
def syntax_order_plans():
    """While open, every block a statement evaluates runs its atoms in
    syntax order (no plan is cached or replayed)."""
    original = match_module._block_plan

    def in_syntax_order(site, block, graphs, table, ctx):
        atoms = block_atoms(block)
        order = range(len(atoms))
        return ordered_plan(atoms, order, block.where, table.columns, ctx.params)

    match_module._block_plan = in_syntax_order
    try:
        yield
    finally:
        match_module._block_plan = original


# ---------------------------------------------------------------------------
# Plan regret: the planner's work against the least work of any order
# ---------------------------------------------------------------------------

#: A step that would build more rows than this counts as infinite work:
#: its table is never built, and no order through it is the best.
ROW_CAP = 20_000


class Regret(NamedTuple):
    """What one block's plan cost, against the best order."""

    planned: float  # the work of the planner's order (inf past the cap)
    best: float  # the least work of any order
    q_errors: Tuple[float, ...]  # per planned step: rows~ against actual

    @property
    def ratio(self):
        """Planned over best work, each at least 1 (an order that builds
        no row still runs a step)."""
        return max(self.planned, 1) / max(self.best, 1)


def q_error(estimate, actual):
    """The factor between *estimate* and *actual*, each at least 1."""
    estimate, actual = max(estimate, 1.0), max(actual, 1.0)
    return max(estimate / actual, actual / estimate)


def _expansion(atoms, last, bound, before, built, table, graphs, ctx):
    """A lower bound on the rows ``atoms[last]`` emits from the table
    *before* ahead of its filters, for the two steps whose filters can
    hide a large expansion: a search with no endpoint to start from
    emits every node's reachable set per row, and an atom sharing no
    variable with *bound* multiplies the table by its own candidates
    (the built set of it alone). Zero for any other step."""
    atom = atoms[last]
    if not before:
        return 0
    if (
        _is_search(atom)
        and atom.from_var != atom.to_var
        and atom.from_var not in bound
        and not _searches_backward(atom, bound)
    ):
        graph = graphs[atom.slot]
        finder = path_finder(atom.pattern.regex, graph, ctx)
        return len(before) * sum(len(finder.reachable_from(n)) for n in graph.nodes)
    if table and not atom.binds() & bound:
        alone = built.get(frozenset({last}), False)
        if alone is None:
            return math.inf
        if alone:
            return len(before) * len(alone[0]) / len(table)
    return 0


#: The rows a step extends at a time, so that a step whose table passes
#: the cap stops within one slice of it.
SLICE = 256


def _run_capped(step, graphs, before, ctx, compiler, cap):
    """The table *step* builds from *before*, or None once it passes
    *cap* rows; the step runs on :data:`SLICE` rows at a time (each row
    extends alone, so the slices' tables together are the table)."""
    parts, size = [], 0
    for start in range(0, len(before), SLICE):
        rows = before.select_rows(range(start, min(start + SLICE, len(before))))
        part = run_atom_sequence([step], graphs, rows, ctx, compiler)
        size += len(part)
        if size > cap:
            return None
        parts.append(part)
    if len(parts) < 2:
        return parts[0] if parts else before
    return BindingTable(parts[0].columns, itertools.chain.from_iterable(parts))


def subset_tables(atoms, graphs, where, table, ctx, cap=ROW_CAP):
    """The table after each set of *atoms* run from *table*:
    ``{frozenset of atom indices: (table, order) or None}``, None for a
    set whose table would pass *cap* rows.

    Each set is built by one step from its smallest built predecessor,
    one the step joins when there is one, with the WHERE assigned as for
    that predecessor's order plus the step. A step is not run when
    :func:`_expansion` bounds what it emits above *cap*, and stops once
    its table passes *cap*.
    """
    compiler = ExpressionCompiler(ctx, graphs)
    built = {frozenset(): (table, ())}
    level = [frozenset()]
    while level:
        grown = {}
        for done in level:
            for i in range(len(atoms)):
                if i not in done:
                    grown.setdefault(done | {i}, []).append(i)
        for chosen, lasts in grown.items():
            bound = {
                i: set(table.columns).union(*(atoms[j].binds() for j in chosen - {i}))
                for i in lasts
                if built[chosen - {i}] is not None
            }
            if not bound:
                built[chosen] = None
                continue
            last = min(bound, key=lambda i: (
                not atoms[i].binds() & bound[i], len(built[chosen - {i}][0]), i
            ))
            before, order = built[chosen - {last}]
            order += (last,)
            emits = _expansion(atoms, last, bound[last], before, built, table, graphs, ctx)
            if emits > cap:
                built[chosen] = None
                continue
            plan = ordered_plan(atoms, order, where, table.columns, ctx.params)
            after = _run_capped(
                plan.steps[-1], graphs, before, ctx, compiler, cap
            )
            built[chosen] = None if after is None else (after, order)
        level = list(grown)
    return built


def block_regret(block, ctx, seed=None, cap=ROW_CAP, graphs=None):
    """The :class:`Regret` of *block*'s cost plan from *seed* (over
    *graphs*, resolved in *ctx* when None)."""
    table = seed if seed is not None else BindingTable.unit()
    atoms = block_atoms(block)
    graphs, ctx = _block_scope(block, ctx, graphs)
    plan = plan_block(atoms, graphs, block.where, table.columns, ctx.params)
    built = subset_tables(atoms, graphs, block.where, table, ctx, cap)
    size = {
        chosen: math.inf if entry is None else len(entry[0])
        for chosen, entry in built.items()
    }
    least = {frozenset(): 0}
    for chosen in sorted(size, key=len)[1:]:
        least[chosen] = size[chosen] + min(
            least[chosen - {i}] for i in chosen if chosen - {i} in least
        )
    position = {id(atom): i for i, atom in enumerate(atoms)}
    done, planned, q_errors = frozenset(), 0, []
    for step in plan.steps:
        done |= {position[id(step.atom)]}
        planned += size[done]
        if step.rows is not None:
            q_errors.append(q_error(step.rows * len(table), size[done]))
    return Regret(planned, least[frozenset(range(len(atoms)))], tuple(q_errors))


def every_block_regret():
    """:func:`every_block` running :func:`block_regret`: yields the list
    of :class:`Regret` values, one per block."""
    return every_block(block_regret)
