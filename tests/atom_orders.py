"""Run a MATCH block's atoms in any order the planner may choose.

A block's answer is a join of its atoms (Appendix A.2), so every order
returns the same row multiset. An order is *allowed* when each
row-reading atom (a pattern test that reads another variable) keeps
its syntax position and the atoms before it, as the planner keeps it.
An allowed order runs as a plan does: ``PushdownPlan.assign`` gives
each step its WHERE conjuncts, then ``run_atom_sequence`` and
``finish_block_where`` run the steps and the residual.

:func:`syntax_order_plans` runs whole statements with every block in
syntax order, for what lies past the steps: the columns of a block
that emptied early, and the heads that consume its table.

This is the skeleton of a plan-regret harness: it runs orders and
compares answers, and measures no cost yet.
"""

import contextlib
import itertools
import random
from collections import Counter

from repro.algebra.binding import BindingTable
from repro.errors import GCoreError
from repro.eval import match as match_module
from repro.eval.expressions import ExpressionEvaluator
from repro.eval.kernels import ExpressionCompiler
from repro.eval.match import (
    block_atoms,
    block_graphs,
    finish_block_where,
    run_atom_sequence,
)
from repro.eval.planner import BlockPlan, PlanStep, _reads_row, plan_block
from repro.eval.pushdown import PushdownPlan


def _segments(atoms):
    """Index runs an allowed order may permute, in syntax order; a
    row-reading atom is a run of its own."""
    segments, current = [], []
    for index, atom in enumerate(atoms):
        if _reads_row(atom):
            segments.extend([current, [index]])
            current = []
        else:
            current.append(index)
    segments.append(current)
    return [segment for segment in segments if segment]


def allowed_orders(atoms):
    """Every allowed order of *atoms* as index tuples, syntax order first."""
    runs = [itertools.permutations(segment) for segment in _segments(atoms)]
    for parts in itertools.product(*runs):
        yield tuple(itertools.chain.from_iterable(parts))


#: How many orders :func:`connected_orders` draws besides syntax order.
SAMPLED_ORDERS = 24


def connected_orders(atoms, bound):
    """Syntax order, then up to :data:`SAMPLED_ORDERS` distinct allowed
    orders drawn by a walk seeded with 42 that always takes an atom
    sharing a variable with what is bound when one exists: connected
    orders wherever the pattern allows one."""
    rng = random.Random(42)
    orders = dict.fromkeys([tuple(range(len(atoms)))])
    for _ in range(4 * SAMPLED_ORDERS):
        if len(orders) > SAMPLED_ORDERS:
            break
        order, seen = [], set(bound)
        for segment in _segments(atoms):
            left = list(segment)
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
    compiler = ExpressionCompiler(ctx)
    table = run_atom_sequence(
        steps, graphs, table, ctx, ExpressionEvaluator(ctx), compiler
    )
    return finish_block_where(table, residual, ctx, compiler)


def ordered_plan(atoms, order, where, bound, params):
    """The plan that runs *atoms* in *order*, the WHERE assigned to it."""
    ordered = [atoms[i] for i in order]
    applied, residual = PushdownPlan(where, params).assign(ordered)
    steps = tuple(
        PlanStep(atom, 0, None, None, probe, post)
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


def check_block_orders(block, ctx, seed=None, orders=every_allowed_order):
    """Assert that each order ``orders(atoms, bound)`` yields for *block*
    gives the answer of its cost plan, rows or error; returns the number
    of orders run."""
    table = seed if seed is not None else BindingTable.unit()
    atoms = block_atoms(block)
    graphs = block_graphs(block, ctx)
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
def every_block_checked(orders=every_allowed_order):
    """While open, each block evaluation also runs
    :func:`check_block_orders` on its block (the blocks a check runs are
    not checked again); yields the list of order counts, one per block."""
    original = match_module.evaluate_block
    checked, inside = [], []

    def spy(block, ctx, seed=None, *rest, **options):
        table = original(block, ctx, seed, *rest, **options)
        if not inside:
            inside.append(block)
            try:
                checked.append(check_block_orders(block, ctx, seed, orders))
            finally:
                inside.pop()
        return table

    match_module.evaluate_block = spy
    try:
        yield checked
    finally:
        match_module.evaluate_block = original


@contextlib.contextmanager
def syntax_order_plans():
    """While open, every block a statement evaluates runs its atoms in
    syntax order (no plan is cached or replayed)."""
    original = match_module._block_plan

    def in_syntax_order(site, block, graphs, table, ctx, name_anonymous_edges):
        atoms = block_atoms(block, name_anonymous_edges)
        order = range(len(atoms))
        return ordered_plan(atoms, order, block.where, table.columns, ctx.params)

    match_module._block_plan = in_syntax_order
    try:
        yield
    finally:
        match_module._block_plan = original
