"""EXP-B2/EXP-P3 — path-algorithm benchmarks: batched vs naive vs networkx.

PathFinder interleaves automaton states with graph traversal; on a plain
single-label reachability/shortest-path task it should stay within a
small constant factor of networkx's dedicated algorithms (which cannot
handle regular path constraints at all).

PR 3 adds the batched-vs-naive ablation: every workload runs once on the
batched parent-pointer engine (the default) and once on the row-at-a-time
reference (``PathFinder(naive=True)`` / ``NAIVE_CONFIG``). The
multi-source micro benches share one search structure across sources (:meth:`PathFinder.shortest_multi`); the
``match_*`` benches measure the full vertical slice — columnar
``PathAtom`` expansion against the reference executor — on the snb100
weighted-shortest, reachability and k-shortest workloads (the PR's
acceptance gate: >= 3x median on weighted-shortest and reachability).
"""

import pytest

nx = pytest.importorskip("networkx")

from repro import GCoreEngine
from repro.config import NAIVE_CONFIG
from repro.datasets import load
from repro.lang import ast
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder, ViewSegment

from .conftest import SMOKE, full_persons

KSTAR = compile_regex(ast.RStar(ast.RLabel("knows")))

#: snb100 is the PR-3 acceptance scale; the weekly scheduled job lifts
#: it to snb300 via BENCH_PERSONS.
PERSONS = 30 if SMOKE else full_persons(100)

MULTI_SOURCES = 10 if SMOKE else 40


@pytest.fixture(scope="module")
def snb():
    return load("snb", scale=PERSONS, seed=21).graphs["snb"]


@pytest.fixture(scope="module")
def nx_graph(snb):
    g = nx.DiGraph()
    g.add_nodes_from(snb.nodes)
    for edge in snb.edges_with_label("knows"):
        src, dst = snb.endpoints(edge)
        g.add_edge(src, dst)
    return g


@pytest.fixture(scope="module")
def sources(snb):
    persons = sorted(n for n in snb.nodes_with_label("Person"))
    return persons[:MULTI_SOURCES]


@pytest.fixture(scope="module")
def weighted_views(snb):
    """A synthetic weighted view over knows edges (uniform 0.5 cost)."""
    segments = {}
    for edge in snb.edges_with_label("knows"):
        src, dst = snb.endpoints(edge)
        segments.setdefault(src, []).append(
            ViewSegment(dst, 0.5, (src, edge, dst))
        )
    return {"w": {s: tuple(v) for s, v in segments.items()}}


WVIEW = compile_regex(ast.RStar(ast.RView("w")))

SOURCE = "p0"


# ---------------------------------------------------------------------------
# Single-source micro benches (+ networkx sanity baseline)
# ---------------------------------------------------------------------------

def test_single_source_shortest_pathfinder(benchmark, snb):
    # Finder construction inside the timed callable, symmetric with the
    # naive arm: the batched engine pays its program/memo build here.
    def run():
        return PathFinder(snb, KSTAR).shortest_from(SOURCE)

    walks = benchmark(run)
    assert walks


def test_single_source_shortest_naive(benchmark, snb):
    finder = PathFinder(snb, KSTAR, naive=True)
    walks = benchmark(finder.shortest_from, SOURCE)
    assert walks


def test_single_source_shortest_networkx(benchmark, nx_graph):
    lengths = benchmark(nx.single_source_shortest_path_length, nx_graph, SOURCE)
    assert lengths


def test_results_agree_with_networkx(snb, nx_graph):
    finder = PathFinder(snb, KSTAR)
    walks = finder.shortest_from(SOURCE)
    lengths = nx.single_source_shortest_path_length(nx_graph, SOURCE)
    persons = {n for n in snb.nodes_with_label("Person")}
    assert {n: w.cost for n, w in walks.items() if n in persons} == {
        n: float(l) if isinstance(l, float) else l
        for n, l in lengths.items() if n in persons
    }


def test_reachability_pathfinder(benchmark, snb):
    finder = PathFinder(snb, KSTAR)
    reachable = benchmark(finder.reachable_from, SOURCE)
    assert reachable


def test_k_shortest(benchmark, snb):
    finder = PathFinder(snb, KSTAR)
    walks = benchmark(finder.k_shortest, SOURCE, "p25", 4)
    assert walks


def test_all_paths_projection(benchmark, snb):
    finder = PathFinder(snb, KSTAR)
    nodes, edges = benchmark(finder.all_paths_projection, SOURCE, "p25")
    assert nodes


def test_weighted_view_traversal(benchmark, snb, weighted_views):
    finder = PathFinder(snb, WVIEW, weighted_views)
    walks = benchmark(finder.shortest_from, SOURCE)
    assert walks


# ---------------------------------------------------------------------------
# Multi-source batches: one shared search structure vs per-row searches
# ---------------------------------------------------------------------------

def test_shortest_multi_batched(benchmark, snb, sources):
    def run():
        return PathFinder(snb, KSTAR).shortest_multi(sources)

    walks = benchmark(run)
    assert all(walks[s] for s in sources)


def test_shortest_multi_naive(benchmark, snb, sources):
    def run():
        finder = PathFinder(snb, KSTAR, naive=True)
        return {s: finder.shortest_from(s) for s in sources}

    walks = benchmark(run)
    assert all(walks[s] for s in sources)


def test_reachability_multi_batched(benchmark, snb, sources):
    def run():
        return PathFinder(snb, KSTAR).reachable_multi(sources)

    reach = benchmark(run)
    assert all(reach[s] for s in sources)


def test_reachability_multi_naive(benchmark, snb, sources):
    def run():
        finder = PathFinder(snb, KSTAR, naive=True)
        return {s: finder.reachable_from(s) for s in sources}

    reach = benchmark(run)
    assert all(reach[s] for s in sources)


def test_weighted_multi_batched(benchmark, snb, sources, weighted_views):
    def run():
        return PathFinder(snb, WVIEW, weighted_views).shortest_multi(sources)

    walks = benchmark(run)
    assert all(walks[s] for s in sources)


def test_weighted_multi_naive(benchmark, snb, sources, weighted_views):
    def run():
        finder = PathFinder(snb, WVIEW, weighted_views, naive=True)
        return {s: finder.shortest_from(s) for s in sources}

    walks = benchmark(run)
    assert all(walks[s] for s in sources)


# ---------------------------------------------------------------------------
# Full vertical slice: MATCH path workloads (columnar vs reference)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def path_engine(snb):
    engine = GCoreEngine()
    engine.register_graph("snb", snb, default=True)
    engine.register_path_view(
        "PATH wKnows = (x:Person)-[e:knows]->(y:Person) COST 1"
    )
    return engine


MATCH_WORKLOADS = {
    "weighted_shortest": "MATCH (n:Person)-/p<~wKnows*> COST c/->(m:Person)",
    "reachability": "MATCH (n:Person)-/<:knows*>/->(m:Person)",
    "shortest_cost": "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person)",
    "k_shortest": (
        "MATCH (n:Person {firstName='John'})"
        "-/2 SHORTEST p<:knows*> COST c/->(m:Person)"
    ),
}


@pytest.mark.parametrize("workload", sorted(MATCH_WORKLOADS))
def test_match_paths_batched(benchmark, path_engine, workload):
    query = MATCH_WORKLOADS[workload]
    table = benchmark(path_engine.bindings, query)
    assert len(table) > 0


@pytest.mark.parametrize("workload", sorted(MATCH_WORKLOADS))
def test_match_paths_naive(benchmark, path_engine, workload):
    query = MATCH_WORKLOADS[workload]
    table = benchmark(path_engine.bindings, query, config=NAIVE_CONFIG)
    assert len(table) > 0


@pytest.mark.parametrize("workload", sorted(MATCH_WORKLOADS))
def test_match_paths_agree(path_engine, workload):
    query = MATCH_WORKLOADS[workload]
    batched = path_engine.bindings(query)
    naive = path_engine.bindings(query, config=NAIVE_CONFIG)
    # Column order follows atom order, which is the planner's choice.
    assert set(batched.columns) == set(naive.columns)
    assert set(batched.rows) == set(naive.rows)
