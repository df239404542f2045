"""The experiment harness: regenerate every table and figure of the paper.

Each ``report_*`` function reproduces one artifact (:data:`EXPERIMENTS`
is the per-experiment index) and returns the text the paper's
version of the artifact would contain — survey counts for Figure 1,
formal components for Figure 2, binding tables for the Section 3 tour,
view contents for Figure 5, the Table 1 feature matrix, and the measured
scaling exponents backing the Section 4 tractability claim.

``python -m repro.bench [experiment ...]`` prints them.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Dict, List, Tuple

from ..datasets import load
from ..engine import GCoreEngine
from ..lang import ast
from ..model.builder import GraphBuilder
from ..paths.automaton import compile_regex
from ..paths.product import PathFinder
from ..paths.simplepaths import count_simple_paths
from ..table import Table

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]


def _tour_engine() -> GCoreEngine:
    engine = GCoreEngine()
    load("paper").install(engine)
    return engine


# ---------------------------------------------------------------------------
# Figure 1 — usage characteristics (survey data + executable witnesses)
# ---------------------------------------------------------------------------

FIGURE1_FIELDS = [
    ("healthcare / pharma", 14), ("publishing", 10),
    ("finance / insurance", 6), ("cultural heritage", 6),
    ("e-commerce", 5), ("social media", 4), ("telecommunications", 4),
]
FIGURE1_FEATURES = [
    ("graph reachability", 36), ("graph construction", 34),
    ("pattern matching", 32), ("shortest path search", 19),
    ("graph clustering", 14),
]

_FEATURE_WITNESSES = {
    "graph reachability":
        "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
        "WHERE n.firstName = 'John'",
    "graph construction":
        "CONSTRUCT (x GROUP e :Company {name:=e})<-[:worksAt]-(n) "
        "MATCH (n:Person {employer=e})",
    "pattern matching":
        "CONSTRUCT (n)-[:coFan]->(m) MATCH "
        "(n:Person)-[:hasInterest]->(t:Tag)<-[:hasInterest]-(m:Person)",
    "shortest path search":
        "CONSTRUCT (n)-/@p:route/->(m) "
        "MATCH (n:Person)-/p<:knows*>/->(m:Person) "
        "WHERE n.firstName = 'John'",
    "graph clustering":
        "CONSTRUCT (x GROUP c :Community {members := COUNT(*)}) "
        "MATCH (n:Person)-[:isLocatedIn]->(c)",
}


def report_figure1() -> str:
    """Figure 1: the TUC survey table + a live witness query per feature."""
    lines = ["Figure 1 — Graph database usage characteristics "
             "(LDBC TUC meetings 2012-2017)", ""]
    lines.append(f"{'Application Fields':<24}{'':>4}    "
                 f"{'Used Features':<24}{'':>4}")
    rows = max(len(FIGURE1_FIELDS), len(FIGURE1_FEATURES))
    for index in range(rows):
        field, fcount = ("", "")
        feature, ucount = ("", "")
        if index < len(FIGURE1_FIELDS):
            field, fcount = FIGURE1_FIELDS[index]
        if index < len(FIGURE1_FEATURES):
            feature, ucount = FIGURE1_FEATURES[index]
        lines.append(f"{field:<24}{fcount:>4}    {feature:<24}{ucount:>4}")
    lines.append("")
    lines.append("Executable witness per feature class "
                 "(generated SNB graph, 50 persons):")
    engine = GCoreEngine()
    load("snb", scale=50).install(engine)
    for feature, _ in FIGURE1_FEATURES:
        query = _FEATURE_WITNESSES[feature]
        start = time.perf_counter()
        result = engine.run(query)
        elapsed = (time.perf_counter() - start) * 1000
        size = (f"{result.order()} nodes / {result.size()} edges"
                if hasattr(result, "order") else f"{len(result)} rows")
        lines.append(f"  {feature:<24} -> {size:<28} [{elapsed:7.1f} ms]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 2 — the formal example PPG
# ---------------------------------------------------------------------------

def report_figure2() -> str:
    """Figure 2 / Example 2.2: the formal components of the toy PPG."""
    g = load("figure2").graphs["figure2"]
    lines = ["Figure 2 — A small social network (Path Property Graph)", ""]
    lines.append(f"N = {sorted(g.nodes)}")
    lines.append(f"E = {sorted(g.edges)}")
    lines.append(f"P = {sorted(g.paths)}")
    lines.append("rho   = {" + ", ".join(
        f"{e} -> {g.endpoints(e)}" for e in sorted(g.edges)) + "}")
    lines.append(f"delta = {{301 -> {list(g.path_sequence(301))}}}")
    lines.append("lambda: " + ", ".join(
        f"{obj} -> {sorted(g.labels(obj))}"
        for obj in sorted(g.nodes | g.paths) if g.labels(obj)))
    lines.append(f"sigma(101, name)  = {sorted(g.property(101, 'name'))}")
    lines.append(f"sigma(205, since) = {sorted(g.property(205, 'since'))}")
    lines.append(f"sigma(301, trust) = {sorted(g.property(301, 'trust'))}")
    lines.append(f"nodes(301) = {list(g.path_nodes(301))}")
    lines.append(f"edges(301) = {list(g.path_edges(301))}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 4 — the guided-tour binding tables
# ---------------------------------------------------------------------------

def report_figure4() -> str:
    """The binding tables the paper prints in Section 3."""
    engine = _tour_engine()
    lines = ["Figure 4 instance — Section 3 binding tables", ""]
    lines.append("MATCH (c:Company) ON company_graph, (n:Person) ON "
                 "social_graph WHERE c.name = n.employer")
    lines.append(engine.bindings(
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
        "WHERE c.name = n.employer").pretty())
    lines.append("")
    lines.append("... WHERE c.name IN n.employer   (rescues Frank)")
    lines.append(engine.bindings(
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph "
        "WHERE c.name IN n.employer").pretty())
    lines.append("")
    lines.append("... (n:Person {employer=e}) WHERE c.name = e   (unrolled)")
    lines.append(engine.bindings(
        "MATCH (c:Company) ON company_graph, "
        "(n:Person {employer=e}) ON social_graph WHERE c.name = e").pretty())
    lines.append("")
    cartesian = engine.bindings(
        "MATCH (c:Company) ON company_graph, (n:Person) ON social_graph"
    )
    lines.append(f"Cartesian product (no WHERE): {len(cartesian)} rows "
                 f"(paper: 20)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Figure 5 — the two views and the final result
# ---------------------------------------------------------------------------

def report_figure5() -> str:
    """Figure 5: nr_messages, the :toWagner paths, the :wagnerFriend edge."""
    engine = _tour_engine()
    engine.run(
        "GRAPH VIEW social_graph1 AS (CONSTRUCT social_graph, (n)-[e]->(m) "
        "SET e.nr_messages := COUNT(*) MATCH (n)-[e:knows]->(m) "
        "WHERE (n:Person) AND (m:Person) "
        "OPTIONAL (n)<-[c1]-(msg1:Post|Comment), (msg1)-[:reply_of]-(msg2), "
        "(msg2:Post|Comment)-[c2]->(m) "
        "WHERE (c1:has_creator) AND (c2:has_creator))"
    )
    engine.run(
        "GRAPH VIEW social_graph2 AS (PATH wKnows = (x)-[e:knows]->(y) "
        "WHERE NOT 'Acme' IN y.employer COST 1 / (1 + e.nr_messages) "
        "CONSTRUCT social_graph1, (n)-/@p:toWagner/->(m) "
        "MATCH (n:Person)-/p<~wKnows*>/->(m:Person) ON social_graph1 "
        "WHERE (m)-[:hasInterest]->(:Tag {name='Wagner'}) "
        "AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m) "
        "AND n.firstName = 'John' AND n.lastName = 'Doe')"
    )
    g1 = engine.graph("social_graph1")
    g2 = engine.graph("social_graph2")
    lines = ["Figure 5 — social_graph1 and social_graph2", ""]
    lines.append("nr_messages per knows edge:")
    for edge in sorted(g1.edges_with_label("knows"), key=str):
        src, dst = g1.endpoints(edge)
        (count,) = g1.property(edge, "nr_messages")
        lines.append(f"  {src:>7} -> {dst:<7}: {count}")
    lines.append("")
    lines.append("Stored :toWagner paths (both via Peter):")
    for pid in sorted(g2.paths_with_label("toWagner"), key=str):
        lines.append("  " + " -> ".join(str(n) for n in g2.path_nodes(pid)))
    final = engine.run(
        "CONSTRUCT (n)-[e:wagnerFriend {score:=COUNT(*)}]->(m) "
        "WHEN e.score > 0 "
        "MATCH (n:Person)-/@p:toWagner/->(), (m:Person) ON social_graph2 "
        "WHERE m = nodes(p)[1]"
    )
    lines.append("")
    for edge in final.edges:
        src, dst = final.endpoints(edge)
        (score,) = final.property(edge, "score")
        lines.append(
            f"Final result: ({src})-[:wagnerFriend {{score: {score}}}]->"
            f"({dst})   (paper: John->Peter, score 2)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Table 1 — the feature matrix
# ---------------------------------------------------------------------------

def report_table1() -> str:
    """Table 1: feature x guided-tour-lines, each executed and timed."""
    engine = _tour_engine()
    rows: List[Tuple[str, str, str]] = []

    def check(feature: str, lines: str, query: str, validate) -> None:
        start = time.perf_counter()
        try:
            result = engine.run(query)
            ok = bool(validate(result)) if validate else True
            status = "OK" if ok else "MISMATCH"
        except Exception as exc:  # pragma: no cover - report, don't die
            status = f"FAIL ({type(exc).__name__})"
        elapsed = (time.perf_counter() - start) * 1000
        rows.append((feature, lines, f"{status} [{elapsed:6.1f} ms]"))

    check("Matching all patterns (homomorphism)", "*",
          "CONSTRUCT (n)-[e]->(m) MATCH (n)-[e:knows]->(m)",
          lambda g: len(g.edges) == 10)
    check("Matching literal values", "18, 22",
          "CONSTRUCT (n) MATCH (n:Person {name='does-not-exist'})",
          lambda g: g.is_empty())
    check("Matching k shortest paths", "24",
          "CONSTRUCT (n)-/@p/->(m) MATCH (n)-/3 SHORTEST p<:knows*>/->(m) "
          "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John'",
          lambda g: g.paths)
    check("Matching all shortest paths", "29",
          "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
          "WHERE n.firstName = 'John'",
          lambda g: len(g.nodes) == 5)
    check("Matching weighted shortest paths", "60",
          "PATH w = (x)-[e:knows]->(y) COST 1 "
          "CONSTRUCT (n)-/@p/->(m) MATCH (n:Person)-/p<~w*>/->(m:Person) "
          "WHERE n.firstName = 'John'",
          lambda g: g.paths)
    check("(multi-segment) optional matching", "44",
          "CONSTRUCT (n) MATCH (n:Person) "
          "OPTIONAL (n)<-[c1]-(m1:Post|Comment), (m1)-[:reply_of]-(m2)",
          lambda g: len(g.nodes) == 5)
    check("Querying multiple graphs", "6",
          "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
          "(n:Person) ON social_graph WHERE c.name IN n.employer",
          lambda g: len(g.edges) == 5)
    check("Queries on paths", "69",
          "CONSTRUCT (n)-/@q:probe/->(m) "
          "MATCH (n)-/q<:knows*>/->(m) WHERE (n:Person) AND (m:Person) "
          "AND n.firstName = 'John'", lambda g: g.paths)
    check("Filtering matches", "4,8,...",
          "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'",
          lambda g: len(g.nodes) == 2)
    check("Filtering path expressions", "58",
          "PATH nf = (x)-[e:knows]->(y) WHERE NOT 'Acme' IN y.employer "
          "CONSTRUCT (m) MATCH (n:Person)-/<~nf*>/->(m) "
          "WHERE n.firstName = 'John'", lambda g: g.nodes)
    check("Value joins", "8",
          "CONSTRUCT (c) MATCH (c:Company) ON company_graph, "
          "(n:Person) ON social_graph "
          "WHERE c.name = n.employer", lambda g: len(g.nodes) == 2)
    check("Cartesian product", "11",
          "CONSTRUCT (c), (n) MATCH (c:Company) ON company_graph, "
          "(n:Person) ON social_graph",
          lambda g: len(g.nodes) == 9)
    check("List membership", "13",
          "CONSTRUCT (n) MATCH (c:Company) ON company_graph, "
          "(n:Person) ON social_graph "
          "WHERE c.name IN n.employer", lambda g: len(g.nodes) == 4)
    check("Set operations on graphs", "8, 14, 19",
          "CONSTRUCT (n) MATCH (n:Person) UNION social_graph",
          lambda g: len(g.nodes) > 5)
    check("Existential subqueries (implicit)", "27, 31, 35",
          "CONSTRUCT (n) MATCH (n:Person), (m:Person) "
          "WHERE (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
          lambda g: len(g.nodes) == 5)
    check("Existential subqueries (explicit)", "36",
          "CONSTRUCT (n) MATCH (n:Person) WHERE EXISTS ("
          "CONSTRUCT () MATCH (n)-[:hasInterest]->(t))",
          lambda g: len(g.nodes) == 2)
    check("Graph construction", "*",
          "CONSTRUCT (n)-[:rel]->(m) MATCH (n:Person)-[:knows]->(m)",
          lambda g: g.edges)
    check("Graph aggregation", "21",
          "CONSTRUCT (x GROUP e :Company {name:=e}) "
          "MATCH (n:Person {employer=e})",
          lambda g: len(g.nodes) == 4)
    check("Graph projection", "23",
          "CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p<:knows*>/->"
          "(m:Person) WHERE n.firstName = 'John'",
          lambda g: g.edges)
    check("Graph views", "39, 57",
          "GRAPH VIEW t1feat AS (CONSTRUCT (n) MATCH (n:Person))",
          lambda v: len(v.graph.nodes) == 5)
    check("Property addition", "41",
          "CONSTRUCT (n) SET n.flag := TRUE MATCH (n:Person)",
          lambda g: g.property(next(iter(g.nodes)), "flag") == {True})

    width = max(len(feature) for feature, _, _ in rows) + 2
    lines = ["Table 1 — G-CORE features, executed on the Figure 4 instance",
             ""]
    lines.append(f"{'Feature':<{width}}{'Lines':<12}Status")
    lines.append("-" * (width + 30))
    for feature, line_refs, status in rows:
        lines.append(f"{feature:<{width}}{line_refs:<12}{status}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Complexity — Section 4's tractability, measured
# ---------------------------------------------------------------------------

def _time_query(engine: GCoreEngine, query: str, repeats: int = 3) -> float:
    statement = engine.parse(query)
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        engine.run(statement)
        best = min(best, time.perf_counter() - start)
    return best


def _fit_slope(points: List[Tuple[float, float]]) -> float:
    logs = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    n = len(logs)
    sx = sum(x for x, _ in logs)
    sy = sum(y for _, y in logs)
    sxx = sum(x * x for x, _ in logs)
    sxy = sum(x * y for x, y in logs)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def report_complexity(sizes: Tuple[int, ...] = (25, 50, 100, 200)) -> str:
    """EXP-C1: log-log scaling of fixed queries + the NP-hard baseline."""
    queries = {
        "pattern matching":
            "CONSTRUCT (n)-[e:coFan]->(m) MATCH (n:Person)-[:hasInterest]->"
            "(t:Tag)<-[:hasInterest]-(m:Person)",
        "reachability":
            "CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) "
            "WHERE n.firstName = 'John'",
        "shortest paths":
            "CONSTRUCT (n)-/@p/->(m) MATCH (n:Person)-/p<:knows*>/->"
            "(m:Person) WHERE n.firstName = 'John'",
        "aggregation":
            "CONSTRUCT (x GROUP c {members := COUNT(*)}) "
            "MATCH (n:Person)-[:isLocatedIn]->(c)",
    }
    lines = ["Section 4 — data complexity, measured", ""]
    header = f"{'query':<18}" + "".join(f"{s:>10}" for s in sizes) + "   slope"
    lines.append(header + "   (ms per size; slope = log-log exponent)")
    lines.append("-" * len(header))
    for name, query in queries.items():
        points = []
        cells = []
        for size in sizes:
            engine = GCoreEngine()
            load("snb", scale=size).install(engine)
            elapsed = _time_query(engine, query)
            points.append((float(size), elapsed))
            cells.append(f"{elapsed * 1000:>10.1f}")
        slope = _fit_slope(points)
        lines.append(f"{name:<18}" + "".join(cells) + f"   {slope:5.2f}")
    lines.append("")
    lines.append("NP-hard baseline (simple-path enumeration on ladders with "
                 "2^k paths)")
    lines.append(f"{'rungs':<18}" + "".join(f"{r:>10}" for r in (6, 8, 10, 12, 14)))
    walk_cells, enum_cells = [], []
    for rungs in (6, 8, 10, 12, 14):
        builder = GraphBuilder()
        builder.add_node("n0")
        previous = "n0"
        for i in range(rungs):
            for suffix in ("t", "b"):
                builder.add_node(f"{suffix}{i}")
            builder.add_node(f"n{i+1}")
            builder.add_edge(previous, f"t{i}", edge_id=f"e{i}a", labels=["k"])
            builder.add_edge(previous, f"b{i}", edge_id=f"e{i}b", labels=["k"])
            builder.add_edge(f"t{i}", f"n{i+1}", edge_id=f"e{i}c", labels=["k"])
            builder.add_edge(f"b{i}", f"n{i+1}", edge_id=f"e{i}d", labels=["k"])
            previous = f"n{i+1}"
        graph = builder.build()
        nfa = compile_regex(ast.RStar(ast.RLabel("k")))
        start = time.perf_counter()
        count_simple_paths(graph, nfa, "n0", previous)
        enum_cells.append(f"{(time.perf_counter() - start) * 1000:>10.1f}")
        finder = PathFinder(graph, nfa)
        start = time.perf_counter()
        finder.shortest("n0", previous)
        walk_cells.append(f"{(time.perf_counter() - start) * 1000:>10.1f}")
    lines.append(f"{'simple paths (ms)':<18}" + "".join(enum_cells))
    lines.append(f"{'walk search (ms)':<18}" + "".join(walk_cells))
    return "\n".join(lines)


EXPERIMENTS: Dict[str, Callable[[], str]] = {
    "figure1": report_figure1,
    "figure2": report_figure2,
    "figure4": report_figure4,
    "figure5": report_figure5,
    "table1": report_table1,
    "complexity": report_complexity,
}


def run_experiment(name: str) -> str:
    """Run a single experiment by id and return its report text."""
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[name]()


def run_all() -> str:
    """Run every experiment; returns the concatenated reports."""
    parts = []
    for name in EXPERIMENTS:
        parts.append("#" * 72)
        parts.append(f"# {name}")
        parts.append("#" * 72)
        parts.append(run_experiment(name))
        parts.append("")
    return "\n".join(parts)
