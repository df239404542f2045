"""MATCH path-pattern evaluation: SHORTEST / k SHORTEST / ALL / reachability."""

from collections import Counter

import pytest

from repro import GCoreEngine, GraphBuilder
from repro.datasets import load
from repro.errors import ParseError, SemanticError
from repro.eval import match as match_module
from repro.eval import pathviews
from repro.fuzz import oracle
from repro.lang import ast
from repro.model.delta import GraphDelta
from repro.model.graph import PathPropertyGraph
from repro.paths.automaton import compile_regex
from repro.paths.product import PathFinder
from repro.paths.walk import Walk


@pytest.fixture()
def chain_engine():
    """a -k-> b -k-> c -k-> d plus shortcut a -k-> c."""
    b = GraphBuilder()
    for n in "abcd":
        b.add_node(n, labels=["N"], properties={"name": n})
    b.add_edge("a", "b", edge_id="ab", labels=["k"])
    b.add_edge("b", "c", edge_id="bc", labels=["k"])
    b.add_edge("c", "d", edge_id="cd", labels=["k"])
    b.add_edge("a", "c", edge_id="ac", labels=["k"])
    eng = GCoreEngine()
    eng.register_graph("g", b.build(), default=True)
    return eng


class TestShortest:
    def test_binds_walk_and_cost(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (a {name='a'})-/p<:k*> COST c/->(d {name='d'})"
        )
        assert len(table) == 1
        row = table.rows[0]
        assert isinstance(row["p"], Walk)
        assert row["p"].sequence == ("a", "ac", "c", "cd", "d")
        assert row["c"] == 2

    def test_cost_defaults_to_hop_count(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (a {name='a'})-/p<:k*> COST c/->(b {name='b'})"
        )
        assert table.rows[0]["c"] == 1

    def test_expands_unbound_target(self, chain_engine):
        table = chain_engine.bindings("MATCH (a {name='a'})-/p<:k*>/->(m)")
        assert {row["m"] for row in table} == {"a", "b", "c", "d"}

    def test_incoming_direction(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (d {name='d'})<-/p<:k*>/-(a {name='a'})"
        )
        (row,) = table.rows
        assert row["p"].source == "a" and row["p"].target == "d"

    def test_k_shortest_multiplicity(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (a {name='a'})-/2 SHORTEST p<:k*>/->(c {name='c'})"
        )
        costs = sorted(row["p"].cost for row in table)
        assert costs == [1, 2]  # a-c direct and a-b-c

    def test_k_larger_than_available(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (a {name='a'})-/5 SHORTEST p<:k*>/->(b {name='b'})"
        )
        assert len(table) == 1  # DAG: only one walk a->b

    def test_anonymous_path_with_cost_binds_the_cost(self, chain_engine):
        """``-/<r> COST c/->`` is SHORTEST, not a reachability test."""
        query = "MATCH (a {name='a'})-/<:k*> COST c/->(m)"
        table = chain_engine.bindings(query)
        assert sorted((row["m"], row["c"]) for row in table) == [
            ("a", 0), ("b", 1), ("c", 1), ("d", 2)
        ]
        assert set(table) == set(oracle.bindings(chain_engine, query))


class TestReachability:
    def test_filters_pairs(self, chain_engine):
        table = chain_engine.bindings(
            "MATCH (x {name='b'})-/<:k*>/->(y:N)"
        )
        assert {row["y"] for row in table} == {"b", "c", "d"}

    def test_no_path_variable_bound(self, chain_engine):
        table = chain_engine.bindings("MATCH (x {name='a'})-/<:k*>/->(y)")
        assert set(table.columns) == {"x", "y"}


class TestAllPaths:
    def test_handle_projection(self, chain_engine):
        g = chain_engine.run(
            "CONSTRUCT (a)-/p/->(d) "
            "MATCH (a {name='a'})-/ALL p<:k*>/->(d {name='d'})"
        )
        assert g.nodes == {"a", "b", "c", "d"}
        assert g.edges == {"ab", "bc", "cd", "ac"}
        assert g.paths == frozenset()  # projection, not storage

    def test_all_var_in_where_rejected(self, chain_engine):
        with pytest.raises(SemanticError):
            chain_engine.bindings(
                "MATCH (a)-/ALL p<:k*>/->(d) WHERE length(p) > 1"
            )

    def test_cost_on_all_rejected(self, chain_engine):
        text = "SELECT c MATCH (a)-/ALL p<:k*> COST c/->(d)"
        with pytest.raises(ParseError):
            chain_engine.run(text)
        assert [d.code for d in chain_engine.analyze(text)] == ["GC001"]

    def test_storing_all_rejected(self, chain_engine):
        with pytest.raises(SemanticError):
            chain_engine.run(
                "CONSTRUCT (a)-/@p/->(d) MATCH (a {name='a'})-/ALL p<:k*>/->(d)"
            )


class TestStoredPathMatch:
    def test_match_by_label(self, figure2_engine):
        table = figure2_engine.bindings("MATCH (x)-/@p:toWagner/->(y)")
        (row,) = table.rows
        assert row["p"] == 301 and row["x"] == 105 and row["y"] == 102

    def test_stored_path_direction(self, figure2_engine):
        table = figure2_engine.bindings("MATCH (x)<-/@p:toWagner/-(y)")
        (row,) = table.rows
        assert row["x"] == 102 and row["y"] == 105

    def test_no_label_matches_all_stored(self, figure2_engine):
        table = figure2_engine.bindings("MATCH (x)-/@p/->(y)")
        assert len(table) == 1

    def test_wrong_label_no_match(self, figure2_engine):
        assert len(figure2_engine.bindings("MATCH (x)-/@p:other/->(y)")) == 0

    def test_path_functions_on_stored(self, figure2_engine):
        table = figure2_engine.bindings(
            "MATCH (x)-/@p:toWagner/->(y) WHERE length(p) = 2"
        )
        assert len(table) == 1


# ---------------------------------------------------------------------------
# Work counts: one search per source, one materialization per graph epoch
# ---------------------------------------------------------------------------

@pytest.fixture()
def calls(monkeypatch):
    """Counts multi-target scans (k-scans and best-cost frontiers) per
    source and view materializations."""
    counts = Counter()

    def spy(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(PathFinder, "k_shortest_multi", lambda finder, source, *_: ("k", source))
    spy(PathFinder, "best_costs", lambda finder, source, *_: ("cost", source))
    spy(PathFinder, "all_paths_multi", lambda finder, source, *_: ("all", source))
    spy(PathFinder, "reachable_from", lambda finder, source: ("reach", source))
    spy(pathviews, "materialize_path_view", lambda clause, *_: ("view", clause.name))
    return counts


@pytest.fixture()
def roads():
    """s->a->t (weights 1, 1) and s->b->t (weights 10, 10) over 'road' edges."""
    b = GraphBuilder()
    for n in "sabt":
        b.add_node(n, labels=["N"], properties={"name": n})
    for edge, w in (("sa", 1), ("at", 1), ("sb", 10), ("bt", 10)):
        b.add_edge(edge[0], edge[1], edge_id=edge, labels=["road"], properties={"w": w})
    eng = GCoreEngine()
    eng.register_graph("roads", b.build(), default=True)
    return eng


ROUTE = "SELECT c MATCH (s {name='s'})-/p<~hop*> COST c/->(t {name='t'})"
HOP = "PATH hop = (x)-[e:road]->(y) COST e.w "


class TestWorkCounts:
    def test_k_shortest_scans_once_per_source(self, calls):
        """k3_stored's shape at snb100: bound targets share one scan."""
        eng = GCoreEngine()
        load("snb", scale=100, seed=42).install(eng)
        graph = eng.graph("snb")
        persons = sorted(n for n in graph.nodes if graph.has_label(n, "Person"))
        (last, _), = Counter(
            v for p in persons for v in graph.property(p, "lastName")
        ).most_common(1)
        (first2,) = graph.property(persons[0], "firstName")
        query = (
            "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) "
            f"WHERE n.lastName = '{last}' AND m.firstName = '{first2}'"
        )
        table = eng.bindings(query)
        sources = {p for p in persons if last in graph.property(p, "lastName")}
        assert len(sources) > 1 and len({row["m"] for row in table}) > 1
        assert calls == {("k", source): 1 for source in sources}
        # the per-target wrapper (property-tested against the oracle)
        finder = PathFinder(graph, compile_regex(ast.RStar(ast.RLabel("knows"))))
        targets = {p for p in persons if first2 in graph.property(p, "firstName")}
        assert len(table) == sum(
            len(finder.k_shortest(s, t, 3)) for s in sources for t in targets
        )

    def test_shortest_scans_once_per_source(self, calls):
        """shortest_cost's shape at snb100: SHORTEST is the k = 1 scan,
        one per distinct source for all of its bound targets."""
        eng = GCoreEngine()
        load("snb", scale=100, seed=42).install(eng)
        graph = eng.graph("snb")
        persons = sorted(n for n in graph.nodes if graph.has_label(n, "Person"))
        (last, _), = Counter(
            v for p in persons for v in graph.property(p, "lastName")
        ).most_common(1)
        query = (
            "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person) "
            f"WHERE n.lastName = '{last}' AND m.lastName = '{last}'"
        )
        table = eng.bindings(query)
        sources = {p for p in persons if last in graph.property(p, "lastName")}
        assert len(sources) > 1 and len({row["m"] for row in table}) > 1
        assert calls == {("k", source): 1 for source in sources}
        assert set(table) == set(oracle.bindings(eng, query))

    def test_all_with_open_target_runs_one_forward_pass_per_source(
        self, chain_engine, calls
    ):
        query = "MATCH (a:N)-/ALL p<:k*>/->(d)"
        table = chain_engine.bindings(query)
        assert calls == {("all", source): 1 for source in "abcd"}
        assert set(table) == set(oracle.bindings(chain_engine, query))
        assert chain_engine.bindings(query).rows == table.rows

    def test_target_anchored_reach_runs_no_forward_search(self, chain_engine, calls):
        """Rows binding only the target take their sources from one
        backward reach from that target and are emitted as they are."""
        query = "MATCH (x)-/<:k*>/->(y {name='c'})"
        plan = chain_engine.explain(f"SELECT x {query}")
        assert "backward" in plan, plan
        table = chain_engine.bindings(query)
        assert {row["x"] for row in table} == {"a", "b", "c"}
        assert calls == {("reach", "c"): 1}  # the backward reach alone
        assert set(table) == set(oracle.bindings(chain_engine, query))

    @pytest.mark.parametrize(
        "connector, search", [("-/<:k*>/->", "reach"), ("-/<:k*> COST c/->", "cost")],
        ids=["reach", "costs-only"],
    )
    def test_one_search_per_distinct_source(self, chain_engine, calls, connector, search):
        """Two rows per source (a's and b's out-edges are bound first)
        still run one search from each source."""
        query = f"MATCH (x:N)-[e:k]->(z), (x){connector}(y) WHERE x.name <> 'd'"
        table = chain_engine.bindings(query)
        assert calls == {(search, source): 1 for source in "abc"}
        assert set(table) == set(oracle.bindings(chain_engine, query))

    def test_closed_view_materializes_once_per_epoch(self, roads, calls):
        assert roads.run(HOP + ROUTE).rows == roads.run(HOP + ROUTE).rows
        assert calls == {("view", "hop"): 1, ("cost", "s"): 2}

    @pytest.mark.parametrize(
        "query, params",
        [
            ("PATH hop = (x)-[e:road]->(y) WHERE y.name <> $skip COST e.w "
             + ROUTE, {"skip": "b"}),
            ("PATH one = (x)-[e:road]->(y) COST e.w "
             "PATH hop = (x)-/q<~one>/->(y) " + ROUTE, None),
            ("PATH hop = (x)-[e:road]->(y) "
             "WHERE EXISTS (CONSTRUCT (z) MATCH (z {name='s'})) COST e.w "
             + ROUTE, None),
        ],
        ids=["param", "nested-view", "exists"],
    )
    def test_open_view_materializes_per_query(self, roads, calls, query, params):
        first = roads.run(query, params=params)
        assert roads.run(query, params=params).rows == first.rows
        assert first.rows and calls[("view", "hop")] == 2
        # a closed view it reads is still materialized once
        assert calls[("view", "one")] <= 1

    def test_oracle_materializes_per_query_outside_the_epoch_memo(
        self, roads, monkeypatch
    ):
        counts = Counter()
        materialize = oracle.materialize_path_view

        def counted(clause, *rest):
            counts[clause.name] += 1
            return materialize(clause, *rest)

        def untouchable(*_):
            raise AssertionError("the oracle read a graph's view memo")

        monkeypatch.setattr(oracle, "materialize_path_view", counted)
        with monkeypatch.context() as patch:
            patch.setattr(PathPropertyGraph, "epoch_memo", untouchable)
            first = oracle.run(roads, HOP + ROUTE)
            assert oracle.run(roads, HOP + ROUTE).rows == first.rows
        assert first.rows == roads.run(HOP + ROUTE).rows
        assert counts == {"hop": 2}

    def test_update_starts_a_new_epoch_snapshot_keeps_the_old(self, roads, calls):
        before = roads.run(HOP + ROUTE).rows
        snapshot = roads.snapshot()
        roads.apply_update("roads", GraphDelta().set_property("at", "w", 30))
        after = roads.run(HOP + ROUTE).rows
        assert calls == {("view", "hop"): 2, ("cost", "s"): 2}
        assert before != after
        assert snapshot.run(HOP + ROUTE).rows == before
        assert calls == {("view", "hop"): 2, ("cost", "s"): 3}

    def test_reregistered_catalog_view_misses(self, roads, calls):
        roads.register_path_view(HOP)
        cheap = roads.run(ROUTE).rows
        roads.register_path_view("PATH hop = (x)-[e:road]->(y) COST e.w + 1")
        assert roads.run(ROUTE).rows != cheap
        assert calls == {("view", "hop"): 2, ("cost", "s"): 2}


# ---------------------------------------------------------------------------
# A walk or cost variable two patterns name binds one value
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def snb12():
    """snb at scale 12, plus ``near``: its 3 shortest knows-walks between
    persons stored as ``:near`` paths."""
    eng = GCoreEngine()
    load("snb", scale=12, seed=42).install(eng)
    eng.register_graph("near", eng.run(
        "CONSTRUCT (n)-/@p:near{distance:=c}/->(m) "
        "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person)"
    ))
    return eng


SHARED_VARS = {
    "cost": "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person), "
    "(n)-[:knows]->(x:Person)-/q<:knows*> COST c/->(m)",
    "walk": "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person), "
    "(n)-[:knows]->(x:Person), (y:Person)-/p<:knows*>/->(m)",
    "stored-cost": "MATCH (n)-/@p:near COST c/->(m), (m)-/@q:near COST c/->(x) ON near",
}


class TestSharedPathVariables:
    @pytest.mark.parametrize("shared", sorted(SHARED_VARS))
    def test_shared_variable_joins_like_the_oracle(self, snb12, shared):
        table = snb12.bindings(SHARED_VARS[shared])
        assert len(table) > 1
        assert set(table) == set(oracle.bindings(snb12, SHARED_VARS[shared]))


# ---------------------------------------------------------------------------
# Unread walks: SHORTEST rebuilds no walk the statement never reads
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def snb():
    eng = GCoreEngine()
    load("snb", scale=100, seed=42).install(eng)
    return eng


@pytest.fixture()
def rebuilt(monkeypatch):
    """Every walk PathFinder._walk rebuilds while the test runs."""
    walks = []
    rebuild = PathFinder._walk

    def counted(*args):
        walks.append(rebuild(*args))
        return walks[-1]

    monkeypatch.setattr(PathFinder, "_walk", staticmethod(counted))
    return walks


PERSON = "n.firstName = $first AND n.lastName = $last"
#: The shortest_cost and weighted_view classes of the end-to-end benchmark.
UNREAD = {
    "shortest_cost": "SELECT m.firstName AS first, m.lastName AS last, c AS hops "
    "MATCH (n:Person)-/p<:knows*> COST c/->(m:Person) WHERE " + PERSON,
    "weighted_view": "PATH wKnows = (x:Person)-[e:knows]->(y:Person) COST 2 "
    "SELECT m.firstName AS first, m.lastName AS last, c AS total "
    "MATCH (n:Person)-/p<~wKnows*> COST c/->(m:Person) WHERE " + PERSON,
}


def _person(snb):
    graph = snb.graph("snb")
    person = min(n for n in graph.nodes if graph.has_label(n, "Person"))
    (first,), (last,) = graph.property(person, "firstName"), graph.property(person, "lastName")
    return {"first": first, "last": last}


class TestUnreadWalks:
    @pytest.mark.parametrize("shape", sorted(UNREAD))
    def test_unread_walk_is_never_rebuilt(self, snb, rebuilt, shape):
        prepared = snb.prepare(UNREAD[shape])
        assert prepared.unread_paths == {"p"}
        rows = prepared.run(params=_person(snb)).rows
        assert len(rows) > 1 and rebuilt == []
        reading = UNREAD[shape].replace(" MATCH", ", p AS walk MATCH")
        assert [row[:-1] for row in snb.run(reading, params=_person(snb)).rows] == list(rows)
        assert len(rebuilt) == len(rows)

    @pytest.mark.parametrize(
        "query",
        [
            UNREAD["shortest_cost"].replace("c AS hops", "length(p) AS hops"),
            # k3_stored
            "CONSTRUCT (n)-/@p:near{distance:=c}/->(m) "
            "MATCH (n:Person)-/3 SHORTEST p<:knows*> COST c/->(m:Person) WHERE " + PERSON,
            # a CONSTRUCT groups by every column, the walk's included
            "CONSTRUCT (m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE " + PERSON,
            "SELECT COUNT(*) AS rows MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE " + PERSON,
        ],
        ids=["read", "k3_stored", "construct", "count-star"],
    )
    def test_walks_are_rebuilt_where_read(self, snb, rebuilt, query):
        assert snb.prepare(query).unread_paths == frozenset()
        snb.run(query, params=_person(snb))
        assert rebuilt


# ---------------------------------------------------------------------------
# Finder sharing: one PathFinder per (graph epoch, regex, closed views)
# ---------------------------------------------------------------------------

@pytest.fixture()
def finders(monkeypatch):
    """Every PathFinder constructed while the test runs."""
    built = []
    init = PathFinder.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PathFinder, "__init__", counted)
    return built


def _memo_sizes(graph):
    """The epoch memo's entry count and each finder's move-memo size."""
    memo = graph._epoch_memo
    return len(memo), sorted(
        len(value._moves) for value in memo.values() if isinstance(value, PathFinder)
    )


@pytest.fixture()
def knows_engine():
    """a -> b -> c -> a over 'knows', and d unreachable."""
    b = GraphBuilder()
    for n in "abcd":
        b.add_node(n, labels=["N"], properties={"name": n})
    for edge in ("ab", "bc", "ca"):
        b.add_edge(edge[0], edge[1], edge_id=edge, labels=["knows"])
    eng = GCoreEngine()
    eng.register_graph("g", b.build(), default=True)
    return eng


SHARED = [
    ("chain_engine", "SELECT a, d MATCH (a:N)-/<:k*>/->(d)"),
    ("chain_engine", "SELECT d, c MATCH (a {name='a'})-/p<:k*> COST c/->(d)"),
    ("chain_engine", "SELECT a, c MATCH (a:N)-/3 SHORTEST p<:k*> COST c/->(d {name='d'})"),
    ("chain_engine", "SELECT a, d MATCH (a:N)-/ALL p<:k*>/->(d)"),
    ("chain_engine", "SELECT a MATCH (a)-/<:k*>/->(d {name='d'})"),  # backward
    ("roads", HOP + ROUTE),
]

#: One statement per search mode, over knows_engine.
KNOWS = [
    "SELECT x.name AS x MATCH (a {name='a'})-/<:knows*>/->(x)",
    "SELECT x.name AS x, c AS c MATCH (a {name='a'})-/p<:knows*> COST c/->(x)",
    "SELECT x.name AS x, c AS c "
    "MATCH (a {name='a'})-/3 SHORTEST p<:knows*> COST c/->(x)",
]


class TestFinderSharing:

    @pytest.mark.parametrize("fixture, query", SHARED)
    def test_second_run_on_an_unchanged_epoch_builds_nothing(
        self, request, finders, fixture, query
    ):
        engine = request.getfixturevalue(fixture)
        (name,) = engine.catalog.graph_names()
        graph = engine.graph(name)
        first = engine.run(query)
        assert finders and first.rows
        sizes = _memo_sizes(graph)
        finders.clear()
        assert engine.run(query).rows == first.rows
        assert finders == [] and _memo_sizes(graph) == sizes

    def test_view_with_a_param_gets_a_fresh_finder_every_run(self, roads, finders):
        query = "PATH hop = (x)-[e:road]->(y) WHERE y.name <> $skip COST e.w " + ROUTE
        answers = []
        for _ in range(2):
            finders.clear()
            answers.append(roads.run(query, params={"skip": "b"}).rows)
            assert len(finders) == 1
        assert answers[0] == answers[1] and answers[0]
        memo = roads.graph("roads")._epoch_memo.values()
        assert not any(isinstance(value, PathFinder) for value in memo)

    def test_pinned_snapshot_keeps_its_finders_answers(self, knows_engine, finders):
        before = [knows_engine.run(query).rows for query in KNOWS]
        snapshot = knows_engine.snapshot()
        knows_engine.apply_update(
            "g", GraphDelta().add_edge("cd", "c", "d", labels=["knows"])
        )
        after = [knows_engine.run(query).rows for query in KNOWS]
        finders.clear()
        assert [snapshot.run(query).rows for query in KNOWS] == before
        assert finders == []  # the pinned epoch's finders answered
        assert all("d" in {row[0] for row in rows} for rows in after)
        assert not any("d" in {row[0] for row in rows} for rows in before)


def test_nfa_cache_stays_within_its_bound():
    match_module._NFA_CACHE.clear()
    for index in range(match_module._NFA_SLOTS + 10):
        regex = ast.RStar(ast.RLabel(f"l{index}"))
        assert match_module._NFA_CACHE.get(regex) is None
        assert match_module._nfa_for(regex) is match_module._NFA_CACHE[regex]
        assert len(match_module._NFA_CACHE) <= match_module._NFA_SLOTS
