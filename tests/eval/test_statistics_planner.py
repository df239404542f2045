"""Coverage for the statistics layer, the cost-based planner and the
prepared-query plan cache."""

import pytest

from repro.engine import GCoreEngine, PreparedQuery
from repro.errors import EvaluationError
from repro.datasets import load
from repro.eval import match as match_module
from repro.eval.match import block_atoms
from repro.eval.planner import (
    PlanCache,
    estimate_cardinality,
    plan_atoms,
    plan_block,
)
from repro.lang.parser import parse_query
from repro.model.statistics import DEFAULT_SELECTIVITY


def chain_atoms(text):
    """The atoms of ``MATCH text`` (one or more patterns)."""
    block = parse_query(f"CONSTRUCT (x) MATCH {text}").body.match.block
    return block_atoms(block)


def on(graph, atoms):
    """The graph list putting every pattern of *atoms* ON *graph*."""
    return [graph] * (1 + max(atom.slot for atom in atoms))


def order_atoms(atoms, graph, bound=()):
    """The planned order of a WHERE-less block of *atoms*, all ON *graph*
    (its pattern tests priced as pushed conjuncts)."""
    plan = plan_block(atoms, on(graph, atoms), None, bound, ())
    return [step.atom for step in plan.steps]


def described(atoms, graph):
    """The plan of a WHERE-less block of *atoms*, all ON *graph*."""
    return plan_block(atoms, on(graph, atoms), None, (), ())


def shape(atoms):
    """A plan as readable tokens: node atoms by variable, others by kind."""
    return [a.var if a.kind == "node" else a.kind for a in atoms]


@pytest.fixture(scope="module")
def snb():
    """SNB engines by scale (the benchmark's generator and data seed)."""
    engines = {}

    def at(scale):
        if scale not in engines:
            engines[scale] = GCoreEngine()
            load("snb", scale=scale, seed=42).install(engines[scale])
        return engines[scale]

    return at


class TestGraphStatistics:
    def test_totals_match_graph(self, social):
        stats = social.statistics()
        assert stats.node_count == len(social.nodes)
        assert stats.edge_count == len(social.edges)
        assert stats.path_count == len(social.paths)

    def test_label_counts_match_indexes(self, social):
        stats = social.statistics()
        for label in ("Person", "Tag", "City"):
            assert stats.node_label_counts[label] == len(
                social.nodes_with_label(label)
            )
        for label in ("knows", "hasInterest"):
            assert stats.edge_label_count(label) == len(
                social.edges_with_label(label)
            )

    def test_statistics_cached_on_graph(self, social):
        assert social.statistics() is social.statistics()

    def test_avg_degree(self, social):
        stats = social.statistics()
        knows = len(social.edges_with_label("knows"))
        assert stats.avg_out_degree("knows") == pytest.approx(
            knows / len(social.nodes)
        )

    def test_property_selectivity_bounds(self, social):
        stats = social.statistics()
        sel = stats.property_selectivity("node", "firstName")
        assert 0.0 < sel <= 1.0
        assert (
            stats.property_selectivity("node", "no-such-key")
            == DEFAULT_SELECTIVITY
        )

    def test_label_selectivity_disjunction(self, social):
        stats = social.statistics()
        persons = stats.node_label_counts["Person"]
        tags = stats.node_label_counts["Tag"]
        sel = stats.label_selectivity("node", (("Person", "Tag"),))
        assert sel == pytest.approx((persons + tags) / stats.node_count)

    def test_empty_graph_statistics(self):
        from repro.model.setops import empty_graph

        stats = empty_graph().statistics()
        assert stats.node_count == 0
        assert stats.label_selectivity("node", (("X",),)) == 0.0
        assert stats.avg_out_degree() == 0.0

    def test_describe_mentions_labels(self, social):
        text = social.statistics().describe()
        assert "Person" in text and "knows" in text

    def test_label_reach_fraction(self, social):
        stats = social.statistics()
        fraction = stats.label_reach_fraction("knows")
        targets = {social.endpoints(e)[1] for e in social.edges_with_label("knows")}
        assert fraction == pytest.approx(len(targets) / stats.node_count)
        assert stats.label_reach_fraction("no-such-label") == 0.0
        # An inverse step (knows^) enters the sources of knows edges.
        sources = {social.endpoints(e)[0] for e in social.edges_with_label("knows")}
        assert stats.label_reach_fraction("knows", inverse=True) == pytest.approx(
            len(sources) / stats.node_count
        )

    def test_reachability_estimate_modes(self, social):
        stats = social.statistics()
        # Unknown label set: the default fraction of the graph.
        assert stats.reachability_estimate(None) == pytest.approx(
            max(stats.node_count * 0.5, 1.0)
        )
        # No edge traversal at all: only the source itself.
        assert stats.reachability_estimate(frozenset()) == 1.0
        # Labeled: bounded by the label's entered-node set.
        labeled = stats.reachability_estimate(frozenset({("knows", False)}))
        assert labeled == pytest.approx(
            max(
                stats.node_count * stats.label_reach_fraction("knows"), 1.0
            )
        )
        assert labeled <= stats.node_count

    def test_path_estimate_uses_regex_labels(self, social):
        # A labeled path pattern must get a tighter (or equal) fan
        # estimate than an unconstrained -/p/-> pattern.
        stats = social.statistics()
        labeled_atom = chain_atoms("(x)-/p <:knows*>/->(y)")[2]
        bare_atom = chain_atoms("(x)-/q/->(y)")[2]
        labeled = estimate_cardinality(labeled_atom, {"x"}, stats)
        bare = estimate_cardinality(bare_atom, {"x"}, stats)
        assert labeled <= bare

    def test_explain_reports_path_strategy(self, social):
        for text, strategy in [
            ("(x)-/p <:knows*>/->(y)", "bfs"),
            ("(x)-/<:knows*>/->(y)", "reach"),
            ("(x)-/ALL p <:knows*>/->(y)", "projection"),
        ]:
            atoms = chain_atoms(text)
            plan = described(atoms, social)
            assert f"strategy={strategy},batched" in plan.describe(on(social, atoms))


class TestCardinalityEstimates:
    """Estimates vs. actual cardinalities on the paper's instances."""

    def test_label_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        (atom,) = chain_atoms("(n:Person)")
        estimate = estimate_cardinality(atom, set(), stats)
        actual = len(social.nodes_with_label("Person"))
        assert estimate == pytest.approx(actual)

    def test_unconstrained_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        (atom,) = chain_atoms("(n)")
        assert estimate_cardinality(atom, set(), stats) == pytest.approx(
            len(social.nodes)
        )

    def test_edge_scan_estimate_is_exact(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-[e:knows]->(b)")
        edge = next(a for a in atoms if a.kind == "edge")
        # No endpoint bound: the estimate is the matching-edge count.
        assert estimate_cardinality(edge, set(), stats) == pytest.approx(
            len(social.edges_with_label("knows"))
        )

    def test_bound_endpoint_shrinks_estimate(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-[e:knows]->(b)")
        edge = next(a for a in atoms if a.kind == "edge")
        unbound = estimate_cardinality(edge, set(), stats)
        one_bound = estimate_cardinality(edge, {"a"}, stats)
        both_bound = estimate_cardinality(edge, {"a", "b"}, stats)
        assert unbound > one_bound > both_bound

    def test_property_test_shrinks_estimate(self, social):
        # A pattern test is a pushed conjunct, priced by the block's plan.
        (plain,) = chain_atoms("(n:Person)")
        (tested,) = chain_atoms("(n:Person {employer='Acme'})")
        [plain_step] = described([plain], social).steps
        [tested_step] = described([tested], social).steps
        assert tested_step.estimate < plain_step.estimate

    def test_unbound_path_source_is_penalized(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a)-/p<:knows*>/->(b)")
        path = next(a for a in atoms if a.kind == "path")
        assert estimate_cardinality(path, set(), stats) > estimate_cardinality(
            path, {"a"}, stats
        )


class TestEdgeFanEstimates:
    """One endpoint bound, one label: the fan is averaged over the nodes
    that have such edges at all (``fan_out`` / ``fan_in``), not over all."""

    def edge(self, text):
        return next(a for a in chain_atoms(text) if a.kind == "edge")

    def test_paper_instance(self, social):
        stats = social.statistics()
        knows = social.edges_with_label("knows")
        sources = {social.endpoints(e)[0] for e in knows}
        targets = {social.endpoints(e)[1] for e in knows}
        out = self.edge("(a)-[:knows]->(b)")
        assert estimate_cardinality(out, {"a"}, stats) == pytest.approx(
            len(knows) / len(sources)
        )
        assert estimate_cardinality(out, {"b"}, stats) == pytest.approx(
            len(knows) / len(targets)
        )
        # (a)<-[:knows]-(b): a is the target side.
        incoming = self.edge("(a)<-[:knows]-(b)")
        assert estimate_cardinality(incoming, {"a"}, stats) == pytest.approx(
            len(knows) / len(targets)
        )
        both = self.edge("(a)-[:knows]-(b)")
        assert estimate_cardinality(both, {"a"}, stats) == pytest.approx(
            len(knows) / len(sources) + len(knows) / len(targets)
        )

    def test_snb100_fans(self, snb):
        graph = snb(100).catalog.graph("snb")
        stats = graph.statistics()
        persons = stats.node_label_counts["Person"]
        cities = stats.node_label_counts["City"]
        knows = self.edge("(a)-[:knows]->(b)")
        located = self.edge("(a)-[:isLocatedIn]->(b)")
        assert estimate_cardinality(knows, {"a"}, stats) == pytest.approx(
            stats.fan_out("knows")
        )
        # Every person lives in one city: entering from the city side
        # fans out to persons/cities, two orders above edges/nodes.
        in_fan = estimate_cardinality(located, {"b"}, stats)
        assert in_fan == pytest.approx(persons / cities)
        assert in_fan > 50 * stats.avg_out_degree("isLocatedIn")
        assert estimate_cardinality(located, {"a"}, stats) == pytest.approx(1.0)

    def test_multi_label_and_unlabeled_keep_the_uniform_fan(self, social):
        stats = social.statistics()
        for text in ("(a)-[e]->(b)", "(a)-[:knows|hasInterest]->(b)"):
            edge = self.edge(text)
            matching = estimate_cardinality(edge, set(), stats)
            assert estimate_cardinality(edge, {"a"}, stats) == pytest.approx(
                matching / stats.node_count
            )


class TestBlockPlansAtScale:
    """The planner contract on the benchmark's SNB graphs."""

    PERSON = "n.firstName = $first AND n.lastName = $last"

    def plan(self, engine, text):
        lines = engine.explain(f"SELECT n.firstName AS x MATCH {text}").splitlines()
        return [
            line.split("binds=")[1] if line.split()[0] == "node" else line.split()[0]
            for line in lines
            if line.split()[0] in ("node", "edge", "path")
        ]

    def test_chains_expand_outward_from_the_selective_node(self, snb):
        engine = snb(100)
        hop = "-[:knows]->"
        assert self.plan(
            engine, f"(n:Person){hop}(m:Person) WHERE {self.PERSON}"
        ) == ["['n']", "edge", "['m']"]
        assert self.plan(
            engine, f"(n:Person){hop}(m:Person){hop}(f:Person) WHERE {self.PERSON}"
        ) == ["['n']", "edge", "['m']", "edge", "['f']"]
        assert self.plan(
            engine,
            f"(n:Person){hop}(m:Person){hop}(f:Person){hop}(g:Person) "
            f"WHERE {self.PERSON}",
        ) == ["['n']", "edge", "['m']", "edge", "['f']", "edge", "['g']"]

    def test_unfiltered_single_edge_is_not_a_product(self, snb):
        # ROADMAP item 1's example: node x, node y, edge = |Person|^2 rows.
        assert self.plan(snb(100), "(n:Person)-[e:knows]->(y:Person)") == [
            "['n']", "edge", "['y']",
        ]

    def test_two_hop_peak_table_does_not_grow_with_the_graph(self, snb, monkeypatch):
        text = (
            "SELECT f.firstName AS first MATCH "
            f"(n:Person)-[:knows]->(m:Person)-[:knows]->(f:Person) WHERE {self.PERSON}"
        )
        original = match_module.run_atom_sequence
        sizes = []

        def one_atom_at_a_time(steps, graphs, table, *rest):
            for step in steps:
                table = original([step], graphs, table, *rest)
                sizes.append(len(table))
            return table

        monkeypatch.setattr(match_module, "run_atom_sequence", one_atom_at_a_time)
        peaks = {}
        for scale in (100, 200):
            engine = snb(scale)
            graph = engine.catalog.graph("snb")
            persons = sorted(graph.nodes_with_label("Person"))
            peak = 0
            for person in persons[:: len(persons) // 10]:
                (first,) = graph.property(person, "firstName")
                (last,) = graph.property(person, "lastName")
                del sizes[:]
                engine.run(text, params={"first": first, "last": last})
                peak = max(peak, max(sizes))
                # never more than 10x the block's final binding table
                assert max(sizes) <= 10 * max(sizes[-1], 1)
            peaks[scale] = peak
        assert peaks[200] <= 2.6 * peaks[100]


class TestCostBasedOrdering:
    def test_selective_tag_runs_first(self, social):
        atoms = chain_atoms("(n:Person)-[:hasInterest]->(t:Tag {name='Wagner'})")
        ordered = order_atoms(atoms, social)
        assert ordered[0].kind == "node" and ordered[0].var == "t"

    def test_plan_steps_record_selection_time_estimates(self, social):
        stats = social.statistics()
        atoms = chain_atoms("(a:Person)-[e:knows]->(b)")
        steps = plan_atoms(atoms, on(social, atoms), set())
        bound, rows = set(), 1.0
        for step in steps:
            assert step.estimate == pytest.approx(
                estimate_cardinality(step.atom, bound, stats)
            )
            rows *= step.estimate
            assert step.rows == pytest.approx(rows)
            bound |= step.atom.binds()

    def test_explain_steps_shows_estimates(self, social):
        atoms = chain_atoms("(a:Person)-[e]->(b)")
        text = described(atoms, social).describe(on(social, atoms))
        assert "est~" in text and "rows~" in text
        assert "node" in text and "edge" in text

    def test_explain_steps_without_graph_shows_no_estimates(self):
        # Syntax order is the only order that needs no statistics.
        atoms = chain_atoms("(a:Person)-[e]->(b)")
        text = described(atoms, None).describe(on(None, atoms))
        assert "binds=" in text and "est~" not in text and "rows~" not in text

    def test_stale_scores_cannot_survive_a_step(self, social):
        # The regression behind the old lazy heap: binding n makes the
        # edge cheap, and that must be seen before the unbound node m.
        atoms = chain_atoms("(n:Person {firstName='John'})-[:knows]->(m:Person)")
        assert shape(order_atoms(atoms, social)) == ["n", "edge", "m"]

    def test_row_dependent_test_keeps_syntax_position(self, engine, social):
        # m's property test reads n: a conjunct of the block, applied
        # once both are bound, whatever order the planner picks.
        text = "(n:Person), (m:Person {firstName = n.firstName})"
        assert len(engine.bindings(f"MATCH {text}")) == 5

    def test_same_bindings_in_every_allowed_order(self, engine):
        from atom_orders import check_block_orders

        from repro.eval.context import EvalContext
        from repro.lang.lexer import tokenize
        from repro.lang.parser import Parser

        for text in (
            "MATCH (n:Person)-[:hasInterest]->(t:Tag), (n)-[e:knows]->(m) "
            "WHERE (m:Person)",
            # e2e's wagner_fans_friends: syntax order opens with a full scan.
            "MATCH (m), (n:Person)-[:hasInterest]->(t:Tag {name='Wagner'}), "
            "(n)-[:knows]->(m) WHERE (m:Person)",
        ):
            parser = Parser(tokenize(text))
            clause = parser._match_clause()
            parser.expect_eof()
            assert len(engine.bindings(text))
            assert check_block_orders(clause.block, EvalContext(engine.catalog)) > 1


class TestPlanCache:
    def test_run_twice_hits(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        engine.run(query)
        before = engine.plan_cache_info()
        engine.run(query)
        after = engine.plan_cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_cached_result_identical(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'"
        first = engine.run(query)
        second = engine.run(query)
        assert first == second

    def test_is_plan_cached(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Tag)"
        assert not engine.is_plan_cached(query)
        engine.run(query)
        assert engine.is_plan_cached(query)
        engine.clear_plan_cache()
        assert not engine.is_plan_cached(query)

    def test_register_graph_keeps_prepared_queries(self, engine, tiny_graph):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        engine.run(query)
        assert engine.is_plan_cached(query)
        engine.register_graph("tiny", tiny_graph)
        assert engine.is_plan_cached(query)

    def test_set_default_graph_keeps_prepared_queries(self, engine):
        """Names resolve per run: the cached statement reads the new
        default graph."""
        query = "CONSTRUCT (n) MATCH (n:Person)"
        assert engine.run(query).nodes
        engine.set_default_graph("company_graph")
        assert engine.is_plan_cached(query)
        assert not engine.run(query).nodes

    def test_invalidation_changes_result(self, engine, tiny_graph):
        """Rebinding the default graph must not replay a stale plan."""
        query = "CONSTRUCT (n) MATCH (n)"
        on_social = engine.run(query)
        engine.register_graph("tiny", tiny_graph, default=True)
        engine.set_default_graph("tiny")
        on_tiny = engine.run(query)
        assert on_tiny.nodes == tiny_graph.nodes
        assert on_social.nodes != on_tiny.nodes

    def test_lru_eviction(self, engine):
        engine.PLAN_CACHE_SIZE = 4
        try:
            for index in range(6):
                engine.run(f"CONSTRUCT (n {{i := {index}}}) MATCH (n:Tag)")
            assert engine.plan_cache_info()["size"] == 4
        finally:
            del engine.PLAN_CACHE_SIZE  # restore the class default

    def test_ast_input_bypasses_cache(self, engine):
        statement = engine.parse("CONSTRUCT (n) MATCH (n:Tag)")
        before = engine.plan_cache_info()
        engine.run(statement)
        after = engine.plan_cache_info()
        assert before["size"] == after["size"]

    def test_plan_cache_identity_guard(self, social):
        cache = PlanCache(maxsize=2)
        site, other = object(), object()
        cache.store(site, ("a",), (social,), [0, 1])
        assert cache.lookup(site, ("a",), (social,)) == [0, 1]
        assert cache.lookup(other, ("a",), (social,)) is None
        assert cache.hits == 1 and cache.misses == 1

    def test_plan_cache_evicts_oldest(self, social):
        cache = PlanCache(maxsize=2)
        sites = [object() for _ in range(3)]
        for index, site in enumerate(sites):
            cache.store(site, (), (social,), [index])
        assert len(cache) == 2
        assert cache.lookup(sites[0], (), (social,)) is None


class TestPreparedQuery:
    def test_prepare_returns_same_object(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        assert engine.prepare(query) is engine.prepare(query)

    def test_prepared_run_counts_executions(self, engine):
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        prepared.run()
        prepared.run()
        assert prepared.executions == 2

    def test_param_slots_collected(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) "
            "WHERE n.employer = $company AND n.firstName = $name"
        )
        assert prepared.param_names == {"company", "name"}

    def test_missing_params_rejected(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $company"
        )
        with pytest.raises(EvaluationError, match="company"):
            prepared.run()

    def test_params_change_results(self, engine):
        prepared = engine.prepare(
            "CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = $company"
        )
        acme = prepared.run(params={"company": "Acme"})
        hal = prepared.run(params={"company": "HAL"})
        assert acme.nodes == {"john", "alice"}
        assert hal.nodes == {"celine"}

    def test_prepared_survives_invalidation(self, engine, tiny_graph):
        """A held PreparedQuery stays runnable after catalog changes."""
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        before = prepared.run()
        engine.register_graph("tiny", tiny_graph)
        after = prepared.run()
        assert before == after

    def test_explain_mentions_cache_state(self, engine):
        query = "CONSTRUCT (n) MATCH (n:Person)"
        assert "plan: cold" in engine.explain(query)
        engine.run(query)
        assert "plan: cached" in engine.explain(query)

    def test_repr(self, engine):
        prepared = engine.prepare("CONSTRUCT (n) MATCH (n:Person)")
        assert isinstance(prepared, PreparedQuery)
        assert "PreparedQuery" in repr(prepared)
