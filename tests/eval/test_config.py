"""ExecutionConfig: validation, wire forms, lattice parity, API plumbing.

The mode-lattice value itself (:mod:`repro.config`), result parity of
its two points with the oracle on the guided-tour statements, the EXPLAIN sketch per lattice point,
prepared-query config overrides, ``NAIVE_CONFIG`` rejected by every
engine entry point, and the REPL ``.config`` command.
"""

import dataclasses

import pytest

from repro import (
    DEFAULT_CONFIG,
    NAIVE_CONFIG,
    ExecutionConfig,
    GCoreEngine,
    ValidationError,
)
from repro.__main__ import ShellState, _parse_config_args, handle_command
from repro.datasets import company_graph, orders_table, social_graph
from repro.fuzz import oracle
from repro.fuzz.differential import diff_outcomes, run_case

#: The whole lattice: 2 planners.
LATTICE = [ExecutionConfig(planner=planner) for planner in ("cost", "naive")]

#: Guided-tour statements (Section 3) covering joins across graphs,
#: reachability / shortest / ALL paths, OPTIONAL, grouping and CONSTRUCT.
TOUR_STATEMENTS = [
    "CONSTRUCT (n) MATCH (n:Person) ON social_graph WHERE n.employer = 'Acme'",
    "CONSTRUCT (c)<-[:worksAt]-(n) MATCH (c:Company) ON company_graph, "
    "(n:Person) ON social_graph WHERE c.name = n.employer UNION social_graph",
    "SELECT c.name AS company, n.firstName AS first "
    "MATCH (c:Company) ON company_graph, (n:Person {employer=e}) "
    "ON social_graph WHERE c.name = e",
    "CONSTRUCT (n)-/@p:localPeople{distance:=c}/->(m) "
    "MATCH (n)-/3 SHORTEST p <:knows*> COST c/->(m) "
    "WHERE (n:Person) AND (m:Person) AND n.firstName = 'John'",
    "SELECT m.firstName AS first MATCH (n:Person)-/<:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND (n)-[:isLocatedIn]->()<-[:isLocatedIn]-(m)",
    "CONSTRUCT (n)-/p/->(m) MATCH (n:Person)-/ALL p <:knows*>/->(m:Person) "
    "WHERE n.firstName = 'John' AND m.firstName = 'Celine'",
    "SELECT n.firstName AS first, t.name AS tag MATCH (n:Person) "
    "OPTIONAL (n)-[:hasInterest]->(t:Tag)",
    "SELECT n.employer AS employer, COUNT(*) AS staff MATCH (n:Person) "
    "GROUP BY n.employer",
]


def make_engine():
    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    engine.register_graph("company_graph", company_graph())
    engine.register_table("orders", orders_table())
    return engine


class TestValidation:
    def test_planner_is_the_only_field(self):
        assert tuple(f.name for f in dataclasses.fields(ExecutionConfig)) == (
            "planner",
        )

    def test_default_is_the_cost_planner(self):
        assert DEFAULT_CONFIG == ExecutionConfig(planner="cost")

    def test_naive_config_is_no_lattice_point(self):
        assert not isinstance(NAIVE_CONFIG, ExecutionConfig)
        for config in LATTICE:
            assert NAIVE_CONFIG != config and config != NAIVE_CONFIG

    @pytest.mark.parametrize(
        "axis,value",
        [
            ("planner", "speedy"),
            ("planner", "greedy"),
        ],
    )
    def test_invalid_axis_value_raises(self, axis, value):
        with pytest.raises(ValidationError, match=axis):
            ExecutionConfig(**{axis: value})

    def test_with_validates_like_the_constructor(self):
        assert DEFAULT_CONFIG.with_(planner="naive").planner == "naive"
        with pytest.raises(ValidationError):
            DEFAULT_CONFIG.with_(planner="bogus")

    def test_config_is_frozen_and_hashable(self):
        config = ExecutionConfig(planner="naive")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.planner = "cost"
        assert hash(config) == hash(ExecutionConfig(planner="naive"))


class TestWireForm:
    def test_json_roundtrip(self):
        config = ExecutionConfig(planner="naive")
        assert ExecutionConfig.from_json(config.to_json()) == config

    def test_wire_form_is_the_planner_alone(self):
        assert ExecutionConfig(planner="naive").to_json() == {"planner": "naive"}

    def test_none_and_empty_mean_default(self):
        assert ExecutionConfig.from_json(None) == DEFAULT_CONFIG
        assert ExecutionConfig.from_json({}) == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "raw",
        [
            {"bogus": 1},
            {"expressions": "interpreted"},
            {"paths": "naive"},
            {"view_refresh": "full"},
            {"executor": "reference"},
            {"executor": "columnar"},
            {"parallelism": 2},
            {"parallelism": "serial"},
        ],
    )
    def test_unknown_and_removed_keys_raise(self, raw):
        with pytest.raises(ValidationError, match="unknown") as caught:
            ExecutionConfig.from_json(raw)
        assert "expected a subset of planner" in str(caught.value)

    def test_removed_planner_value_raises(self):
        with pytest.raises(ValidationError, match="planner"):
            ExecutionConfig.from_json({"planner": "greedy"})

    def test_non_object_raises(self):
        with pytest.raises(ValidationError):
            ExecutionConfig.from_json("cost")

    def test_describe_lists_every_axis(self):
        assert DEFAULT_CONFIG.describe() == "planner=cost"
        assert ExecutionConfig(planner="naive").describe() == "planner=naive"


class TestLatticeParity:
    @pytest.mark.parametrize("query", TOUR_STATEMENTS)
    def test_every_point_returns_the_oracle_result(self, query):
        engine = make_engine()
        oracle = run_case(engine, query, config=NAIVE_CONFIG)
        assert oracle.kind in ("table", "graph"), oracle
        for config in LATTICE:
            actual = run_case(engine, query, config=config)
            assert diff_outcomes(oracle, actual) is None, config.describe()


class TestExplain:
    QUERY = (
        "SELECT m.firstName AS first "
        "MATCH (n:Person)-[:knows]->(m:Person)-/p <:knows*>/->(o:Tag) "
        "WHERE n.firstName = 'John'"
    )

    @staticmethod
    def plan_lines(text):
        """The atom lines of an EXPLAIN sketch, as (kind, binds) pairs."""
        return [
            (line.split()[0], line[line.index("binds=") :].split(" strategy")[0])
            for line in text.splitlines()
            if "binds=" in line
        ]

    def test_prints_the_active_config(self):
        engine = make_engine()
        assert "config: planner=cost\n" in engine.explain(
            self.QUERY
        )
        naive = ExecutionConfig(planner="naive")
        assert "config: " + naive.describe() in engine.explain(
            self.QUERY, config=naive
        )

    def test_naive_planner_lists_atoms_in_syntax_order(self):
        engine = make_engine()
        cost = self.plan_lines(engine.explain(self.QUERY))
        naive = self.plan_lines(
            engine.explain(self.QUERY, config=ExecutionConfig(planner="naive"))
        )
        # decompose_chain emits the chain's nodes, then its connectors
        assert [kind for kind, _ in naive] == [
            "node", "node", "node", "edge", "path"
        ]
        assert [binds for _, binds in naive][:3] == [
            "binds=['n']", "binds=['m']", "binds=['o']"
        ]
        assert sorted(naive) == sorted(cost) and naive != cost

    def test_both_planners_push_down_and_batch_paths(self):
        engine = make_engine()
        for config in LATTICE:
            text = engine.explain(self.QUERY, config=config)
            assert "pushed n.firstName = 'John' -> node(n) [index]" in text
            assert "strategy=bfs,batched" in text
            assert "naive" not in text.split("strategy=")[1]


class TestEnginePlumbing:
    def test_prepared_query_accepts_config(self):
        engine = make_engine()
        prepared = engine.prepare(
            "SELECT n.firstName MATCH (n:Person) ORDER BY n.firstName"
        )
        reference = prepared.run()
        assert prepared.run(config=ExecutionConfig(planner="naive")).rows == (
            reference.rows
        )
        assert oracle.run(engine, prepared.text).rows == reference.rows
        snapshot = engine.snapshot()
        assert snapshot.execute_prepared(
            prepared, config=ExecutionConfig(planner="naive")
        ).rows == reference.rows

    def test_naive_planner_reads_no_statistics(self):
        """Syntax order compares nothing, so planning it must not build
        graph statistics (EXPLAIN computes its estimates on its own)."""
        engine = make_engine()
        config = ExecutionConfig(planner="naive")
        for text in TOUR_STATEMENTS:
            engine.run(text, config=config)
        for name in ("social_graph", "company_graph"):
            assert engine.graph(name).cached_statistics() is None
        assert "est~" in engine.explain(TOUR_STATEMENTS[0], config=config)

    def test_refresh_view_full_recompute_is_a_keyword(self):
        engine = make_engine()
        engine.run(
            "GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person) "
            "WHERE n.employer = 'Acme')"
        )
        incremental = engine.refresh_view("acme")
        full = engine.refresh_view(
            "acme", incremental=False, config=ExecutionConfig(planner="naive")
        )
        assert incremental == full


class TestNaiveConfigIsRejected:
    """NAIVE_CONFIG names the oracle: an engine entry point handed it
    raises instead of quietly testing the engine against itself."""

    QUERY = "SELECT n.firstName AS first MATCH (n:Person)"

    @pytest.mark.parametrize("entry", [
        lambda engine, q: engine.run(q, config=NAIVE_CONFIG),
        lambda engine, q: engine.run(q, config=NAIVE_CONFIG, strict=True),
        lambda engine, q: engine.bindings("MATCH (n:Person)", config=NAIVE_CONFIG),
        lambda engine, q: engine.explain(q, config=NAIVE_CONFIG),
        lambda engine, q: engine.refresh_view("acme", config=NAIVE_CONFIG),
        lambda engine, q: engine.prepare(q).run(config=NAIVE_CONFIG),
        lambda engine, q: engine.snapshot().run(q, config=NAIVE_CONFIG),
        lambda engine, q: engine.snapshot().execute_prepared(
            engine.prepare(q), config=NAIVE_CONFIG
        ),
    ], ids=["run", "run-strict", "bindings", "explain", "refresh_view",
            "prepared", "snapshot-run", "snapshot-execute_prepared"])
    def test_entry_point_raises(self, entry):
        engine = make_engine()
        engine.run("GRAPH VIEW acme AS (CONSTRUCT (n) MATCH (n:Person))")
        with pytest.raises(ValidationError, match="NAIVE_CONFIG"):
            entry(engine, self.QUERY)

    def test_run_case_runs_the_oracle(self):
        engine = make_engine()
        outcome = run_case(engine, self.QUERY, config=NAIVE_CONFIG)
        assert outcome.kind == "table" and len(outcome.payload["rows"]) == 5


class TestReplConfigCommand:
    def test_parse_and_reset(self):
        config = _parse_config_args(DEFAULT_CONFIG, "planner=naive")
        assert config.planner == "naive"
        assert _parse_config_args(config, "reset") == DEFAULT_CONFIG

    @pytest.mark.parametrize(
        "argument",
        [
            "bogus=1", "planner", "planner=x", "planner=greedy", "paths=naive",
            "parallelism=2",
        ],
    )
    def test_bad_arguments_raise_validation_error(self, argument):
        with pytest.raises(ValidationError):
            _parse_config_args(DEFAULT_CONFIG, argument)

    def test_config_command_mutates_shell_state(self, capsys):
        engine = make_engine()
        state = ShellState()
        handle_command(engine, ".config planner=naive", state)
        assert state.config.planner == "naive"
        assert "planner=naive" in capsys.readouterr().out
        handle_command(engine, ".config reset", state)
        assert state.config == DEFAULT_CONFIG
