"""ExecutionConfig: validation, wire forms, lattice parity, API plumbing.

The mode-lattice value itself (:mod:`repro.config`), result parity of
its four serial points (plus a worker pool) on the guided-tour
statements, the EXPLAIN sketch per lattice point, prepared-query config
overrides, and the REPL ``.config`` command.
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
from repro.fuzz.differential import diff_outcomes, run_case

#: The whole serial lattice: 2 planners x 2 executors.
SERIAL_LATTICE = [
    ExecutionConfig(planner=planner, executor=executor)
    for planner in ("cost", "naive")
    for executor in ("columnar", "reference")
]

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
    def test_exactly_three_fields(self):
        assert tuple(f.name for f in dataclasses.fields(ExecutionConfig)) == (
            "planner",
            "executor",
            "parallelism",
        )

    def test_default_is_fast_serial_lattice_point(self):
        assert DEFAULT_CONFIG == ExecutionConfig(
            planner="cost", executor="columnar", parallelism=1
        )
        assert DEFAULT_CONFIG.serial

    def test_naive_config_is_the_reference_column(self):
        assert NAIVE_CONFIG == ExecutionConfig(
            planner="naive", executor="reference"
        )

    @pytest.mark.parametrize(
        "axis,value",
        [
            ("planner", "speedy"),
            ("planner", "greedy"),
            ("executor", "rowwise"),
        ],
    )
    def test_invalid_axis_value_raises(self, axis, value):
        with pytest.raises(ValidationError, match=axis):
            ExecutionConfig(**{axis: value})

    @pytest.mark.parametrize("bad", [0, -1, 65, 1.5, True, "many", None])
    def test_invalid_parallelism_raises(self, bad):
        with pytest.raises(ValidationError, match="parallelism"):
            ExecutionConfig(parallelism=bad)

    def test_serial_string_normalizes_to_one(self):
        config = ExecutionConfig(parallelism="serial")
        assert config.parallelism == 1
        assert config.serial
        assert config == DEFAULT_CONFIG

    def test_with_validates_like_the_constructor(self):
        assert DEFAULT_CONFIG.with_(parallelism=4).parallelism == 4
        with pytest.raises(ValidationError):
            DEFAULT_CONFIG.with_(planner="bogus")

    def test_config_is_frozen_and_hashable(self):
        config = ExecutionConfig(parallelism=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.planner = "naive"
        assert hash(config) == hash(ExecutionConfig(parallelism=2))


class TestWireForm:
    def test_json_roundtrip(self):
        config = ExecutionConfig(planner="naive", parallelism=4)
        assert ExecutionConfig.from_json(config.to_json()) == config

    def test_wire_form_has_exactly_the_three_keys(self):
        assert set(NAIVE_CONFIG.to_json()) == {
            "planner", "executor", "parallelism"
        }

    def test_none_and_empty_mean_default(self):
        assert ExecutionConfig.from_json(None) == DEFAULT_CONFIG
        assert ExecutionConfig.from_json({}) == DEFAULT_CONFIG

    def test_serial_spelled_out_on_the_wire(self):
        assert DEFAULT_CONFIG.to_json()["parallelism"] == "serial"
        assert ExecutionConfig(parallelism=2).to_json()["parallelism"] == 2

    @pytest.mark.parametrize(
        "raw",
        [
            {"bogus": 1},
            {"expressions": "interpreted"},
            {"paths": "naive"},
            {"view_refresh": "full"},
        ],
    )
    def test_unknown_and_removed_keys_raise(self, raw):
        with pytest.raises(ValidationError, match="unknown"):
            ExecutionConfig.from_json(raw)

    def test_removed_planner_value_raises(self):
        with pytest.raises(ValidationError, match="planner"):
            ExecutionConfig.from_json({"planner": "greedy"})

    def test_non_object_raises(self):
        with pytest.raises(ValidationError):
            ExecutionConfig.from_json("cost")

    def test_describe_lists_every_axis(self):
        assert (
            ExecutionConfig(parallelism=3).describe()
            == "planner=cost executor=columnar parallelism=3"
        )
        assert (
            NAIVE_CONFIG.describe()
            == "planner=naive executor=reference parallelism=serial"
        )


class TestLatticeParity:
    @pytest.mark.parametrize("query", TOUR_STATEMENTS)
    def test_every_point_returns_the_oracle_result(self, query):
        engine = make_engine()
        oracle = run_case(engine, query, config=NAIVE_CONFIG)
        assert oracle.kind in ("table", "graph"), oracle
        for config in SERIAL_LATTICE + [ExecutionConfig(parallelism=2)]:
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
        assert "config: " + DEFAULT_CONFIG.describe() in engine.explain(
            self.QUERY
        )
        assert "config: " + NAIVE_CONFIG.describe() in engine.explain(
            self.QUERY, config=NAIVE_CONFIG
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

    def test_reference_executor_reports_no_pushdown(self):
        engine = make_engine()
        default = engine.explain(self.QUERY)
        assert "pushed n.firstName = 'John' -> node(n) [index]" in default
        assert "strategy=bfs,batched" in default
        reference = engine.explain(
            self.QUERY, config=ExecutionConfig(executor="reference")
        )
        assert "pushed" not in reference
        assert "residual n.firstName = 'John'" in reference
        assert "strategy=bfs,naive" in reference
        # the path engine follows the executor, not the planner
        assert "strategy=bfs,batched" in engine.explain(
            self.QUERY, config=ExecutionConfig(planner="naive")
        )


class TestEnginePlumbing:
    def test_prepared_query_accepts_config(self):
        engine = make_engine()
        prepared = engine.prepare(
            "SELECT n.firstName MATCH (n:Person) ORDER BY n.firstName"
        )
        reference = prepared.run()
        assert prepared.run(config=NAIVE_CONFIG).rows == reference.rows
        snapshot = engine.snapshot()
        assert snapshot.execute_prepared(
            prepared, config=ExecutionConfig(planner="naive")
        ).rows == reference.rows

    @pytest.mark.parametrize("executor", ["columnar", "reference"])
    def test_naive_planner_reads_no_statistics(self, executor):
        """Syntax order compares nothing, so planning it must not build
        graph statistics (EXPLAIN computes its estimates on its own)."""
        engine = make_engine()
        config = ExecutionConfig(planner="naive", executor=executor)
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
            "acme", incremental=False, config=NAIVE_CONFIG
        )
        assert incremental == full


class TestReplConfigCommand:
    def test_parse_and_reset(self):
        config = _parse_config_args(
            DEFAULT_CONFIG, "parallelism=4 planner=naive"
        )
        assert config.parallelism == 4
        assert config.planner == "naive"
        assert _parse_config_args(config, "reset") == DEFAULT_CONFIG
        assert _parse_config_args(config, "parallelism=serial").serial

    @pytest.mark.parametrize(
        "argument",
        ["bogus=1", "planner", "planner=x", "planner=greedy", "paths=naive"],
    )
    def test_bad_arguments_raise_validation_error(self, argument):
        with pytest.raises(ValidationError):
            _parse_config_args(DEFAULT_CONFIG, argument)

    def test_config_command_mutates_shell_state(self, capsys):
        engine = make_engine()
        state = ShellState()
        handle_command(engine, ".config parallelism=2", state)
        assert state.config.parallelism == 2
        assert "parallelism=2" in capsys.readouterr().out
        handle_command(engine, ".config reset", state)
        assert state.config == DEFAULT_CONFIG
