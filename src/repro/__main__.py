"""An interactive G-CORE shell:  ``python -m repro [graph.json ...]``.

Loads the paper's toy instances by default (or JSON graph files given on
the command line) and evaluates G-CORE statements read from stdin.
Dot-commands:

  .graphs              list catalog graphs / views / tables
  .views               list materialized views with freshness (a view is
                       STALE when a base graph changed since it was
                       materialized) and maintenance strategy
  .default <name>      set the default graph
  .show <name>         describe a graph
  .stats <name>        planner statistics of a graph (counts, degrees,
                       property selectivities)
  .explain <query>     show the evaluation sketch (planner order with
                       estimated cardinalities, plan-cache status)
  .lint <query>        static analysis only: print the analyzer's typed
                       diagnostics (stable GCxxx codes with severity,
                       span and fix hint) without executing anything
  .cache               prepared-query plan cache hit/miss counters
  .load <file.json>    load and register a JSON graph
  .help                this text
  .quit                exit

Any other input is executed as a G-CORE statement; graph results are
described, tables pretty-printed, and every result graph is registered
as ``last`` so it can be queried again (composability at the prompt).
"""

from __future__ import annotations

import sys

from .datasets import company_graph, orders_table, social_graph
from .engine import GCoreEngine
from .errors import GCoreError
from .eval.query import ViewResult
from .model.graph import PathPropertyGraph
from .model.io import load_graph
from .table import Table

PROMPT = "gcore> "


def make_engine(paths: list) -> GCoreEngine:
    engine = GCoreEngine()
    if paths:
        for path in paths:
            graph = load_graph(path)
            name = graph.name or path.rsplit("/", 1)[-1].split(".")[0]
            engine.register_graph(name, graph)
            print(f"loaded {name}: {graph!r}")
    else:
        engine.register_graph("social_graph", social_graph(), default=True)
        engine.register_graph("company_graph", company_graph())
        engine.register_table("orders", orders_table())
        print("loaded the paper's toy instances: social_graph (default), "
              "company_graph, orders")
    return engine


def handle_command(engine: GCoreEngine, line: str) -> bool:
    """Handle a dot-command; returns False when the shell should exit."""
    parts = line.split(None, 1)
    command = parts[0]
    argument = parts[1].strip() if len(parts) > 1 else ""
    if command in (".quit", ".exit"):
        return False
    if command == ".help":
        print(__doc__)
    elif command == ".graphs":
        print("graphs:", ", ".join(engine.catalog.graph_names()) or "-")
        print("tables:", ", ".join(engine.catalog.table_names()) or "-")
        print("path views:",
              ", ".join(engine.catalog.path_view_names()) or "-")
        print("default:", engine.catalog.default_graph_name)
    elif command == ".views":
        names = engine.catalog.view_names()
        if not names:
            print("no materialized views")
        for name in names:
            from .eval.maintenance import analyze_view, describe_strategy

            meta = engine.catalog.view_meta(name)
            plan = meta.plan if meta is not None and meta.plan is not None else None
            if plan is None:
                plan = analyze_view(engine.catalog.view_query(name),
                                    engine.catalog)
            status = "STALE" if engine.catalog.is_view_stale(name) else "fresh"
            graph = engine.graph(name)
            print(
                f"  {name}: {len(graph.nodes)} nodes, {len(graph.edges)} "
                f"edges [{status}] maintenance={describe_strategy(plan)}"
            )
    elif command == ".default" and argument:
        engine.set_default_graph(argument)
        print(f"default graph is now {argument}")
    elif command == ".show" and argument:
        print(engine.graph(argument).describe())
    elif command == ".stats" and argument:
        print(engine.graph(argument).statistics().describe())
    elif command == ".cache":
        info = engine.plan_cache_info()
        print(
            f"plan cache: {info['size']}/{info['maxsize']} entries, "
            f"{info['hits']} hits, {info['misses']} misses"
        )
    elif command == ".explain" and argument:
        print(engine.explain(argument))
    elif command == ".lint" and argument:
        result = engine.analyze(argument)
        print(result.describe())
    elif command == ".load" and argument:
        graph = load_graph(argument)
        name = graph.name or argument.rsplit("/", 1)[-1].split(".")[0]
        engine.register_graph(name, graph)
        print(f"registered {name}: {graph!r}")
    else:
        print(f"unknown command {command!r}; try .help")
    return True


def execute(engine: GCoreEngine, text: str) -> None:
    result = engine.run(text)
    if isinstance(result, ViewResult):
        print(f"view {result.name} registered: {result.graph!r}")
    elif isinstance(result, PathPropertyGraph):
        print(result.describe())
        engine.register_graph("last", result)
    elif isinstance(result, Table):
        print(result.pretty())


def main(argv: list) -> int:
    engine = make_engine(argv)
    print("G-CORE shell — enter a query, or .help")
    buffer: list = []
    while True:
        try:
            prompt = PROMPT if not buffer else "   ... "
            line = input(prompt)
        except EOFError:
            print()
            return 0
        except KeyboardInterrupt:
            print()
            buffer.clear()
            continue
        stripped = line.strip()
        if not stripped and not buffer:
            continue
        if stripped.startswith(".") and not buffer:
            try:
                if not handle_command(engine, stripped):
                    return 0
            except GCoreError as exc:
                print(f"error: {exc}")
            continue
        # Multi-line input: a trailing backslash continues the statement.
        if stripped.endswith("\\"):
            buffer.append(stripped[:-1])
            continue
        buffer.append(stripped)
        statement = " ".join(buffer)
        buffer.clear()
        try:
            execute(engine, statement)
        except GCoreError as exc:
            print(f"error: {exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
