"""repro — a complete Python reproduction of G-CORE (SIGMOD 2018).

G-CORE is the graph query language designed by the LDBC Graph Query
Language Task Force: *composable* (queries consume and produce graphs)
with *paths as first-class citizens* (the Path Property Graph model).
This package implements the full language and data model:

* :class:`~repro.model.graph.PathPropertyGraph` — the PPG data model
  (Definition 2.1) with nodes, edges and *stored paths*, multi-labels and
  set-valued properties;
* :class:`~repro.engine.GCoreEngine` — parse + evaluate full G-CORE:
  MATCH / OPTIONAL / WHERE, CONSTRUCT with grouping and SET/REMOVE/WHEN,
  k-SHORTEST / ALL / reachability path patterns, weighted PATH views,
  EXISTS subqueries, UNION/INTERSECT/MINUS on graphs, GRAPH VIEWs, and
  the Section 5 tabular extensions (SELECT, FROM tables, tables as
  graphs);
* :mod:`repro.datasets` — the paper's toy instances plus a deterministic
  SNB-like generator for scaling experiments.

Quickstart::

    from repro import GCoreEngine
    from repro.datasets import social_graph

    engine = GCoreEngine()
    engine.register_graph("social_graph", social_graph(), default=True)
    g = engine.run("CONSTRUCT (n) MATCH (n:Person) WHERE n.employer = 'Acme'")
    print(g.describe())
"""

from .analysis import AnalysisResult, Diagnostic, analyze
from .engine import EngineSnapshot, GCoreEngine
from .errors import (
    AnalysisError,
    CostError,
    DeltaError,
    EvaluationError,
    GCoreError,
    GraphModelError,
    LexerError,
    ParseError,
    SemanticError,
    StaleViewError,
    UnknownGraphError,
    UnknownNameError,
    UnknownPathViewError,
    UnknownTableError,
    ValidationError,
)
from .model.builder import GraphBuilder
from .model.delta import GraphDelta, apply_delta
from .model.graph import PathPropertyGraph
from .model.schema import GraphSchema, snb_schema
from .model.values import Date
from .table import Table

__version__ = "1.0.0"

__all__ = [
    "AnalysisError",
    "AnalysisResult",
    "Diagnostic",
    "analyze",
    "EngineSnapshot",
    "GCoreEngine",
    "GraphBuilder",
    "GraphDelta",
    "GraphSchema",
    "apply_delta",
    "snb_schema",
    "PathPropertyGraph",
    "Table",
    "Date",
    "GCoreError",
    "GraphModelError",
    "LexerError",
    "ParseError",
    "SemanticError",
    "EvaluationError",
    "CostError",
    "DeltaError",
    "StaleViewError",
    "UnknownGraphError",
    "UnknownNameError",
    "UnknownTableError",
    "UnknownPathViewError",
    "ValidationError",
    "__version__",
]
