"""Grammar-directed differential fuzzing over the ExecutionConfig lattice.

The package is the standing bug-finding harness promised by ROADMAP
item 3 (``docs/fuzzing.md``):

* :mod:`repro.fuzz.grammar` — the weighted grammar productions and the
  catalog-derived vocabulary the generator draws names and values from;
* :mod:`repro.fuzz.generate` — a deterministic, seed-addressed query
  generator over the full G-CORE surface, filtered to analyzer-clean
  statements with :meth:`GCoreEngine.analyze`;
* :mod:`repro.fuzz.oracle` — the definitional evaluator (walk
  enumeration, homomorphism enumeration in syntax order) every outcome
  is compared against;
* :mod:`repro.fuzz.differential` — executes each statement across a set
  of :class:`~repro.config.ExecutionConfig` lattice points plus the
  strict-analysis oracle and compares outcomes structurally;
* :mod:`repro.fuzz.shrink` — delta-debugging reduction of a failing
  statement to a minimal reproducer;
* :mod:`repro.fuzz.corpus` — the deterministic JSON counterexample
  format and the committed-reproducer replay helpers
  (``tests/fuzz/corpus/``);
* ``python -m repro.fuzz`` — the CLI (:mod:`repro.fuzz.__main__`).
"""

from .corpus import Counterexample, decode_value, encode_value, load_counterexample
from .differential import (
    CONFIG_PRESETS,
    DifferentialTester,
    Outcome,
    build_engine,
    parse_configs,
    replay_counterexample,
    run_case,
)
from .generate import GeneratedCase, QueryGenerator
from .grammar import DEFAULT_WEIGHTS, GraphVocab, Vocabulary
from .shrink import shrink_case

__all__ = [
    "CONFIG_PRESETS",
    "Counterexample",
    "DEFAULT_WEIGHTS",
    "DifferentialTester",
    "GeneratedCase",
    "GraphVocab",
    "Outcome",
    "QueryGenerator",
    "Vocabulary",
    "build_engine",
    "decode_value",
    "encode_value",
    "load_counterexample",
    "parse_configs",
    "replay_counterexample",
    "run_case",
    "shrink_case",
]
