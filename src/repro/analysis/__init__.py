"""Static semantic analysis of G-CORE queries (pre-planning).

The analyzer walks the parsed AST — before any planning or execution —
and returns typed :class:`Diagnostic` findings with stable codes. The
sort check of :mod:`repro.eval.analysis`, which runs once per statement
when it is prepared, raises :class:`~repro.errors.SemanticError` on the
first violation instead. See ``docs/analysis.md`` for the code registry
and the wire format.

Entry points:

* :func:`analyze` — text or AST in, :class:`AnalysisResult` out;
* ``GCoreEngine.analyze`` / ``EngineSnapshot.analyze`` — the same with
  the engine's catalog supplied automatically;
* ``python -m repro.analysis FILE...`` — batch linting of ``.gcore``
  files (exit code = rank of the worst finding);
* ``POST /analyze`` on the HTTP server.
"""

from .analyzer import Analyzer, analyze
from .diagnostics import (
    CODES,
    SEVERITIES,
    AnalysisResult,
    CodeInfo,
    Diagnostic,
    severity_rank,
)

__all__ = [
    "Analyzer",
    "analyze",
    "AnalysisResult",
    "Diagnostic",
    "CodeInfo",
    "CODES",
    "SEVERITIES",
    "severity_rank",
]
