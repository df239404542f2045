"""Exception hierarchy for the G-CORE reproduction.

Every error raised by the library derives from :class:`GCoreError`, so
applications can catch a single base class. Parse-time errors carry source
positions; evaluation errors carry enough context to identify the failing
clause.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple


def _closest(name: str, candidates: Tuple[str, ...]) -> Optional[str]:
    """The best did-you-mean candidate for *name*, if any is close."""
    import difflib

    matches = difflib.get_close_matches(name, candidates, n=1, cutoff=0.6)
    return matches[0] if matches else None


class GCoreError(Exception):
    """Base class for all errors raised by this library.

    Every subclass carries a stable machine-readable ``code`` and a
    default ``http_status`` — the contract of the HTTP query server's
    JSON error envelope (:mod:`repro.server`, ``docs/http-api.md``).
    """

    #: stable wire identifier used by the server's error envelope
    code = "gcore_error"
    #: default HTTP status the server maps this error class to
    http_status = 400


class GraphModelError(GCoreError):
    """Raised when a Path Property Graph violates Definition 2.1.

    Examples: an edge whose endpoints are not nodes of the graph, a stored
    path whose edge sequence is not a concatenation of adjacent edges, or
    overlapping node/edge/path identifier namespaces.
    """

    code = "graph_model_error"
    http_status = 400


class LexerError(GCoreError):
    """Raised when the query text contains an unrecognizable token."""

    code = "parse_error"
    http_status = 400

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (at line {line}, column {column})")
        self.line = line
        self.column = column


class ParseError(GCoreError):
    """Raised when the query text does not conform to the G-CORE grammar."""

    code = "parse_error"
    http_status = 400

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{message} (at line {line}, column {column})")
        self.line = line
        self.column = column


class SemanticError(GCoreError):
    """Raised for statically detectable semantic violations.

    Examples: using a node variable where an edge variable is required,
    binding an ALL-paths variable outside a graph projection, or an edge
    construct over a bound edge whose endpoint variables are unbound.
    """

    code = "semantic_error"
    http_status = 400


class AnalysisError(SemanticError):
    """Raised in strict mode when the analyzer finds error diagnostics.

    Carries the full :class:`~repro.analysis.AnalysisResult` on
    ``result`` so callers (and the HTTP server's error envelope) can
    surface every finding, not just the first.
    """

    code = "analysis_error"
    http_status = 400

    def __init__(self, result) -> None:
        errors = result.errors
        lead = errors[0].describe() if errors else "analysis failed"
        extra = f" (+{len(errors) - 1} more)" if len(errors) > 1 else ""
        super().__init__(f"strict mode: {lead}{extra}")
        self.result = result


class UnknownNameError(SemanticError):
    """Base for run-time unknown-name errors (graph, table, path view).

    These mirror the analyzer's GC101/GC102/GC105 diagnostics so the two
    paths stay structurally comparable: each subclass pins the analyzer
    ``diagnostic_code`` it corresponds to, carries a ``hint`` (upgraded
    to a did-you-mean when the raise site supplies the catalog's
    candidate names), and renders itself as a
    :class:`~repro.analysis.Diagnostic` via :meth:`to_diagnostic`.
    """

    code = "unknown_name"
    http_status = 404
    #: the analyzer diagnostic this error mirrors (GC101/GC102/GC105)
    diagnostic_code = "GC101"
    #: human noun for the name kind ("graph", "table", "path view")
    kind = "name"
    #: hint used when no candidate is close enough for a did-you-mean
    default_hint = "check the spelling"

    def __init__(self, name: str, candidates: Iterable[str] = ()) -> None:
        self.name = name
        self.candidates = tuple(sorted(set(candidates)))
        suggestion = _closest(name, self.candidates)
        if suggestion is not None:
            self.hint: str = f"did you mean {suggestion!r}?"
        else:
            self.hint = self.default_hint
        super().__init__(f"unknown {self.kind}: {name!r} ({self.hint})")

    def to_diagnostic(self):
        """This error as an analyzer-grade :class:`Diagnostic`.

        Positions are ``None``: the raise sites sit behind the planner,
        where the offending AST node no longer knows its source span.
        """
        from .analysis.diagnostics import Diagnostic

        return Diagnostic(
            code=self.diagnostic_code,
            severity="error",
            message=f"unknown {self.kind}: {self.name!r}",
            hint=self.hint,
        )


class UnknownGraphError(UnknownNameError):
    """Raised when a query references a graph name not in the catalog."""

    code = "unknown_graph"
    http_status = 404
    diagnostic_code = "GC101"
    kind = "graph"
    default_hint = "register the graph or check the spelling"


class UnknownTableError(UnknownNameError):
    """Raised when a query references a table name not in the catalog."""

    code = "unknown_table"
    http_status = 404
    diagnostic_code = "GC102"
    kind = "table"
    default_hint = "register the table or check the spelling"


class UnknownPathViewError(UnknownNameError):
    """Raised when a regular path expression references an undefined view."""

    code = "unknown_path_view"
    http_status = 404
    diagnostic_code = "GC105"
    kind = "path view"
    default_hint = "define it with a PATH clause or register it as a PATH view"


class EvaluationError(GCoreError):
    """Raised when an expression or clause fails at evaluation time."""

    code = "evaluation_error"
    http_status = 400


class CostError(EvaluationError):
    """Raised when a PATH ... COST expression is non-numeric or not > 0.

    Section 3 of the paper: "The specified cost must be numerical, and
    larger than zero (otherwise a run-time error will be raised)".
    """

    code = "cost_error"
    http_status = 400


class ValidationError(GCoreError):
    """Raised when schema validation of a graph fails."""

    code = "validation_error"
    http_status = 422


class DeltaError(GCoreError):
    """Raised when a :class:`~repro.model.delta.GraphDelta` operation is
    invalid against the graph it is applied to.

    Examples: adding a node under an identifier that already exists,
    adding an edge whose endpoints are not nodes, or removing an unknown
    object.
    """

    code = "delta_error"
    http_status = 409


class SnapshotFormatError(GCoreError):
    """Raised when a binary snapshot file cannot be decoded.

    Examples: a file that does not start with the snapshot magic, a
    truncated header or section, a section whose CRC-32 does not match
    the stored checksum, or an identifier/value whose type the format
    cannot represent at save time.
    """

    code = "snapshot_format_error"
    http_status = 422


class SnapshotVersionError(SnapshotFormatError):
    """Raised when a snapshot's format version is not supported.

    The snapshot header carries a format version number; readers refuse
    files written by a newer (or retired) format rather than risk a
    silent misread of the section layout.
    """

    code = "snapshot_version_error"
    http_status = 422

    def __init__(self, found: int, supported: int) -> None:
        super().__init__(
            f"snapshot format version {found} is not supported "
            f"(this build reads version {supported})"
        )
        self.found = found
        self.supported = supported

