"""The execution-mode configuration: :class:`ExecutionConfig`.

G-CORE has one semantics and the engine one implementation of it; an
execution mode only chooses how it plans, and must return the same
answer. :class:`ExecutionConfig` names the choice as one
frozen, validated value accepted by
:meth:`GCoreEngine.run <repro.engine.GCoreEngine.run>`,
:meth:`~repro.engine.GCoreEngine.prepare` executions,
:meth:`~repro.engine.GCoreEngine.refresh_view`, the HTTP wire protocol
(the ``"config"`` request field) and the REPL ``.config`` command. The
whole mode lattice is one axis, ``planner``: ``cost`` (statistics-driven)
or ``naive`` (syntax order).

``DEFAULT_CONFIG`` is the cost-planned lattice point. The engine
is checked against the definitional oracle of :mod:`repro.fuzz.oracle`,
outside it: :data:`NAIVE_CONFIG` names that oracle for the differential
tester and is rejected by every engine entry point. Invalid axis values raise
:class:`~repro.errors.ValidationError` (wire code ``validation_error``),
as do unknown keys in :meth:`ExecutionConfig.from_json`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ValidationError

__all__ = ["DEFAULT_CONFIG", "NAIVE_CONFIG", "ExecutionConfig", "lattice_point"]

#: The planner axis: statistics-driven or syntax order.
PLANNERS: Tuple[str, ...] = ("cost", "naive")


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """One point of the engine-mode lattice (immutable and hashable)."""

    planner: str = "cost"

    def __post_init__(self) -> None:
        if self.planner not in PLANNERS:
            raise ValidationError(
                f"invalid ExecutionConfig planner={self.planner!r}; "
                f"expected one of {'|'.join(PLANNERS)}"
            )

    def with_(self, **changes: Any) -> "ExecutionConfig":
        """A copy with *changes* applied (validated like the constructor)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, raw: Optional[Mapping[str, Any]]) -> "ExecutionConfig":
        """Decode the wire form; unknown keys are a ``validation_error``.

        ``None`` and ``{}`` both mean "the default lattice point", so
        clients can always send a ``config`` object.
        """
        if raw is None:
            return DEFAULT_CONFIG
        if not isinstance(raw, Mapping):
            raise ValidationError("'config' must be a JSON object")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValidationError(
                f"unknown ExecutionConfig keys: {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        return cls(**dict(raw))

    def to_json(self) -> Dict[str, Any]:
        """The wire form: a plain dict."""
        return dataclasses.asdict(self)

    def describe(self) -> str:
        """One EXPLAIN/REPL line: ``planner=cost``."""
        return f"planner={self.planner}"


class _Oracle:
    """The type of :data:`NAIVE_CONFIG`: a name, not an engine mode."""

    def __repr__(self) -> str:
        return "NAIVE_CONFIG"


#: The default lattice point (what ``engine.run(text)`` executes).
DEFAULT_CONFIG = ExecutionConfig()

#: Names the oracle to ``repro.fuzz.differential.run_case``; equal to no
#: lattice point, and rejected by every engine entry point.
NAIVE_CONFIG: Any = _Oracle()


def lattice_point(config: Optional[ExecutionConfig]) -> ExecutionConfig:
    """*config*, or ``DEFAULT_CONFIG`` for None; anything else, such as
    ``NAIVE_CONFIG``, raises :class:`~repro.errors.ValidationError`."""
    if config is None:
        return DEFAULT_CONFIG
    if not isinstance(config, ExecutionConfig):
        raise ValidationError(
            f"{config!r} is not an ExecutionConfig; NAIVE_CONFIG names the "
            "test oracle (repro.fuzz.oracle), not an engine mode"
        )
    return config
