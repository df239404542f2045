"""The execution-mode configuration: :class:`ExecutionConfig`.

G-CORE has one semantics, so an execution mode is an implementation
detail that must return the same answer. The engine keeps one fast and
one reference implementation of query evaluation plus a worker-pool
degree; :class:`ExecutionConfig` names the choice as one frozen,
validated value accepted by :meth:`GCoreEngine.run
<repro.engine.GCoreEngine.run>`, :meth:`~repro.engine.GCoreEngine.prepare`
executions, :meth:`~repro.engine.GCoreEngine.refresh_view`, the HTTP
wire protocol (the ``"config"`` request field) and the REPL ``.config``
command. The whole mode lattice:

=========== ======================== ================================
axis        values                   selects
=========== ======================== ================================
planner     ``cost | naive``         statistics-driven or syntax order
executor    ``columnar | reference`` the fast column (columnar atoms,
                                     compiled kernels, WHERE pushdown,
                                     batched paths) or the oracle
                                     column (row-at-a-time atoms,
                                     interpreted expressions, no
                                     pushdown, per-row path search)
parallelism ``int >= 1 | "serial"``  morsel worker-pool size
=========== ======================== ================================

``DEFAULT_CONFIG`` is the fast serial lattice point; ``NAIVE_CONFIG`` is
the full reference column the oracle suites and the fuzzer compare
against. Invalid axis values raise
:class:`~repro.errors.ValidationError` (wire code ``validation_error``),
as do unknown keys in :meth:`ExecutionConfig.from_json`.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional, Tuple

from .errors import ValidationError

__all__ = ["DEFAULT_CONFIG", "NAIVE_CONFIG", "ExecutionConfig"]

#: Closed value sets of the categorical axes, in declaration order.
AXIS_VALUES: Dict[str, Tuple[str, ...]] = {
    "planner": ("cost", "naive"),
    "executor": ("columnar", "reference"),
}

#: Hard ceiling on the worker-pool size (a fat-finger guard, not a tune).
MAX_PARALLELISM = 64


@dataclasses.dataclass(frozen=True)
class ExecutionConfig:
    """One point of the engine-mode lattice (immutable and hashable)."""

    planner: str = "cost"
    executor: str = "columnar"
    #: Worker-pool size for morsel-driven execution; 1 = serial. The
    #: string ``"serial"`` is accepted (and normalized to 1) everywhere
    #: a config is built, including the JSON wire format.
    parallelism: int = 1

    def __post_init__(self) -> None:
        for axis, values in AXIS_VALUES.items():
            value = getattr(self, axis)
            if value not in values:
                raise ValidationError(
                    f"invalid ExecutionConfig {axis}={value!r}; "
                    f"expected one of {'|'.join(values)}"
                )
        parallelism: Any = self.parallelism
        if parallelism == "serial":
            object.__setattr__(self, "parallelism", 1)
            return
        if (
            not isinstance(parallelism, int)
            or isinstance(parallelism, bool)
            or not 1 <= parallelism <= MAX_PARALLELISM
        ):
            raise ValidationError(
                "invalid ExecutionConfig parallelism="
                f"{parallelism!r}; expected 'serial' or an integer in "
                f"[1, {MAX_PARALLELISM}]"
            )

    # ------------------------------------------------------------------
    @property
    def serial(self) -> bool:
        """True when no worker pool is involved (``parallelism == 1``)."""
        return self.parallelism <= 1

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
        """The wire form: a plain dict, ``parallelism`` as ``"serial"``/int."""
        payload = dataclasses.asdict(self)
        if self.parallelism <= 1:
            payload["parallelism"] = "serial"
        return payload

    def describe(self) -> str:
        """One EXPLAIN/REPL line: ``planner=cost executor=columnar ...``."""
        parallelism = "serial" if self.serial else str(self.parallelism)
        return (
            f"planner={self.planner} executor={self.executor} "
            f"parallelism={parallelism}"
        )


#: The default fast lattice point (what ``engine.run(text)`` executes).
DEFAULT_CONFIG = ExecutionConfig()

#: The full reference column (syntax order, row-at-a-time everything).
NAIVE_CONFIG = ExecutionConfig(planner="naive", executor="reference")
