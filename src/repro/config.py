"""Two names the end-to-end benchmark still imports.

The engine has one execution mode. :data:`DEFAULT_CONFIG` names it: it
is the only value :class:`~repro.eval.context.EvalContext`'s ``config``
keyword accepts. :data:`NAIVE_CONFIG` names the definitional oracle of
:mod:`repro.fuzz.oracle` to :func:`repro.fuzz.differential.run_case`.
"""

__all__ = ["DEFAULT_CONFIG", "NAIVE_CONFIG"]

DEFAULT_CONFIG = "engine"
NAIVE_CONFIG = "oracle"
