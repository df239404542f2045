"""The G-CORE evaluator (Appendix A semantics)."""

from .context import EvalContext, IdFactory
from .expressions import ExpressionEvaluator
from .kernels import ExpressionCompiler, KernelContext
from .query import QueryResult, ViewResult, evaluate_query

__all__ = [
    "EvalContext",
    "IdFactory",
    "ExpressionCompiler",
    "ExpressionEvaluator",
    "KernelContext",
    "QueryResult",
    "ViewResult",
    "evaluate_query",
]
