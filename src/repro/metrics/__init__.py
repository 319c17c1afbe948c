"""Evaluation metrics: fairness, throughput, and result records."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".fairness": ("memory_slowdown", "unfairness"),
        ".speedup": ("hmean_speedup", "weighted_speedup"),
        ".summary": ("ThreadResult", "WorkloadResult", "geomean"),
    },
)

__all__ = [
    "memory_slowdown",
    "unfairness",
    "hmean_speedup",
    "weighted_speedup",
    "ThreadResult",
    "WorkloadResult",
    "geomean",
]
