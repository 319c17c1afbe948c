"""The paper's core contribution: Parallelism-Aware Batch Scheduling."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".abstract_model": ("AbstractBatch", "AbstractRequest", "ScheduleResult"),
        ".batcher": (
            "OPPORTUNISTIC",
            "AdaptiveCapBatcher",
            "Batcher",
            "EslotBatcher",
            "FullBatcher",
            "StaticBatcher",
        ),
        ".hardware": ("HardwareCost", "hardware_cost"),
        ".parbs": ("ParBsScheduler",),
        ".ranking": (
            "MaxTotalRanking",
            "RandomRanking",
            "RoundRobinRanking",
            "ThreadRanking",
            "TotalMaxRanking",
            "batch_loads",
            "make_ranking",
        ),
    },
)

__all__ = [
    "AbstractBatch",
    "AbstractRequest",
    "ScheduleResult",
    "OPPORTUNISTIC",
    "AdaptiveCapBatcher",
    "Batcher",
    "EslotBatcher",
    "FullBatcher",
    "StaticBatcher",
    "ParBsScheduler",
    "HardwareCost",
    "hardware_cost",
    "MaxTotalRanking",
    "RandomRanking",
    "RoundRobinRanking",
    "ThreadRanking",
    "TotalMaxRanking",
    "batch_loads",
    "make_ranking",
]
