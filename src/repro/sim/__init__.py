"""System assembly and experiment running."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..config": ("default_instructions",),
        ".factory": ("SCHEDULER_NAMES", "make_scheduler"),
        ".runner": ("AloneStats", "ExperimentRunner"),
        ".system": ("DramPort", "System"),
        ".verify": ("BACKENDS", "BackendMismatch", "backend_from_env"),
    },
)

__all__ = [
    "SCHEDULER_NAMES",
    "make_scheduler",
    "AloneStats",
    "ExperimentRunner",
    "default_instructions",
    "DramPort",
    "System",
    "BACKENDS",
    "BackendMismatch",
    "backend_from_env",
]
