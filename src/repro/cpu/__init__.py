"""Trace-driven processor core models."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".core": ("Core", "CoreSnapshot", "MemoryPort"),
        ".trace": ("Trace", "TraceEntry"),
    },
)

__all__ = ["Core", "CoreSnapshot", "MemoryPort", "Trace", "TraceEntry"]
