"""Per-core cache hierarchy: caches, MSHRs, and the two-level wrapper."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".cache": ("AccessResult", "Cache", "CacheStats"),
        ".hierarchy": ("CacheHierarchy",),
        ".mshr": ("MshrFile",),
    },
)

__all__ = ["AccessResult", "Cache", "CacheStats", "CacheHierarchy", "MshrFile"]
