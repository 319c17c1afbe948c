"""DRAM substrate: timing, banks, buses, channels and the memory controller."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".address": ("AddressMapping", "DramCoordinates"),
        ".bank": ("AccessOutcome", "Bank"),
        ".bus": ("DataBus",),
        ".channel": ("Channel",),
        ".controller": ("MemoryController", "ThreadMemStats"),
        ".request": ("MemoryRequest", "RequestType"),
        ".timing": ("DramTiming", "ddr2_800"),
    },
)

__all__ = [
    "AddressMapping",
    "DramCoordinates",
    "AccessOutcome",
    "Bank",
    "DataBus",
    "Channel",
    "MemoryController",
    "ThreadMemStats",
    "MemoryRequest",
    "RequestType",
    "DramTiming",
    "ddr2_800",
]
