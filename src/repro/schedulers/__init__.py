"""Baseline DRAM scheduling policies the paper compares against."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("BankKey", "Scheduler"),
        ".fcfs": ("FcfsScheduler",),
        ".frfcfs": ("FrFcfsScheduler",),
        ".nfq": ("NfqScheduler",),
        ".stfm": ("StfmScheduler",),
    },
)

__all__ = [
    "BankKey",
    "Scheduler",
    "FcfsScheduler",
    "FrFcfsScheduler",
    "NfqScheduler",
    "StfmScheduler",
]
