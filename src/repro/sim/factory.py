"""Scheduler factory: build any policy evaluated in the paper by name.

Names accepted (case-insensitive):

* ``"FR-FCFS"``, ``"FCFS"``, ``"NFQ"``, ``"STFM"`` — the four baselines;
* ``"PAR-BS"`` — the paper's scheduler (full batching, Marking-Cap 5,
  Max-Total ranking);
* variants via keyword arguments, e.g.
  ``make_scheduler("PAR-BS", 4, marking_cap=None)`` or
  ``make_scheduler("PAR-BS", 4, batching="static", batch_duration=3200)``.
"""

from __future__ import annotations

from typing import Callable

from ..config import SCHEDULER_NAMES, scheduler_name
from ..core.parbs import ParBsScheduler
from ..schedulers import FcfsScheduler, FrFcfsScheduler, NfqScheduler, Scheduler, StfmScheduler

__all__ = ["make_scheduler", "SCHEDULER_NAMES", "SchedulerFactory"]

SchedulerFactory = Callable[[int], Scheduler]


def make_scheduler(name: str, num_threads: int, **kwargs) -> Scheduler:
    """Instantiate a scheduler by paper name for ``num_threads`` threads."""
    key = scheduler_name(name)
    if key == "FCFS":
        return FcfsScheduler()
    if key == "FR-FCFS":
        return FrFcfsScheduler()
    if key == "NFQ":
        return NfqScheduler(num_threads, **kwargs)
    if key == "STFM":
        return StfmScheduler(num_threads, **kwargs)
    return ParBsScheduler(num_threads, **kwargs)
