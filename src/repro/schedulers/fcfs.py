"""FCFS: first-come-first-serve DRAM scheduling.

Services requests strictly in arrival order per bank, ignoring row-buffer
state.  Fair-ish but leaves row-buffer locality and bank throughput on the
table (paper Sections 3 and 8).
"""

from __future__ import annotations

from typing import Sequence

from ..dram.request import MemoryRequest
from .base import BankKey, Scheduler

__all__ = ["FcfsScheduler"]


class FcfsScheduler(Scheduler):
    """Oldest-request-first arbitration."""

    name = "FCFS"

    # Age is the whole priority; the open row never matters, so the fast
    # kernel answers every decision from the bank-wide minimum alone.
    index_uses_row = False

    def pack_key(self, request: MemoryRequest) -> int:
        # Ids are allocated at construction and requests enqueue
        # immediately, so the raw id orders identically to (arrival, id).
        return request.request_id

    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        return min(candidates, key=lambda r: (r.arrival_time, r.request_id))
