"""FR-FCFS: first-ready, first-come-first-serve [Rixner et al., Zuravleff].

The baseline policy of modern single-thread-optimized controllers:

1. row-hit requests are prioritized over row-closed/conflict requests;
2. ties are broken by age (oldest first).

Maximizes DRAM data throughput but is thread-unaware: threads with high
row-buffer locality or high memory intensity can starve others
(paper Section 3).
"""

from __future__ import annotations

from typing import Sequence

from ..dram.request import MemoryRequest
from .base import BankKey, Scheduler

__all__ = ["FrFcfsScheduler"]


class FrFcfsScheduler(Scheduler):
    """Row-hit-first, then oldest-first arbitration."""

    name = "FR-FCFS"

    # Scan key is (row_miss, age), packed as the raw id alone (id order ==
    # age order).  Nothing outranks a row hit, so the prefix stays empty
    # (``pack_prefix_shift`` None) — the open-row bucket's best always wins
    # when the bucket is non-empty — and the epoch never bumps.
    def pack_key(self, request: MemoryRequest) -> int:
        return request.request_id

    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        # Resolve the open row once per arbitration instead of re-deriving
        # row-hit status per candidate (rows are ints, so ``row != None``
        # correctly reads as a miss when the bank is precharged).
        open_row = self.controller.channels[bank[0]].banks[bank[1]].open_row
        return min(
            candidates,
            key=lambda r: (r.row != open_row, r.arrival_time, r.request_id),
        )
