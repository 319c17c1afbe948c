"""NFQ: network-fair-queueing based memory scheduling [Nesbit et al., MICRO-39].

Reimplementation of the FQ-VFTF variant the paper compares against
(virtual-finish-time-first fair queueing with the priority-inversion
prevention optimization):

* each thread owns a bandwidth share (equal by default, or proportional to
  a weight);
* a request's *virtual finish time* is its thread's previous virtual finish
  time in the same bank (or its arrival time, whichever is later) plus the
  nominal access cost scaled by the inverse of the thread's share;
* the scheduler services the request with the earliest virtual finish time;
* priority-inversion prevention: row-hit requests may jump ahead of
  earlier-deadline requests, but only while the open row is younger than a
  tRAS-based threshold, bounding how long a row streak can invert
  deadlines.

This design exhibits the *idleness problem* the PAR-BS paper discusses:
threads with bursty access patterns receive near-term deadlines after idle
periods and are prioritized over continuously backlogged threads, which
destroys the latter's bank-level parallelism.
"""

from __future__ import annotations

from struct import Struct
from typing import Sequence

from ..dram.request import MemoryRequest
from .base import BankKey, Scheduler

__all__ = ["NfqScheduler"]

_DOUBLE_BITS = Struct(">d").pack


class NfqScheduler(Scheduler):
    """Fair-queueing (FQ-VFTF) arbitration with per-thread weights."""

    name = "NFQ"

    def __init__(
        self,
        num_threads: int,
        weights: dict[int, float] | None = None,
        inversion_threshold: int | None = None,
    ) -> None:
        super().__init__()
        self.num_threads = num_threads
        self.weights = dict(weights or {})
        # Time at which the currently open row of each bank was last opened
        # by this policy's accounting (for priority-inversion prevention).
        self._row_open_since: dict[BankKey, int] = {}
        self._row_open_row: dict[BankKey, int | None] = {}
        self._inversion_threshold = inversion_threshold
        # Shares are fixed at construction (weights are not mutated mid-
        # run), so the normalizing sum in ``_share`` is hoisted out of the
        # per-enqueue deadline stamp into a flat per-thread table.
        self._share_by_tid: list[float] = [
            self._share(tid) for tid in range(num_threads)
        ]
        # Per-(thread, channel, bank) virtual-finish / last-row state; laid
        # out flat in :meth:`attach` once the bank geometry is known (the
        # deadline stamp runs once per enqueue, where a list index beats a
        # tuple-keyed dict).  Zero-filled vft matches the defaultdict the
        # accounting originally used; ``None`` never equals a row id.
        self._vft_flat: list[float] = []
        self._last_row_flat: list[int | None] = []
        self._nch = 0
        self._nbanks = 0

    def attach(self, controller) -> None:  # type: ignore[override]
        super().attach(controller)
        timing = controller.timing
        # Loop-invariant cost model and inversion budget, resolved once:
        # ``row_conflict_latency`` is a property and ``tRAS`` an attribute
        # chase, both otherwise re-derived per enqueue / per arbitration.
        self._hit_cost = timing.row_hit_latency + timing.tBUS
        self._miss_cost = timing.row_conflict_latency + timing.tBUS
        self._inv_thresh = (
            self._inversion_threshold
            if self._inversion_threshold is not None
            else timing.tRAS
        )
        self._nch = len(controller.channels)
        self._nbanks = len(controller.channels[0].banks)
        n = self.num_threads * self._nch * self._nbanks
        self._vft_flat = [0.0] * n
        self._last_row_flat = [None] * n

    # -- share bookkeeping ---------------------------------------------------
    def _share(self, thread_id: int) -> float:
        weight = self.weights.get(thread_id, 1.0)
        total = sum(self.weights.get(t, 1.0) for t in range(self.num_threads))
        return weight / total if total > 0 else 1.0 / self.num_threads

    def on_enqueue(self, request: MemoryRequest, now: int) -> None:
        tid = request.thread_id
        idx = (tid * self._nch + request.channel) * self._nbanks + request.bank
        vft = self._vft_flat
        start = float(now)
        prev = vft[idx]
        if prev > start:
            start = prev
        last_row = self._last_row_flat
        row = request.row
        cost = self._hit_cost if last_row[idx] == row else self._miss_cost
        last_row[idx] = row
        finish = start + cost / self._share_by_tid[tid]
        vft[idx] = finish
        request.virtual_finish = finish

    def on_issue(self, request: MemoryRequest, now: int) -> None:
        bank: BankKey = (request.channel, request.bank)
        if self._row_open_row.get(bank) != request.row:
            self._row_open_row[bank] = request.row
            self._row_open_since[bank] = now

    # -- arbitration -----------------------------------------------------------
    def pack_key(self, request: MemoryRequest) -> int:
        # Virtual finish times are stamped at enqueue and never revised, so
        # NFQ keys are static and the epoch never bumps.  They are also
        # non-negative, and non-negative IEEE-754 doubles order identically
        # to their big-endian bit patterns, so the float packs into the
        # integer key without losing a single comparison: (vf bits, id)
        # sorts exactly like (vf, arrival, id).
        return (
            int.from_bytes(_DOUBLE_BITS(request.virtual_finish), "big") << 40
            | request.request_id
        )

    def select_indexed(
        self, index, bank: BankKey, now: int, open_row: int | None
    ) -> MemoryRequest:
        # The inversion-prevention rule is not a lexicographic key — an
        # in-budget row streak diverts service to the open-row bucket
        # wholesale — so the generic prefix comparison does not apply:
        # either the whole decision comes from the open row's bucket, or
        # the row buffer is ignored entirely.
        if index.key_epoch != self.index_epoch:
            index.ensure(self)
        if open_row is not None:
            hit = index.peek_row(open_row)
            if hit is not None:
                if now - self._row_open_since.get(bank, now) < self._inv_thresh:
                    return hit[1]
        return index.peek()[1]

    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        # Nesbit et al. bound priority inversion with a tRAS threshold: an
        # open row may divert service from earlier virtual deadlines for at
        # most tRAS.  This is what limits the row-buffer locality NFQ can
        # exploit (paper Section 8.1.3).  Resolved once in :meth:`attach`.
        threshold = self._inv_thresh
        # Row-hit status is derived from the bank's open row, resolved once
        # per arbitration rather than per candidate.
        open_row = self.controller.channels[bank[0]].banks[bank[1]].open_row
        hits = (
            [r for r in candidates if r.row == open_row]
            if open_row is not None
            else []
        )
        if hits:
            open_since = self._row_open_since.get(bank, now)
            if now - open_since < threshold:
                # Row streak still within its inversion budget: exploit
                # locality, earliest deadline among the hits.
                return min(
                    hits, key=lambda r: (r.virtual_finish, r.arrival_time, r.request_id)
                )
        return min(
            candidates, key=lambda r: (r.virtual_finish, r.arrival_time, r.request_id)
        )
