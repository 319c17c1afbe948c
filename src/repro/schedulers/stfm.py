"""STFM: stall-time fair memory scheduling [Mutlu & Moscibroda, MICRO-40].

Reimplementation of the scheduler the PAR-BS paper identifies as the best
previous technique.  STFM aims to equalize the memory-related slowdown of
all threads:

* for each thread the controller tracks ``T_shared`` — the memory stall
  time the thread experiences in the shared system (approximated here by
  the time the thread has at least one outstanding read) — and estimates
  ``T_interference`` — the extra stall caused by other threads;
* the estimated slowdown is ``S = T_shared / (T_shared - T_interference)``;
* if the ratio of the maximum to minimum slowdown exceeds ``alpha``, the
  scheduler switches from FR-FCFS to a fairness-oriented policy that
  prioritizes the most-slowed-down thread's requests.

Interference accounting follows the published description: when a request
occupies a bank, every other thread with requests waiting on that bank
accrues the service duration divided by its current bank-level parallelism
(a thread whose requests proceed in parallel in other banks loses less).
As the PAR-BS paper notes, these estimates are heuristic and can
under-estimate the slowdown of threads with high inherent bank-level
parallelism — a behaviour this reimplementation shares by construction.

Thread weights (for the priority experiments) scale the *perceived*
slowdown: ``S_eff = 1 + (S - 1) * weight``, so heavier threads look more
slowed-down and are prioritized earlier.
"""

from __future__ import annotations

from typing import Sequence

from ..dram.request import MemoryRequest
from .base import BankKey, Scheduler

__all__ = ["StfmScheduler"]


class StfmScheduler(Scheduler):
    """Stall-time fair arbitration."""

    name = "STFM"
    # ``on_issue`` reads ``request.service_outcome`` for the alone-time
    # model; the fast backend must materialize the outcome object.
    uses_service_outcome = True

    def __init__(
        self,
        num_threads: int,
        alpha: float = 1.10,
        interval_length: int = 2**22,
        weights: dict[int, float] | None = None,
    ) -> None:
        super().__init__()
        if alpha < 1.0:
            raise ValueError("alpha must be >= 1")
        self.num_threads = num_threads
        self.alpha = alpha
        self.interval_length = interval_length
        self.weights = dict(weights or {})

        # Per-thread counters as flat lists (thread ids are dense).
        self._t_shared: list[float] = [0.0] * num_threads
        self._t_interference: list[float] = [0.0] * num_threads
        # Outstanding read tracking for T_shared integration.
        self._outstanding: list[int] = [0] * num_threads
        self._last_change: list[int] = [0] * num_threads
        # Banks with waiting-or-in-service reads per thread (for the bank
        # parallelism divisor in interference accounting), plus an O(1)
        # count of banks with a positive request count so the divisor
        # needs no per-victim scan over the bank map.
        self._banks_busy: list[dict[BankKey, int]] = [{} for _ in range(num_threads)]
        self._busy_bank_count: list[int] = [0] * num_threads
        self._last_decay = 0
        # Incrementally maintained slowdown table: ``select`` runs once per
        # bank wake and recomputing every thread's slowdown each time is
        # the policy's main arbitration cost.  A thread's entry is
        # recomputed only when its counters changed since the last
        # arbitration (dirty) or when its estimate is time-dependent (it
        # has outstanding reads, so T_shared grows with ``now``).  Threads
        # that are idle and untouched keep their cached value — computing
        # it again would evaluate the same expression on the same inputs.
        self._slowdown_cache: dict[int, float] = {}
        self._slowdown_cache_time = -1
        self._sd_dirty: list[bool] = [False] * num_threads
        self._sd_time: list[int] = [-1] * num_threads
        self._sd_any_dirty = False
        # Epoch-scoped arbitration mode for the fast backend's packed keys:
        # (fairness mode active, thread being boosted).  Buffered packed
        # keys are built against this snapshot; ``refresh_index`` bumps the
        # epoch only when a decision actually observes a different mode.
        self._index_mode: tuple[bool, int] = (False, -1)
        # Cycle the mode was last derived for: several banks arbitrating in
        # the same cycle with no counter changes in between would re-derive
        # the identical (fair, slowest) decision from the identical
        # slowdown table — skip the scan entirely (see ``refresh_index``).
        self._mode_time = -1
        # Flat weight mirror for the inlined slowdown math in
        # ``_slowdowns`` (thread ids are dense).
        self._weight_by_tid: list[float] = [
            self.weights.get(tid, 1.0) for tid in range(num_threads)
        ]

    # -- bookkeeping -----------------------------------------------------------
    def _decay(self, now: int) -> None:
        if now - self._last_decay < self.interval_length:
            return
        for table in (self._t_shared, self._t_interference):
            for tid in range(self.num_threads):
                table[tid] *= 0.5
        self._last_decay = now
        # Every estimate changed; recompute all on the next arbitration.
        for tid in range(self.num_threads):
            self._sd_dirty[tid] = True
        self._sd_any_dirty = True

    def _bank_parallelism(self, thread_id: int) -> int:
        count = self._busy_bank_count[thread_id]
        return count if count > 1 else 1

    # The three lifecycle hooks run once per request event and together
    # dominate STFM's bookkeeping cost, so their bookkeeping is inlined:
    # while a thread has reads outstanding its shared time accrues, and
    # each event marks its slowdown estimate dirty.
    def on_enqueue(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        tid = request.thread_id
        out = self._outstanding[tid]
        if out > 0:
            self._t_shared[tid] += now - self._last_change[tid]
        self._last_change[tid] = now
        self._outstanding[tid] = out + 1
        bank_counts = self._banks_busy[tid]
        key: BankKey = (request.channel, request.bank)
        before = bank_counts.get(key, 0)
        bank_counts[key] = before + 1
        if before == 0:
            self._busy_bank_count[tid] += 1
        if now - self._last_decay >= self.interval_length:
            self._decay(now)
        self._sd_dirty[tid] = True
        self._sd_any_dirty = True

    def on_issue(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        outcome = request.service_outcome
        duration = outcome.bank_free - outcome.start if outcome is not None else 0
        key: BankKey = (request.channel, request.bank)
        # Charge interference to every *other* thread waiting on this bank
        # (the controller maintains per-bank thread counts, so no scan).
        issuer = request.thread_id
        t_interference = self._t_interference
        busy_count = self._busy_bank_count
        dirty = self._sd_dirty
        charged = False
        for tid in self.controller.buffered_read_threads(key):
            if tid == issuer:
                continue
            count = busy_count[tid]
            t_interference[tid] += duration / (count if count > 1 else 1)
            dirty[tid] = True
            charged = True
        if charged:
            self._sd_any_dirty = True

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        tid = request.thread_id
        out = self._outstanding[tid]
        if out > 0:
            self._t_shared[tid] += now - self._last_change[tid]
        self._last_change[tid] = now
        self._outstanding[tid] = out - 1
        bank_counts = self._banks_busy[tid]
        key: BankKey = (request.channel, request.bank)
        after = bank_counts[key] - 1
        bank_counts[key] = after
        if after == 0:
            self._busy_bank_count[tid] -= 1
        if now - self._last_decay >= self.interval_length:
            self._decay(now)
        self._sd_dirty[tid] = True
        self._sd_any_dirty = True

    # -- slowdown estimation -----------------------------------------------------
    def slowdown(self, thread_id: int, now: int | None = None) -> float:
        """Current estimated memory slowdown of ``thread_id``."""
        shared = self._t_shared[thread_id]
        if now is not None and self._outstanding[thread_id] > 0:
            shared += now - self._last_change[thread_id]
        interference = min(self._t_interference[thread_id], shared * 0.999)
        alone = max(shared - interference, 1e-9)
        if shared <= 0:
            return 1.0
        slow = shared / alone
        weight = self.weights.get(thread_id, 1.0)
        return 1.0 + (slow - 1.0) * weight

    # -- arbitration -----------------------------------------------------------
    def _slowdowns(self, now: int) -> dict[int, float]:
        """All active threads' slowdowns, incrementally maintained.

        The returned mapping holds exactly the threads with
        ``T_shared > 0`` or outstanding reads.  An entry is refreshed only
        when its thread was marked dirty by a counter change, or when the
        thread has outstanding reads (its ``T_shared`` integrates ``now``,
        so the estimate is time-dependent).  Clean idle threads keep the
        cached value — it is the result of the identical expression on
        identical inputs, so skipping the recompute is bit-exact.
        """
        cache = self._slowdown_cache
        if self._slowdown_cache_time == now and not self._sd_any_dirty:
            return cache
        t_shared = self._t_shared
        t_interference = self._t_interference
        last_change = self._last_change
        weight_by_tid = self._weight_by_tid
        outstanding = self._outstanding
        dirty = self._sd_dirty
        sd_time = self._sd_time
        for tid in range(self.num_threads):
            out = outstanding[tid]
            shared = t_shared[tid]
            if shared > 0 or out > 0:
                if dirty[tid] or (out > 0 and sd_time[tid] != now):
                    # ``slowdown(tid, now)`` inlined: identical expressions
                    # in identical order, minus the call and dict lookups
                    # (this runs for every dirty/outstanding thread on
                    # every arbitration cycle).
                    if out > 0:
                        shared += now - last_change[tid]
                    if shared <= 0:
                        cache[tid] = 1.0
                    else:
                        interference = t_interference[tid]
                        limit = shared * 0.999
                        if interference > limit:
                            interference = limit
                        alone = shared - interference
                        if alone < 1e-9:
                            alone = 1e-9
                        cache[tid] = (
                            1.0 + (shared / alone - 1.0) * weight_by_tid[tid]
                        )
                    dirty[tid] = False
                    sd_time[tid] = now
            elif dirty[tid]:
                # Left the active set (e.g. enqueue and completion in the
                # same cycle never accrued shared stall time).
                cache.pop(tid, None)
                dirty[tid] = False
        self._slowdown_cache_time = now
        self._sd_any_dirty = False
        return cache

    def refresh_index(self, now: int) -> None:
        # Slowdown estimates drift with every enqueue/completion, but they
        # only invalidate buffered keys when the *decision* they imply —
        # fair mode on/off, and which thread is slowest — changes.  Derive
        # that decision exactly as ``select`` does and bump the epoch on a
        # flip, so keys repack per flip rather than per estimate update.
        # When the slowdown table is untouched since the last derivation in
        # this same cycle (several banks arbitrating back to back), the
        # decision cannot have changed either — skip the scan.
        if self._mode_time == now and not self._sd_any_dirty:
            return
        slowdowns = self._slowdowns(now)
        self._mode_time = now
        # max/min/argmax fused into one pass; the argmax tie-break prefers
        # the lower thread id, matching ``max(key=lambda t: (s[t], -t))``.
        fair = False
        slowest = -1
        if slowdowns:
            worst = best = None
            worst_tid = -1
            for tid, estimate in slowdowns.items():
                if worst is None:
                    worst = best = estimate
                    worst_tid = tid
                else:
                    if estimate > worst or (
                        estimate == worst and tid < worst_tid
                    ):
                        worst = estimate
                        worst_tid = tid
                    if estimate < best:
                        best = estimate
            if best > 0 and worst / best > self.alpha:
                fair = True
                slowest = worst_tid
        mode = (fair, slowest)
        if mode != self._index_mode:
            self._index_mode = mode
            self.pack_prefix_shift = 40 if fair else None
            self.bump_index_epoch(now)

    def pack_key(self, request: MemoryRequest) -> int:
        # Fair mode: one boost bit (0 = the slowest thread) above the age;
        # throughput mode: pure age (the prefix is empty, matching
        # ``pack_prefix_shift`` None).
        fair, slowest = self._index_mode
        if fair:
            return (request.thread_id != slowest) << 40 | request.request_id
        return request.request_id

    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        slowdowns = self._slowdowns(now)
        open_row = self.controller.channels[bank[0]].banks[bank[1]].open_row
        if slowdowns:
            worst = max(slowdowns.values())
            best = min(slowdowns.values())
            if best > 0 and worst / best > self.alpha:
                slowest = max(slowdowns, key=lambda t: (slowdowns[t], -t))
                return min(
                    candidates,
                    key=lambda r: (
                        r.thread_id != slowest,
                        r.row != open_row,
                        r.arrival_time,
                        r.request_id,
                    ),
                )
        # Fair enough: maximize throughput with FR-FCFS.
        return min(
            candidates,
            key=lambda r: (r.row != open_row, r.arrival_time, r.request_id),
        )
