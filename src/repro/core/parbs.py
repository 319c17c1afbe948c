"""PAR-BS: the Parallelism-Aware Batch Scheduler (the paper's contribution).

Combines a :mod:`batching <repro.core.batcher>` engine with
:mod:`within-batch ranking <repro.core.ranking>` and applies the request
prioritization rules of Rule 2 (extended with the thread-priority rule of
Section 5):

1. **BS** — marked requests first;
2. **PRIORITY** — higher-priority (lower level) threads first;
3. **RH** — row-hit requests first;
4. **RANK** — higher-ranked threads first (Max-Total by default);
5. **FCFS** — older requests first.

The within-batch component is configurable for the Section 8.3.3
ablations: ``within_batch="par"`` uses a thread ranking (parallelism-aware),
``"frfcfs"`` and ``"fcfs"`` drop the ranking and fall back to the named
policy inside batches, isolating the effect of parallelism-awareness from
batching itself.
"""

from __future__ import annotations

from typing import Sequence

from ..dram.request import MemoryRequest
from ..schedulers.base import BankKey, Scheduler
from .batcher import (
    OPPORTUNISTIC,
    AdaptiveCapBatcher,
    Batcher,
    EslotBatcher,
    FullBatcher,
    StaticBatcher,
)
from .ranking import UNRANKED, ThreadRanking, make_ranking

__all__ = ["ParBsScheduler", "OPPORTUNISTIC"]


class ParBsScheduler(Scheduler):
    """Parallelism-aware batch scheduling.

    Parameters
    ----------
    num_threads:
        Number of hardware threads sharing the controller.
    marking_cap:
        ``Marking-Cap`` — maximum requests marked per thread per bank when a
        batch forms.  ``None`` disables the cap (paper's "no-c").
    batching:
        ``"full"`` (default), ``"static"`` or ``"eslot"`` (Section 4.4),
        ``"adaptive"`` (full batching with a self-tuning cap — the
        future-work extension of Section 8.3.1), or a pre-built
        :class:`~repro.core.batcher.Batcher`.
    batch_duration:
        Interval for static batching, in cycles.
    within_batch:
        ``"par"`` (ranking-based, default), ``"frfcfs"`` or ``"fcfs"``.
    ranking:
        Ranking scheme name for ``within_batch="par"``: ``"max-total"``
        (default), ``"total-max"``, ``"random"`` or ``"round-robin"``.
    priorities:
        Optional thread-priority levels (1 = highest); threads at
        :data:`OPPORTUNISTIC` receive purely opportunistic service.
    seed:
        Seed for random tie-breaking in rankings.
    """

    name = "PAR-BS"

    def __init__(
        self,
        num_threads: int,
        marking_cap: int | None = 5,
        batching: str | Batcher = "full",
        batch_duration: int | None = None,
        within_batch: str = "par",
        ranking: str | ThreadRanking = "max-total",
        priorities: dict[int, int] | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        self.num_threads = num_threads
        self.priorities = dict(priorities or {})

        if isinstance(batching, Batcher):
            self.batcher = batching
        elif batching == "full":
            self.batcher = FullBatcher(marking_cap=marking_cap, priorities=self.priorities)
        elif batching == "eslot":
            self.batcher = EslotBatcher(marking_cap=marking_cap, priorities=self.priorities)
        elif batching == "adaptive":
            self.batcher = AdaptiveCapBatcher(priorities=self.priorities)
        elif batching == "static":
            if batch_duration is None:
                raise ValueError("static batching requires batch_duration")
            self.batcher = StaticBatcher(
                batch_duration, marking_cap=marking_cap, priorities=self.priorities
            )
        else:
            raise ValueError(f"unknown batching discipline {batching!r}")
        self.batcher.on_new_batch = self._on_new_batch

        if within_batch not in ("par", "frfcfs", "fcfs"):
            raise ValueError(f"unknown within-batch policy {within_batch!r}")
        self.within_batch = within_batch
        # Packed-key protocol: the scan key is (marked, priority, row_hit,
        # [rank,] age), so marked+priority form the prefix that outranks row
        # hits; the "fcfs" ablation ignores the row buffer entirely.  Keys
        # stay valid between batch boundaries — marks and ranks change only
        # when a batch forms, which bumps the epoch in ``_on_new_batch``.
        # The packed layouts stack the non-row fields above the 40 age
        # bits — ranked: (not-marked | priority:21 | rank:31 | id:40),
        # plain: (not-marked | priority:21 | id:40).  Rank values are
        # thread positions or ``UNRANKED`` (2**30), so 31 bits hold them;
        # priority levels top out at ``OPPORTUNISTIC`` (2**20).  The prefix
        # (marked, priority) sits above the shift in both layouts.
        if any(level < 0 or level >= 1 << 21 for level in self.priorities.values()):
            raise ValueError("priority levels must be in [0, 2**21)")
        self.index_uses_row = within_batch != "fcfs"
        self.pack_prefix_shift = 31 + 40 if within_batch == "par" else 40
        if within_batch == "par":
            self.ranking: ThreadRanking | None = (
                ranking if isinstance(ranking, ThreadRanking) else make_ranking(ranking, seed)
            )
            self.name = f"PAR-BS/{self.batcher.name}/{self.ranking.name}"
        else:
            self.ranking = None
            self.name = f"BS/{self.batcher.name}/{within_batch}"
        self._ranks: dict[int, int] = {}
        # Flat per-thread mirrors of the rank and priority tables: both sit
        # on the packed-key hot path (every enqueue, plus every buffered
        # request on a key repack), where a list index beats a dict
        # ``get`` with a default.  Thread ids are dense by construction.
        self._rank_by_tid: list[int] = [UNRANKED] * num_threads
        self._prio_by_tid: list[int] = [
            self.priorities.get(tid, 1) for tid in range(num_threads)
        ]
        # Completion handling is pure delegation (see ``on_complete`` below,
        # kept for introspection/subclassing); the instance binding skips the
        # wrapper frame on every request completion.  Same for enqueue when
        # no thread priorities are configured: every request already arrives
        # with ``priority_level == 1`` (the constructor default), so the
        # wrapper's store is redundant and ``on_enqueue`` reduces to the
        # batcher notification.
        self.on_complete = self.batcher.request_completed
        if not self.priorities:
            self.on_enqueue = self.batcher.request_arrived

    # -- wiring ----------------------------------------------------------------
    def attach(self, controller) -> None:  # type: ignore[override]
        super().attach(controller)
        self.batcher.attach(controller)
        if isinstance(self.batcher, StaticBatcher):
            self._schedule_static_tick()

    def release(self) -> None:
        super().release()
        self.batcher.release()

    def _schedule_static_tick(self) -> None:
        batcher = self.batcher
        assert isinstance(batcher, StaticBatcher)
        queue = self.controller.queue
        # A periodic task, not a self-rescheduling closure: a closure that
        # names itself is a reference cycle.
        queue.schedule_every(
            batcher.batch_duration, lambda: batcher.tick(queue.now), priority=3
        )

    def _on_new_batch(self, marked: list[MemoryRequest], now: int = 0) -> None:
        # A batch boundary rewrites marks (and possibly ranks) across the
        # whole buffer: every cached packed key is stale.
        self.bump_index_epoch(now)
        if self.ranking is not None:
            # Per the paper's hardware sketch (Section 6), the Max-Total
            # ranking registers count all buffered requests, so the ranking
            # is computed over every thread's full backlog; threads with
            # little or no backlog rank highest (shortest job first).
            backlog = list(self.controller.buffered_reads())
            self._ranks = self.ranking.rank(backlog, threads=range(self.num_threads))
            ranks = self._ranks
            rank_by_tid = self._rank_by_tid
            for tid in range(self.num_threads):
                rank_by_tid[tid] = ranks.get(tid, UNRANKED)
            guard = self._guard
            if guard is not None:
                guard.on_ranks(self._ranks, marked, now)
        probe = self.batcher._p_batch
        if probe is not None and marked:
            per_thread: dict[int, int] = {}
            for request in marked:
                tid = request.thread_id
                per_thread[tid] = per_thread.get(tid, 0) + 1
            controller = self.controller
            probe.emit(
                now,
                "batch.formed",
                index=self.batcher.batch_index,
                marked=len(marked),
                per_thread=dict(sorted(per_thread.items())),
                ranks=dict(sorted(self._ranks.items())),
                backlog={
                    tid: controller.pending_reads(tid)
                    for tid in sorted(per_thread)
                },
            )

    # -- lifecycle hooks ---------------------------------------------------------
    def on_enqueue(self, request: MemoryRequest, now: int) -> None:
        request.priority_level = self._prio_by_tid[request.thread_id]
        self.batcher.request_arrived(request, now)

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        self.batcher.request_completed(request, now)

    # -- arbitration ----------------------------------------------------------------
    def rank_of(self, thread_id: int) -> int:
        return self._ranks.get(thread_id, UNRANKED)

    @property
    def pack_key(self):  # type: ignore[override]
        # Not bound in ``__init__``: a stored bound method is a reference
        # cycle.  Readers fetch it per key push or repack.
        if self.within_batch == "par":
            return self._pack_key_ranked
        return self._pack_key_plain

    def _pack_key_ranked(self, request: MemoryRequest) -> int:
        return (
            (not request.marked) << 92
            | request.priority_level << 71
            | self._rank_by_tid[request.thread_id] << 40
            | request.request_id
        )

    def _pack_key_plain(self, request: MemoryRequest) -> int:
        return (
            (not request.marked) << 61
            | request.priority_level << 40
            | request.request_id
        )

    def _key(self, request: MemoryRequest) -> tuple:
        marked_first = not request.marked
        priority = request.priority_level
        row_hit_first = not self._row_hit(request)
        age = (request.arrival_time, request.request_id)
        if self.within_batch == "par":
            return (marked_first, priority, row_hit_first, self.rank_of(request.thread_id), *age)
        if self.within_batch == "frfcfs":
            return (marked_first, priority, row_hit_first, *age)
        return (marked_first, priority, *age)  # fcfs

    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        # Arbitration runs on every bank wake: resolve the bank's open row
        # and the rank table once per call instead of re-deriving row-hit
        # status and chasing attributes for every candidate (see _key for
        # the rule order being encoded).
        open_row = self.controller.channels[bank[0]].banks[bank[1]].open_row
        if self.within_batch == "par":
            ranks = self._ranks
            unranked = UNRANKED
            return min(
                candidates,
                key=lambda r: (
                    not r.marked,
                    r.priority_level,
                    r.row != open_row,
                    ranks.get(r.thread_id, unranked),
                    r.arrival_time,
                    r.request_id,
                ),
            )
        if self.within_batch == "frfcfs":
            return min(
                candidates,
                key=lambda r: (
                    not r.marked,
                    r.priority_level,
                    r.row != open_row,
                    r.arrival_time,
                    r.request_id,
                ),
            )
        return min(
            candidates,
            key=lambda r: (not r.marked, r.priority_level, r.arrival_time, r.request_id),
        )
