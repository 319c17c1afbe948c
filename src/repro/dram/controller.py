"""Event-driven DRAM memory controller.

The controller owns the request buffer, the write buffer, and the channel /
bank / bus models.  Arbitration is delegated to a pluggable
:class:`~repro.schedulers.base.Scheduler`.  Policy invariants implemented
here, common to every scheduler in the paper (Section 7.2):

* read requests are prioritized over write requests, except when the write
  buffer exceeds its drain watermark;
* at most one request is in service per bank; the bank executes its full
  command sequence with DDR2 timing (see :mod:`repro.dram.bank`);
* one command-bus slot (one DRAM clock) separates issue decisions on a
  channel.

Buffered reads are kept per bank in row buckets
(:class:`~repro.dram.buffers.BankReads`), and every read decision is the
scheduler's reference scan, :meth:`~repro.schedulers.base.Scheduler.select`,
over the bank's candidates.  The fast backend
(:mod:`repro.dram.fastctl`) answers the same decisions from packed keys.

Per-thread statistics gathered here feed the paper's metrics: bank-level
parallelism (BLP, the time-average number of banks concurrently servicing a
thread while at least one is), row-buffer hit rate, and request latencies
including the worst case.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..events import EventQueue
from .buffers import BankReads, WriteFifo
from .channel import Channel
from .request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..config import DramConfig
    from ..obs.sampler import Telemetry
    from ..obs.trace import Tracer
    from ..schedulers.base import Scheduler
    from .bank import Bank

__all__ = ["MemoryController", "ThreadMemStats"]


@dataclass(slots=True)
class ThreadMemStats:
    """Per-thread statistics collected by the controller."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_conflicts: int = 0
    latency_sum: int = 0
    latency_max: int = 0
    # BLP accounting: integral of (#banks servicing this thread) over the
    # time at least one bank is servicing it.
    blp_integral: float = 0.0
    busy_time: int = 0
    in_service: int = 0
    _last_change: int = 0

    def _advance(self, now: int) -> None:
        if self.in_service > 0:
            span = now - self._last_change
            self.blp_integral += span * self.in_service
            self.busy_time += span
        self._last_change = now

    # ``_advance`` is inlined in both transitions: they run twice per read
    # on the controller's issue/completion paths.
    def service_started(self, now: int) -> None:
        in_service = self.in_service
        if in_service > 0:
            span = now - self._last_change
            self.blp_integral += span * in_service
            self.busy_time += span
        self._last_change = now
        self.in_service = in_service + 1

    def service_finished(self, now: int) -> None:
        in_service = self.in_service
        if in_service > 0:
            span = now - self._last_change
            self.blp_integral += span * in_service
            self.busy_time += span
        self._last_change = now
        self.in_service = in_service - 1

    @property
    def bank_level_parallelism(self) -> float:
        """Average number of requests in service while any is (paper §7)."""
        return self.blp_integral / self.busy_time if self.busy_time else 0.0

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_conflicts
        return self.row_hits / total if total else 0.0

    @property
    def avg_latency(self) -> float:
        total = self.reads + self.writes
        return self.latency_sum / total if total else 0.0


class MemoryController:
    """Shared DRAM controller for a CMP."""

    def __init__(
        self,
        queue: EventQueue,
        config: "DramConfig",
        scheduler: "Scheduler",
        num_threads: int,
        tracer: "Tracer | None" = None,
        telemetry: "Telemetry | None" = None,
        guard=None,
    ) -> None:
        self.queue = queue
        # Robustness: runtime invariant checker (probe-or-None, like the
        # trace probes — ``--guard off`` leaves every hook site None).
        self.guard = guard
        # Observability: per-category probes resolve to None when tracing
        # is off (or the category is filtered), so every instrumented hot
        # path below guards with a single local `is not None` check.
        self.tracer = tracer
        self.telemetry = telemetry
        if tracer is not None:
            self._p_req = tracer.probe("request")
            self._p_cmd = tracer.probe("dram")
        else:
            self._p_req = None
            self._p_cmd = None
        # Request ids are allocated from a process-global counter; trace
        # events carry ids relative to the run's first request so streams
        # are identical across worker processes (determinism contract).
        self._req_base: int | None = None
        self.config = config
        self.scheduler = scheduler
        self.num_threads = num_threads
        self.timing = config.timing
        self.channels = [
            Channel(config.timing, config.num_banks, channel_id=c)
            for c in range(config.num_channels)
        ]
        # Pending (not yet issued) requests per (channel, bank), split by
        # type: row buckets for reads, FIFOs for writes.
        self._reads: dict[tuple[int, int], BankReads] = {}
        self._writes: dict[tuple[int, int], WriteFifo] = {}
        self._write_occupancy = 0
        self._draining_writes = False
        # Buffered (not yet issued) reads per thread: kept incrementally so
        # ``pending_reads(thread_id)`` — called by batchers on the enqueue
        # path — is O(1) instead of a scan over the whole request buffer.
        self._reads_per_thread: dict[int, int] = defaultdict(int)
        # A wake event is pending per bank at this time (dedup), plus one
        # reusable wake callback per bank so scheduling a wake does not
        # allocate a fresh closure.
        self._bank_wake: dict[tuple[int, int], int] = {}
        self._wake_cbs = {
            (c, b): (lambda key=(c, b): self._wake(key))
            for c in range(config.num_channels)
            for b in range(config.num_banks)
        }

        # Verify-mode hook: when a list is assigned here, every issued
        # command appends one comparable tuple (run-relative id, placement,
        # full AccessOutcome timeline).  The fast-backend verify harness
        # enables it on both controllers and asserts the streams are
        # bit-identical.  ``None`` (the default) costs one load per issue.
        self.command_log: list | None = None

        # Stats appear here only for threads that actually issued requests;
        # use :meth:`stats_for` for lookups that must tolerate absent threads.
        self.thread_stats: dict[int, ThreadMemStats] = {}
        self.total_reads = 0
        self.total_writes = 0
        self.read_occupancy = 0
        self.peak_read_occupancy = 0

        if guard is not None:
            # Before scheduler.attach: the scheduler/batcher attach path
            # reads ``controller.guard`` to bind their own hooks.
            guard.attach_controller(self)
        scheduler.attach(self)

    # ------------------------------------------------------------------ API
    def pending_reads(self, thread_id: int | None = None) -> int:
        """Number of buffered (not yet issued) read requests."""
        if thread_id is None:
            return self.read_occupancy
        return self._reads_per_thread.get(thread_id, 0)

    @property
    def write_occupancy(self) -> int:
        """Number of buffered (not yet issued) write requests."""
        return self._write_occupancy

    @property
    def draining_writes(self) -> bool:
        """Whether the controller is currently in write-drain mode."""
        return self._draining_writes

    def _rid(self, request: MemoryRequest) -> int:
        """Run-relative request id used in trace events (deterministic
        across processes; the raw global id is not)."""
        base = self._req_base
        if base is None:
            base = self._req_base = request.request_id
        return request.request_id - base

    def stats_for(self, thread_id: int) -> ThreadMemStats:
        """Statistics for ``thread_id``; an explicit zeroed record when the
        thread never issued a memory request (nothing is inserted)."""
        stats = self.thread_stats.get(thread_id)
        return stats if stats is not None else ThreadMemStats()

    def _stats(self, thread_id: int) -> ThreadMemStats:
        stats = self.thread_stats.get(thread_id)
        if stats is None:
            stats = self.thread_stats[thread_id] = ThreadMemStats()
        return stats

    def buffered_reads(self) -> Iterator[MemoryRequest]:
        """Iterate over every buffered (not yet issued) read request."""
        for index in self._reads.values():
            for bucket in index.rows.values():
                yield from bucket

    def buffered_read_threads(self, key: tuple[int, int]) -> Mapping[int, int]:
        """Threads with buffered reads on one (channel, bank), with counts
        (an incrementally maintained view; do not mutate)."""
        index = self._reads.get(key)
        return index.thread_counts if index is not None else {}

    def read_indexes(
        self,
    ) -> Iterable[tuple[tuple[int, int], BankReads]]:
        """Per-bank read buffers with at least one buffered request."""
        return ((key, index) for key, index in self._reads.items() if index.size)

    def enqueue(self, request: MemoryRequest) -> None:
        """Accept a new request from a core/cache."""
        now = self.queue.now
        request.arrival_time = now
        key = (request.channel, request.bank)
        probe = self._p_req
        if probe is not None:
            probe.emit(
                now,
                "request.enqueue",
                req=self._rid(request),
                thread=request.thread_id,
                ch=request.channel,
                bank=request.bank,
                row=request.row,
                rw="R" if request.is_read else "W",
            )
        if request.is_read:
            index = self._reads.get(key)
            if index is None:
                index = self._reads[key] = BankReads()
            index.add(request)
            self._reads_per_thread[request.thread_id] += 1
            self.read_occupancy += 1
            if self.read_occupancy > self.peak_read_occupancy:
                self.peak_read_occupancy = self.read_occupancy
            self.total_reads += 1
            self.scheduler.on_enqueue(request, now)
        else:
            fifo = self._writes.get(key)
            if fifo is None:
                fifo = self._writes[key] = WriteFifo()
            fifo.push(request)
            self._write_occupancy += 1
            self.total_writes += 1
            if (
                self._write_occupancy > self.config.write_drain_high
                and not self._draining_writes
            ):
                self._draining_writes = True
                cmd_probe = self._p_cmd
                if cmd_probe is not None:
                    cmd_probe.emit(
                        now, "dram.drain", on=1, writes=self._write_occupancy
                    )
            self.scheduler.on_enqueue(request, now)
        guard = self.guard
        if guard is not None:
            # After the scheduler hooks: marking/batching state is settled,
            # and the per-bank thread counts include this request (the
            # batch-bound deadline is derived from them).
            guard.on_enqueue(request, now)
        self._schedule_wake(key, now)

    # --------------------------------------------------------- event plumbing
    def _schedule_wake(self, key: tuple[int, int], when: int) -> None:
        """Schedule an arbitration attempt for bank ``key`` at ``when``,
        deduplicating redundant wakes."""
        pending = self._bank_wake.get(key)
        if pending is not None and pending <= when:
            return
        self._bank_wake[key] = when
        self.queue.schedule(when, self._wake_cbs[key], priority=1)

    def _wake(self, key: tuple[int, int]) -> None:
        # ``_bank_wake[key]`` is the earliest pending wake time for the
        # bank; it can only move earlier while set, and the event at that
        # time clears it.  Any event that fires without matching it is a
        # superseded leftover: an earlier wake already arbitrated (and
        # rescheduled if anything was left to do), so just drop it.
        if self._bank_wake.get(key) != self.queue.now:
            return
        del self._bank_wake[key]
        self._try_issue(key)

    def _try_issue(self, key: tuple[int, int]) -> None:
        channel_id, bank_id = key
        channel = self.channels[channel_id]
        bank = channel.banks[bank_id]
        now = self.queue.now
        busy_until = bank.busy_until
        if busy_until > now:
            self._schedule_wake(key, busy_until)
            return
        request = self._pick(key, now)
        if request is None:
            return
        # Consume a command-bus slot; if the command bus pushes us into the
        # future, retry then rather than issuing early.
        slot = channel.try_command_slot(now)
        if slot > now:
            self._schedule_wake(key, slot)
            return
        self._issue(request, key, now, channel, bank)

    def _pick(self, key: tuple[int, int], now: int) -> MemoryRequest | None:
        if self._write_occupancy:
            writes = self._writes.get(key)
            has_writes = writes is not None and writes.size > 0
            if has_writes and self._draining_writes:
                return writes.peek()
        else:
            writes = None
            has_writes = False
        index = self._reads.get(key)
        if index is not None and index.size > 0:
            return self.scheduler.select(list(index.requests()), key, now)
        if has_writes:
            return writes.peek()
        return None

    def _issue(
        self,
        request: MemoryRequest,
        key: tuple[int, int],
        now: int,
        channel: Channel,
        bank: "Bank",
    ) -> None:
        guard = self.guard
        if guard is not None:
            # Before any buffer mutation: a scheduler that double-issues is
            # caught here as a structured violation, not as corruption of
            # the request buffers below.
            guard.on_pre_issue(request, key, now)
        if request.is_read:
            self._reads[key].remove(request)
            self._reads_per_thread[request.thread_id] -= 1
            self.read_occupancy -= 1
        else:
            self._writes[key].remove(request)
            self._write_occupancy -= 1
            if (
                self._write_occupancy <= self.config.write_drain_low
                and self._draining_writes
            ):
                self._draining_writes = False
                cmd_probe = self._p_cmd
                if cmd_probe is not None:
                    cmd_probe.emit(
                        now, "dram.drain", on=0, writes=self._write_occupancy
                    )
        request.issue_time = now
        outcome = bank.service(request, now, channel.bus)
        request.service_outcome = outcome
        if guard is not None:
            guard.on_post_issue(request, outcome, key, now)
        probe = self._p_req
        if probe is not None:
            probe.emit(
                now,
                "request.issue",
                req=self._rid(request),
                thread=request.thread_id,
                ch=request.channel,
                bank=request.bank,
                row=request.row,
                result=outcome.row_result,
                queued=now - request.arrival_time,
            )
        cmd_probe = self._p_cmd
        if cmd_probe is not None:
            self._emit_cmds(request, outcome)
        log = self.command_log
        if log is not None:
            log.append(
                (
                    now,
                    self._rid(request),
                    request.thread_id,
                    request.channel,
                    request.bank,
                    request.row,
                    request.is_read,
                )
                + outcome.as_tuple()
            )

        stats = self._stats(request.thread_id)
        if request.is_read:
            # BLP (paper §7) is defined over the thread's demand requests.
            stats.service_started(now)
        if outcome.row_result == "hit":
            stats.row_hits += 1
        else:
            stats.row_conflicts += 1

        self.scheduler.on_issue(request, now)
        self.queue.schedule(
            outcome.completion, lambda: self._complete(request), priority=0
        )
        # The bank can take its next request once this access releases it.
        self._schedule_wake(key, outcome.bank_free)

    def _emit_cmds(self, request: MemoryRequest, outcome) -> None:
        """Emit the DDR command sequence (PRE/ACT/RD|WR) the bank laid out.

        Timestamps come from the :class:`~repro.dram.bank.AccessOutcome`,
        so the events carry true command times even though they are emitted
        at issue time (viewers sort by ``ts``).
        """
        probe = self._p_cmd
        rid = self._rid(request)
        ch = request.channel
        bank = request.bank
        row = request.row
        if outcome.precharge_at is not None:
            probe.emit(
                outcome.precharge_at, "dram.cmd", cmd="PRE", ch=ch, bank=bank,
                req=rid,
            )
        if outcome.activate_at is not None:
            probe.emit(
                outcome.activate_at, "dram.cmd", cmd="ACT", ch=ch, bank=bank,
                row=row, req=rid,
            )
        probe.emit(
            outcome.cas_at,
            "dram.cmd",
            cmd="RD" if request.is_read else "WR",
            ch=ch,
            bank=bank,
            row=row,
            req=rid,
            row_hit=1 if outcome.row_result == "hit" else 0,
        )

    def _complete(self, request: MemoryRequest) -> None:
        now = self.queue.now
        request.completion_time = now
        stats = self._stats(request.thread_id)
        if request.is_read:
            stats.service_finished(now)
        latency = request.latency + self.timing.overhead
        stats.latency_sum += latency
        if latency > stats.latency_max:
            stats.latency_max = latency
        if request.is_read:
            stats.reads += 1
        else:
            stats.writes += 1
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.record_latency(request.thread_id, latency)
        probe = self._p_req
        if probe is not None:
            probe.emit(
                now,
                "request.complete",
                req=self._rid(request),
                thread=request.thread_id,
                ch=request.channel,
                bank=request.bank,
                latency=latency,
            )
        guard = self.guard
        if guard is not None:
            guard.on_complete(request, now)
        self.scheduler.on_complete(request, now)
        if request.on_complete is not None:
            # The fixed controller/interconnect overhead is charged on the
            # response path.
            self.queue.schedule(
                now + self.timing.overhead,
                lambda: request.on_complete(request),
                priority=2,
            )

    def release(self) -> None:
        """Drop the engine references after the run (and have the
        scheduler and guard drop theirs); state and statistics stay."""
        self._wake_cbs = {}
        self.scheduler.release()
        if self.guard is not None:
            self.guard.release()

    # ------------------------------------------------------------- reporting
    def worst_case_latency(self) -> int:
        """Worst request latency observed across all threads."""
        return max((s.latency_max for s in self.thread_stats.values()), default=0)

    def outstanding(self) -> int:
        """Requests waiting in the buffers (not yet issued)."""
        return self.read_occupancy + self._write_occupancy
