"""Fast-backend memory controller and DRAM port.

:class:`FastMemoryController` is the drop-in controller of the ``fast``
simulation backend (``--backend fast`` / ``REPRO_BACKEND``).  It produces a
**bit-identical event trajectory** to the reference
:class:`~repro.dram.controller.MemoryController`: every event is scheduled
at the same (time, priority) with a sequence number drawn from the same
``EventQueue._seq`` counter at the same points, so same-cycle arbitration
races — command-bus slot contention between banks, completion vs. wake
ordering — resolve exactly as on the python path.  What changes is the
cost of each event:

* heap entries are pre-bound ``(when, priority, seq, fn, arg)`` tuples
  pushed straight onto the queue's heap — no per-request closure
  allocations (the python path allocates four lambdas per read);
* the wake → try-issue → pick → issue chain is fused into one call with
  per-bank structures resolved by flat-array indexing (``kid = channel *
  num_banks + bank``) instead of repeated dict lookups;
* bank/bus/command-slot timing state lives in the flat arrays of
  :class:`~repro.dram.fastbank.FastDramState` instead of object attribute
  chains;
* arbitration runs on the packed-key kernel
  (:class:`~repro.dram.fastsched.FastBankSched`): per-bank row-bucketed
  candidate arrays with integer sort keys and cached minima, so a
  decision reads two cached entries instead of scanning the candidates.
  A policy without ``pack_key`` (a custom, scan-only scheduler) is
  scanned with its ``select``, exactly as on the python path;
* wakes that the python path provably wastes are *elided*: an enqueue to
  a busy bank arms the wake directly at the bank-free time instead of
  pushing an immediate wake whose only effect is to reschedule itself
  (and, when that target wake is already armed, leave a superseded
  duplicate behind).  Each elision counts into ``events_elided`` so the
  two backends agree on *logical* events (``events_processed +
  events_elided``), and the surviving events draw their sequence numbers
  at the same relative points — command streams stay bit-identical.

Each step of the read path is one call to the method the kernel tests
check: ``BankReads.add`` and ``FastBankSched.push`` at enqueue,
``Scheduler.select_indexed`` for every contended packed decision,
``FastBankSched.remove`` at issue, ``FastDramState.service_tuple`` for
the timeline and ``ThreadMemStats.service_started``/``service_finished``
for the stats.  The scheduler hooks, guard hooks and trace probes are the
*same objects and call sites* as the python path — the strict guard's
shadow DDR checker certifies the fast kernel exactly as it does the
reference one.

:class:`FastDramPort` is the matching core-side adapter: it memoizes
address → (channel, bank, row) decodes and exposes a ``fast_access``
protocol that carries the core's data-return callback as a pre-bound
``(fn, arg)`` pair instead of a closure.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable

from .bank import AccessOutcome
from .buffers import WriteFifo
from .controller import MemoryController
from .fastbank import FastDramState
from .fastsched import FastBankSched
from .request import MemoryRequest, RequestType, _request_ids

if TYPE_CHECKING:  # pragma: no cover
    from ..config import DramConfig
    from ..events import EventQueue
    from ..schedulers.base import Scheduler
    from .address import AddressMapping

__all__ = ["FastMemoryController", "FastDramPort"]

_READ = RequestType.READ
_WRITE = RequestType.WRITE


class FastMemoryController(MemoryController):
    """Reference controller semantics on the flat-array timing kernel."""

    def __init__(
        self,
        queue: "EventQueue",
        config: "DramConfig",
        scheduler: "Scheduler",
        num_threads: int,
        tracer=None,
        telemetry=None,
        guard=None,
    ) -> None:
        super().__init__(
            queue,
            config,
            scheduler,
            num_threads,
            tracer=tracer,
            telemetry=telemetry,
            guard=guard,
        )
        num_banks = config.num_banks
        self._num_banks = num_banks
        self.fast = FastDramState(
            config.timing, config.num_channels, num_banks
        )
        # Pre-create every per-bank structure so the hot path replaces
        # keyed dict lookups with one flat-list index.  Pre-created empty
        # indexes are invisible to the controller API: every reader
        # filters on ``size``.  Reads live in the packed-key kernel
        # (:class:`FastBankSched`), a ``BankReads`` subclass, so the
        # batcher, guard and scan path read its membership unchanged.
        self._kid_reads: list[FastBankSched] = []
        self._kid_writes: list[WriteFifo] = []
        self._kid_key: list[tuple[int, int]] = []
        self._kid_bank = []
        for c in range(config.num_channels):
            for b in range(num_banks):
                key = (c, b)
                index = self._reads[key] = FastBankSched()
                fifo = self._writes.get(key)
                if fifo is None:
                    fifo = self._writes[key] = WriteFifo()
                self._kid_reads.append(index)
                self._kid_writes.append(fifo)
                self._kid_key.append(key)
                self._kid_bank.append(self.channels[c].banks[b])
        # Earliest pending wake per bank (None = no wake armed): the same
        # dedup protocol as the python path's ``_bank_wake`` dict, as a
        # flat list.
        self._kid_wake: list[int | None] = [None] * (
            config.num_channels * num_banks
        )
        # With telemetry attached, the periodic sampler reads the
        # ``DataBus`` objects mid-run, so mirror bus counters per issue;
        # otherwise the arrays are the only state until :meth:`sync_state`.
        self._mirror_bus = telemetry is not None
        # Scheduler hooks resolved once: a policy that does not override a
        # base no-op hook never gets called for it (bit-identical — the
        # base method body is ``pass`` — and saves three dead calls per
        # request lifecycle for the stateless policies).
        from ..schedulers.base import Scheduler as _Base

        cls = type(scheduler)
        self._hook_enqueue = (
            scheduler.on_enqueue
            if cls.on_enqueue is not _Base.on_enqueue
            else None
        )
        self._hook_issue = (
            scheduler.on_issue if cls.on_issue is not _Base.on_issue else None
        )
        self._hook_complete = (
            scheduler.on_complete
            if cls.on_complete is not _Base.on_complete
            else None
        )
        # Scalar timing constants, pre-resolved off the attribute chain.
        self._tCK = config.timing.tCK
        self._overhead = config.timing.overhead
        # Packed-key protocol: a policy with ``pack_key`` arbitrates on
        # the kernel, one without it on its ``select`` scan.
        self._packed = scheduler.pack_key is not None
        # Wake events elided by arming enqueue-time wakes directly at the
        # bank-free time (see module docstring); ``events_processed +
        # events_elided`` equals the python backend's event count, so each
        # elision is counted exactly when the python path would *process*
        # the corresponding event:
        #
        # * the immediate wake counts at arming — it fires within the
        #   same cycle, right after the arming event (priority 1 precedes
        #   every enqueuing event's priority 2/4) — except when the run's
        #   final event armed it (see :meth:`finalize_elision`);
        # * the superseded duplicate the python path leaves at the
        #   bank-free time (its immediate's rebound lands next to an
        #   already-armed wake) is *deferred* into ``_kid_dup`` and
        #   counted when that armed wake actually fires — if the run ends
        #   first, the python path never processed it either.
        #
        # ``_kid_elide_seq[kid]`` records *which event* (by its unique
        # queue sequence number) last elided a wake for the bank: within
        # that same event the python path's immediate is still armed, so
        # further enqueues are pure no-ops there (nothing to elide).
        self.events_elided = 0
        n_kids = config.num_channels * num_banks
        self._kid_elide_seq: list[int] = [-2] * n_kids
        self._kid_dup: list[int] = [0] * n_kids
        self._phantom_seq = -2
        self._phantom_count = 0
        # Pre-bound callbacks: referencing ``self._wake_kid`` inside a heap
        # tuple allocates a fresh bound-method object per push; binding
        # once turns that into a plain attribute load.
        self._wake_kid_cb = self._wake_kid
        self._complete_cb = self._complete
        # thread_id -> ThreadMemStats as a flat list (thread ids are dense);
        # ``thread_stats`` keeps its lazy-population contract — a slot is
        # filled (and the dict entry created) at the thread's first issue.
        self._stats_by_tid: list = [None] * num_threads
        # Hot-array aliases: these list objects are created once by
        # ``FastDramState`` and only ever mutated in place, so binding them
        # here drops two attribute hops per touch on the wake path.
        self._busy_arr = self.fast.busy_until
        self._openrow_arr = self.fast.open_row
        self._lastcmd_arr = self.fast.last_command
        # Materialize the per-issue ``AccessOutcome`` object only when
        # something will read it: the guard's shadow checker, the tracer's
        # probes, or an outcome-consuming scheduler hook.  The command log
        # is checked at issue time (it can be enabled after construction).
        self._want_outcome = (
            guard is not None
            or tracer is not None
            or cls.uses_service_outcome
        )
        # Address-decode state for :meth:`fast_access`, installed by the
        # port (which owns the mapping) via :meth:`install_mapping`.
        self._coords: dict[int, tuple[int, int, int]] = {}
        self._cpr = self._nch = self._nbk = 1
        self._xor = False

    def install_mapping(self, mapping: "AddressMapping") -> None:
        """Bind the address mapping's decode constants (port setup)."""
        self._coords = {}
        self._cpr = mapping.columns_per_row
        self._nch = mapping.num_channels
        self._nbk = mapping.num_banks
        self._xor = mapping.xor_bank_hash

    def predecode(self, addresses) -> None:
        """Decode a batch of addresses into the memo (setup time).

        Traces are known before the run starts, so one pass over the
        workload's address set replaces the tens of thousands of scalar
        decode misses the run would otherwise take on its hot path.
        """
        coords = self._coords
        cpr, nch, nbk, xor = self._cpr, self._nch, self._nbk, self._xor
        for addr in addresses:
            line = (addr // 64) // cpr
            channel = line % nch
            line //= nch
            bank = line % nbk
            row = line // nbk
            if xor:
                bank ^= row % nbk
            coords[addr] = (channel, bank, row)

    # ------------------------------------------------------------- hot path
    def enqueue(self, request: MemoryRequest) -> None:
        queue = self.queue
        now = queue.now
        request.arrival_time = now
        kid = request.channel * self._num_banks + request.bank
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
            index = self._kid_reads[kid]
            index.add(request)
            self._reads_per_thread[request.thread_id] += 1
            occupancy = self.read_occupancy + 1
            self.read_occupancy = occupancy
            if occupancy > self.peak_read_occupancy:
                self.peak_read_occupancy = occupancy
            self.total_reads += 1
            hook = self._hook_enqueue
            if hook is not None:
                hook(request, now)
            # After the hook: PAR-BS marks the request (and may start a
            # batch, bumping the epoch) before its key is packed.
            if self._packed:
                index.push(request, self.scheduler)
        else:
            self._kid_writes[kid].push(request)
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
            hook = self._hook_enqueue
            if hook is not None:
                hook(request, now)
        guard = self.guard
        if guard is not None:
            guard.on_enqueue(request, now)
        # Arm the post-enqueue bank wake, eliding wakes the python path
        # provably wastes.  The reference controller always schedules a
        # wake at ``now``; when the bank is busy, that wake's only effect
        # is to reschedule itself to the bank-free time (its pick/issue
        # code never runs).  The bank cannot start another access between
        # this enqueue and that wake — only this bank's own wake issues on
        # it, and the wake-dedup slot holds at most one — so the rebound
        # target is known *now*: arm the wake directly at ``busy_until``.
        # The elided wake would have fired immediately (before any later
        # event allocates sequence numbers), so pushing its rebound here
        # preserves the relative seq order of every surviving same-cycle
        # wake — command streams stay bit-identical.  Each skipped push
        # counts into ``events_elided``.
        kid_wake = self._kid_wake
        pending = kid_wake[kid]
        if pending is not None and pending <= now:
            return
        busy = self._busy_arr[kid]
        if busy <= now:
            kid_wake[kid] = now
            heappush(queue._heap, (now, 1, queue._seq, self._wake_kid_cb, kid))
            queue._seq += 1
            return
        cur = queue.now_seq
        if pending == busy:
            # A wake is already armed exactly at the bank-free time.
            # Unless this event already elided for the bank (in which case
            # the python path's immediate is still pending and it enqueues
            # as a pure no-op), the python path spends an immediate wake
            # plus the superseded duplicate its rebound leaves behind —
            # both dead.  The duplicate is deferred: it only counts if the
            # armed wake actually fires.
            if self._kid_elide_seq[kid] == cur:
                return
            self._kid_dup[kid] += 1
        else:
            kid_wake[kid] = busy
            heappush(queue._heap, (busy, 1, queue._seq, self._wake_kid_cb, kid))
            queue._seq += 1
        self._kid_elide_seq[kid] = cur
        self.events_elided += 1
        if self._phantom_seq == cur:
            self._phantom_count += 1
        else:
            self._phantom_seq = cur
            self._phantom_count = 1

    def fast_access(
        self,
        thread_id: int,
        address: int,
        fn: Callable | None,
        arg: object,
    ) -> None:
        """Closure-free read entry point (cores call this once per read —
        see ``Core._send``): decode, build the request and :meth:`enqueue`
        it.  On completion the controller calls ``fn(arg)`` directly.

        Requests are built by direct slot stores instead of the dataclass
        ``__init__`` — the generated initializer plus ``__post_init__``
        costs ~1µs per request, a measurable slice of the fast backend's
        per-read budget.  ``test_fastsim`` pins this field-for-field
        against the dataclass constructor.  Writes are sent through
        :meth:`FastDramPort.access`.
        """
        coords = self._coords.get(address)
        if coords is None:
            self.predecode((address,))
            coords = self._coords[address]
        request = MemoryRequest.__new__(MemoryRequest)
        request.thread_id = thread_id
        request.address = address
        request.channel, request.bank, request.row = coords
        request.type = _READ
        request.request_id = next(_request_ids)
        request.issue_time = None
        request.completion_time = None
        request.marked = False
        request.priority_level = 1
        request.virtual_finish = 0.0
        request.on_complete = fn
        request.on_complete_arg = arg
        request.service_outcome = None
        request.is_read = True
        self.enqueue(request)

    def _wake_kid(self, kid: int) -> None:
        """Fused wake → try-issue → pick → issue for bank ``kid``."""
        queue = self.queue
        now = queue.now
        kid_wake = self._kid_wake
        if kid_wake[kid] != now:
            return  # superseded leftover; an earlier wake already ran
        kid_wake[kid] = None
        dups = self._kid_dup[kid]
        if dups:
            # The python path processes its superseded duplicates at this
            # same firing time; they are now provably spent.
            self.events_elided += dups
            self._kid_dup[kid] = 0
        busy_until = self._busy_arr[kid]
        if busy_until > now:
            kid_wake[kid] = busy_until
            heappush(
                queue._heap, (busy_until, 1, queue._seq, self._wake_kid_cb, kid)
            )
            queue._seq += 1
            return
        key = self._kid_key[kid]
        index = self._kid_reads[kid]
        if self._write_occupancy:
            writes = self._kid_writes[kid]
            has_writes = writes.size > 0
        else:
            writes = None
            has_writes = False
        if index.size == 0 and not has_writes:
            return
        # -- command-bus slot ---------------------------------------------
        # Hoisted above the pick: the slot condition is independent of the
        # arbitration outcome, and the packed-key decision is pure modulo
        # memoization, so when the slot is booked the reference's
        # pick-then-discard is skipped wholesale and the bank re-arms at
        # the slot exactly as the reference does.  Guarded by the
        # emptiness check above: an empty bank returns without re-arming
        # on both backends.
        channel_id = key[0]
        lastcmd = self._lastcmd_arr
        slot = lastcmd[channel_id] + self._tCK
        if slot > now:
            if (
                not self._packed
                and index.size
                and not (has_writes and self._draining_writes)
            ):
                # A scan-only policy's ``select`` may keep state (the
                # round-robin example advances its turn), so consult it
                # wherever the reference does, discarded pick included.
                self.scheduler.select(list(index.requests()), key, now)
            # ``kid_wake[kid]`` was just cleared, so the pending-wake
            # test of the reference path is vacuously true here.
            kid_wake[kid] = slot
            heappush(
                queue._heap, (slot, 1, queue._seq, self._wake_kid_cb, kid)
            )
            queue._seq += 1
            return
        # -- pick (the reference ``_pick``) -------------------------------
        size = index.size
        if size == 0 or (has_writes and self._draining_writes):
            # No reads means writes are pending (the emptiness check above).
            request = writes.peek()
        elif not self._packed:
            request = self.scheduler.select(list(index.requests()), key, now)
        elif size == 1:
            # Forced decision: with exactly one buffered read, every policy
            # returns it — skip arbitration entirely (no refresh_index, no
            # epoch check, no key rebuild).  The packed-key decision is
            # pure modulo memoization, so the skipped consultation has no
            # observable effect; scheduler epoch state re-derives at the
            # next contended arbitration from the same counters the
            # reference backend sees there, and a stale key array is
            # dropped exactly on removal (see ``FastBankSched.remove``).
            for bucket in index.rows.values():
                request = bucket[0]
                break
        else:
            request = self.scheduler.select_indexed(
                index, key, now, self._openrow_arr[kid]
            )
        # Slot availability was checked before the pick; book it now.
        lastcmd[channel_id] = now
        # -- issue (reference ``_issue`` fused) ---------------------------
        guard = self.guard
        if guard is not None:
            guard.on_pre_issue(request, key, now)
        is_read = request.is_read
        if is_read:
            index.remove(request)
            self._reads_per_thread[request.thread_id] -= 1
            self.read_occupancy -= 1
        else:
            self._kid_writes[kid].remove(request)
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
        row = request.row
        # ``AccessOutcome.as_tuple()`` order: (start, data_start,
        # completion, bank_free, row_result, precharge_at, activate_at,
        # cas_at); ``bank_free == completion`` in this timing model.
        tup = self.fast.service_tuple(kid, channel_id, row, not is_read, now)
        completion = tup[2]
        row_result = tup[4]
        # Keep the object model's row buffer current: scan-mode selects,
        # ``Scheduler._row_hit`` and the stall report read it mid-run.
        self._kid_bank[kid].open_row = row
        log = self.command_log
        if self._want_outcome or log is not None:
            request.service_outcome = AccessOutcome(*tup)
        if self._mirror_bus:
            fast = self.fast
            self._kid_bank[kid].busy_until = completion
            bus = self.channels[channel_id].bus
            bus.free_at = fast.bus_free[channel_id]
            bus.busy_cycles = fast.bus_busy[channel_id]
            bus.transfers = fast.bus_transfers[channel_id]
            bus.wait_cycles = fast.bus_wait[channel_id]
        if guard is not None:
            guard.on_post_issue(request, request.service_outcome, key, now)
        probe = self._p_req
        if probe is not None:
            probe.emit(
                now,
                "request.issue",
                req=self._rid(request),
                thread=request.thread_id,
                ch=request.channel,
                bank=request.bank,
                row=row,
                result=row_result,
                queued=now - request.arrival_time,
            )
        if self._p_cmd is not None:
            self._emit_cmds(request, request.service_outcome)
        if log is not None:
            log.append(
                (
                    now,
                    self._rid(request),
                    request.thread_id,
                    request.channel,
                    request.bank,
                    row,
                    is_read,
                )
                + tup
            )

        tid = request.thread_id
        stats = self._stats_by_tid[tid]
        if stats is None:
            stats = self._stats_by_tid[tid] = self._stats(tid)
        if is_read:
            stats.service_started(now)
        if row_result == "hit":
            stats.row_hits += 1
        else:
            stats.row_conflicts += 1

        hook = self._hook_issue
        if hook is not None:
            hook(request, now)
        heap = queue._heap
        heappush(heap, (completion, 0, queue._seq, self._complete_cb, request))
        queue._seq += 1
        # The bank can take its next request once this access releases it.
        pending = kid_wake[kid]
        if pending is None or pending > completion:
            kid_wake[kid] = completion
            heappush(heap, (completion, 1, queue._seq, self._wake_kid_cb, kid))
            queue._seq += 1

    def _complete(self, request: MemoryRequest) -> None:
        queue = self.queue
        now = queue.now
        request.completion_time = now
        tid = request.thread_id
        stats = self._stats_by_tid[tid]
        if stats is None:
            stats = self._stats_by_tid[tid] = self._stats(tid)
        if request.is_read:
            stats.service_finished(now)
            stats.reads += 1
        else:
            stats.writes += 1
        latency = now - request.arrival_time + self._overhead
        stats.latency_sum += latency
        if latency > stats.latency_max:
            stats.latency_max = latency
        telemetry = self.telemetry
        if telemetry is not None:
            telemetry.record_latency(tid, latency)
        probe = self._p_req
        if probe is not None:
            probe.emit(
                now,
                "request.complete",
                req=self._rid(request),
                thread=tid,
                ch=request.channel,
                bank=request.bank,
                latency=latency,
            )
        guard = self.guard
        if guard is not None:
            guard.on_complete(request, now)
        hook = self._hook_complete
        if hook is not None:
            hook(request, now)
        callback = request.on_complete
        if callback is not None:
            arg = request.on_complete_arg
            heappush(
                queue._heap,
                (
                    now + self._overhead,
                    2,
                    queue._seq,
                    callback,
                    request if arg is None else arg,
                ),
            )
            queue._seq += 1

    # The wake machinery is fully replaced; route any stray caller of the
    # reference entry points (tests, subclasses) through the fast one.
    def _schedule_wake(self, key: tuple[int, int], when: int) -> None:
        kid = key[0] * self._num_banks + key[1]
        pending = self._kid_wake[kid]
        if pending is not None and pending <= when:
            return
        self._kid_wake[kid] = when
        queue = self.queue
        heappush(queue._heap, (when, 1, queue._seq, self._wake_kid_cb, kid))
        queue._seq += 1

    def _wake(self, key: tuple[int, int]) -> None:
        self._wake_kid(key[0] * self._num_banks + key[1])

    def _try_issue(self, key: tuple[int, int]) -> None:  # pragma: no cover
        raise NotImplementedError(
            "fast controller fuses _try_issue into _wake_kid"
        )

    def min_rebuilds(self) -> int:
        """Total cached-minimum rebuilds across every bank's arbitration
        kernel (see :class:`~repro.dram.fastsched.FastBankSched`)."""
        return sum(index.min_rebuilds for index in self._kid_reads)

    def finalize_elision(self) -> None:
        """End-of-run elision reconciliation (called by ``System.run``).

        The run loop exits as soon as the last core finishes, mid-cycle:
        immediate wakes the final event would have armed on the python
        path never get processed there, so the elisions recorded during
        that event must not count.  (Deferred duplicates need no fix-up —
        any still pending in ``_kid_dup`` were never counted.)
        """
        if self._phantom_seq == self.queue.now_seq:
            self.events_elided -= self._phantom_count
            self._phantom_seq = -2

    def release(self) -> None:
        """Also drop the callbacks pre-bound to the controller itself."""
        super().release()
        self._wake_kid_cb = None
        self._complete_cb = None

    # ----------------------------------------------------------- interop
    def sync_state(self) -> None:
        """Flush array state back into the object model.

        Called at end of run (and before diagnostics) so reporting, the
        stall report and the verify harness read ``Bank`` / ``DataBus`` /
        ``Channel`` objects identical to a python-backend run.  Also
        rebuilds ``_bank_wake`` so queue diagnostics show pending wakes.
        """
        self.fast.sync_to(self.channels)
        self._bank_wake = {
            self._kid_key[kid]: when
            for kid, when in enumerate(self._kid_wake)
            if when is not None
        }


class FastDramPort:
    """Core-side adapter of the fast backend.

    ``fast_access`` — the closure-free per-read protocol carrying the
    completion callback as a pre-bound ``(fn, arg)`` pair — lives on the
    controller; the port binds it as an instance attribute so cores pick
    it up via ``getattr(memory, "fast_access")`` with zero extra
    indirection.
    """

    __slots__ = ("controller", "mapping", "fast_access")

    def __init__(
        self, controller: FastMemoryController, mapping: "AddressMapping"
    ) -> None:
        self.controller = controller
        self.mapping = mapping
        controller.install_mapping(mapping)
        self.fast_access = controller.fast_access

    def access(
        self,
        thread_id: int,
        address: int,
        is_write: bool,
        on_complete: Callable[[], None] | None,
    ) -> None:
        """Reference ``DramPort`` protocol: cores send their writes here
        (their reads take ``fast_access``)."""
        controller = self.controller
        coords = controller._coords.get(address)
        if coords is None:
            controller.predecode((address,))
            coords = controller._coords[address]
        request = MemoryRequest(
            thread_id=thread_id,
            address=address,
            channel=coords[0],
            bank=coords[1],
            row=coords[2],
            type=_WRITE if is_write else _READ,
        )
        if on_complete is not None:
            request.on_complete = lambda _req: on_complete()
        controller.enqueue(request)
