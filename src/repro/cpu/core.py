"""Analytical out-of-order core model.

Models the processor behaviour the paper's motivation rests on (Section 2):

* instructions dispatch in order into a fixed-size instruction window and
  retire in order at a fixed width (3/cycle in the baseline);
* a load that misses to DRAM is sent to the memory system at *dispatch*
  time — so independent misses inside the window are outstanding
  concurrently (memory-level parallelism);
* the core stalls when the *oldest* instruction in the window is an
  incomplete load: overlapped misses stall the core roughly once, while
  serialized misses stall it once per miss;
* stores retire immediately (write buffer) and never block commit;
* at most ``mshrs`` loads are outstanding at once.

Instead of stepping cycle by cycle, the model advances analytically between
memory events: dispatch and retirement both proceed at the core width, so
their trajectories are piecewise linear and the core only needs to wake at
request dispatches and data returns.  This keeps whole-system simulation
event-driven and fast while matching a cycle-stepped window model at
retire-width granularity.

Statistics follow the paper's definitions: ``stall_cycles`` counts cycles
where commit is blocked by an incomplete DRAM load (→ MCPI, memory
slowdown, AST/req).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Protocol

from ..config import CoreConfig
from ..events import EventQueue
from .trace import Trace

__all__ = ["Core", "CoreSnapshot", "MemoryPort"]


class MemoryPort(Protocol):
    """Interface the core uses to reach DRAM (no cache sits in between)."""

    def access(
        self,
        thread_id: int,
        address: int,
        is_write: bool,
        on_complete: Callable[[], None] | None,
    ) -> None:
        """Issue an access.  For reads, ``on_complete`` fires when data
        returns; writes complete in the background."""


@dataclass(frozen=True)
class CoreSnapshot:
    """Core statistics frozen at first trace completion."""

    cycles: int
    instructions: int
    stall_cycles: int
    loads: int
    stores: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mcpi(self) -> float:
        """Memory cycles per instruction (paper Table 3)."""
        return self.stall_cycles / self.instructions if self.instructions else 0.0

    @property
    def avg_stall_per_request(self) -> float:
        """AST/req: average stall time per DRAM load request (paper §7)."""
        return self.stall_cycles / self.loads if self.loads else 0.0


class _PendingLoad:
    __slots__ = ("index", "done", "gpos")

    def __init__(self, index: int, gpos: int) -> None:
        self.index = index  # global instruction index (for commit blocking)
        self.gpos = gpos  # global trace position (for dependency tracking)
        self.done = False


class Core:
    """One processing core executing a trace against a memory port."""

    # Slotted: ``_advance`` reads a few dozen instance attributes per call
    # on the simulator's hottest path.
    __slots__ = (
        "thread_id",
        "trace",
        "queue",
        "memory",
        "config",
        "repeat",
        "_probe",
        "_stalled",
        "_fast_access",
        "_t",
        "_retired",
        "_dispatched",
        "_trace_pos",
        "_base_instructions",
        "_width",
        "_window",
        "_mshrs",
        "_entries",
        "_trace_len",
        "_trace_end_index",
        "_cum_index",
        "_next_mem_index",
        "_pending",
        "_incomplete_gpos",
        "_dep_waiters",
        "_pass_count",
        "mshr_in_use",
        "stall_cycles",
        "loads_issued",
        "stores_issued",
        "finished",
        "finish_time",
        "snapshot",
        "on_finished",
        "_wake_at",
        "_wake_cb",
        "_on_data_cb",
    )

    def __init__(
        self,
        thread_id: int,
        trace: Trace,
        queue: EventQueue,
        memory: MemoryPort,
        config: CoreConfig | None = None,
        repeat: bool = True,
        probe=None,
    ) -> None:
        self.thread_id = thread_id
        self.trace = trace
        self.queue = queue
        self.memory = memory
        self.config = config or CoreConfig()
        self.repeat = repeat
        # Optional ``core``-category trace probe emitting stall/unstall
        # edges (None when tracing is off — the hot loop guards on it).
        self._probe = probe
        self._stalled = False
        # Fast-backend protocol: a memory port exposing ``fast_access``
        # accepts the data-return callback as a pre-bound (method, load)
        # pair, so ``_send`` skips the per-read closure allocation.
        self._fast_access = getattr(memory, "fast_access", None)

        # Progress pointers, in instructions.
        self._t = 0  # time of last state sync
        self._retired = 0
        self._dispatched = 0
        self._trace_pos = 0
        self._base_instructions = 0  # instructions from completed trace passes
        # Scalar config parameters, lifted off the config object once: the
        # advance loop and the wake planner read them on every call.
        self._width = self.config.width
        self._window = self.config.window_size
        self._mshrs = self.config.mshrs
        # Cached per-pass constants: the trace is immutable, and all three
        # are read on every iteration of the analytical advance loop.
        self._entries = trace.entries
        self._trace_len = len(trace)
        self._trace_end_index = trace.total_instructions
        self._cum_index = trace.cum_index
        self._next_mem_index = self._mem_index(0)

        # Incomplete loads in program order.  Completed loads retire from
        # the front on every data return (the simulator's hottest
        # callback), so this must be a deque, not a list.
        self._pending: deque[_PendingLoad] = deque()
        self._incomplete_gpos: set[int] = set()  # for dependency checks
        # Accesses dispatched but waiting for a parent load's data before
        # their request can be sent: parent gpos -> [(address, is_write, load)].
        self._dep_waiters: dict[int, list[tuple[int, bool, _PendingLoad | None]]] = {}
        self._pass_count = 0
        self.mshr_in_use = 0

        # Statistics.
        self.stall_cycles = 0
        self.loads_issued = 0
        self.stores_issued = 0
        self.finished = False
        self.finish_time: int | None = None
        self.snapshot: CoreSnapshot | None = None
        self.on_finished: Callable[["Core"], None] | None = None

        self._wake_at: int | None = None
        # Pre-bound callbacks: heap tuples hold these on every wake arm /
        # read dispatch, and a bare ``self._wake`` reference allocates a
        # fresh bound-method object each time.
        self._wake_cb = self._wake
        self._on_data_cb = self._on_data

    # -- derived trace positions ---------------------------------------------
    def _mem_index(self, pos: int) -> int | None:
        """Global instruction index of the ``pos``-th memory instruction in
        the current trace pass, or None past the end."""
        if pos >= self._trace_len:
            return None
        return self._base_instructions + self._cum_index[pos]

    @property
    def instructions_retired(self) -> int:
        return self._retired

    # -- simulation wiring --------------------------------------------------------
    def start(self) -> None:
        """Register the core's first wake-up with the event queue."""
        self.queue.schedule(0, self._wake, priority=4)

    def release(self) -> None:
        """Drop the engine references after the run; statistics stay.
        Buffered requests still carry this core's data-return callback."""
        self.memory = None
        self._fast_access = None
        self.on_finished = None
        self._wake_cb = None
        self._on_data_cb = None

    def _wake(self) -> None:
        self._wake_at = None
        self._advance(self.queue.now, True)

    def _on_data(self, load: _PendingLoad) -> None:
        self._advance(self.queue.now)
        load.done = True
        self.mshr_in_use -= 1
        self._incomplete_gpos.discard(load.gpos)
        pending = self._pending
        while pending and pending[0].done:
            pending.popleft()
        # Release accesses that were waiting on this load's data (the
        # truthiness guard keeps dependency-free traces off the dict).
        waiters = self._dep_waiters
        if waiters:
            for address, is_write, waiter in waiters.pop(load.gpos, ()):
                self._send(address, is_write, waiter)
        self._advance(self.queue.now, True)

    # -- the analytical engine -----------------------------------------------------
    def _advance(self, now: int, plan: bool = False) -> None:
        """Bring retirement/dispatch pointers forward to time ``now``.

        With ``plan=True`` the wake planner runs in the same frame
        afterwards: it arms a wake-up at the earliest future time the core
        makes progress without external events (the next request dispatch
        or final retirement), and stays silent when only a data return can
        unblock it.  Every wake and data return needs both steps, and
        fusing them saves a call plus re-loading the state the advance loop
        already holds.

        This loop is the single hottest path of the whole simulator, so it
        avoids attribute chasing and float math: loop-invariant parameters
        live in locals, and the ceil divisions use integer arithmetic.
        """
        t = self._t
        width = self._width
        trace_len = self._trace_len
        pending = self._pending
        if t >= now:
            # Re-entrant call at the current time (e.g. the post-mutation
            # sync in ``_on_data``): nothing to integrate, but a just-
            # retired load may have completed the pass.
            if self._trace_pos >= trace_len:
                self._maybe_complete_pass()
            if not plan:
                return
            retired = self._retired
            dispatched = self._dispatched
        else:
            window = self._window
            mshrs = self._mshrs
            entries = self._entries
            # The pending deque and the end index are stable object
            # references / values across loop iterations except through the
            # calls re-synced below, so they live in locals too.  The
            # progress pointers also stay in locals, written back to the
            # instance only around calls that observe them (``_issue``,
            # ``_complete_pass``) and at exit.
            end_index = self._trace_end_index
            probe = self._probe
            retired = self._retired
            dispatched = self._dispatched
            trace_pos = self._trace_pos
            mshr_in_use = self.mshr_in_use
            next_mem = self._next_mem_index
            while t < now:
                r_limit = pending[0].index - 1 if pending else end_index
                if trace_pos < trace_len:
                    next_entry = entries[trace_pos]
                    if next_entry.is_write or mshr_in_use < mshrs:
                        dispatch_blocked = False
                        d_stop = next_mem
                    else:
                        dispatch_blocked = True
                        d_stop = next_mem - 1
                else:
                    next_entry = None
                    dispatch_blocked = False
                    d_stop = end_index

                retired0 = retired
                dispatched0 = dispatched
                dt = now - t
                if retired0 < r_limit:
                    step = -((retired0 - r_limit) // width)  # ceil-div
                    if step < dt:
                        dt = step
                if dispatched0 < d_stop:
                    # Dispatch is also capped by the window sliding behind
                    # retirement, so only clamp the segment at the dispatch
                    # target when it is reachable at all (the window behind
                    # ``r_limit`` can cover it), and then at the time both
                    # the dispatch rate and the sliding window permit —
                    # otherwise a commit-stalled core with a full window
                    # would crawl here one cycle per iteration without ever
                    # dispatching.
                    if r_limit + window >= d_stop:
                        step = -((dispatched0 - d_stop) // width)  # ceil-div
                        bound = -((retired0 - (d_stop - window)) // width)
                        if bound > step:
                            step = bound
                        if step < dt:
                            dt = step
                if dt < 1:
                    dt = 1

                # min() spelled as comparisons: this runs a million times
                # per simulated run and the builtin's call overhead is
                # measurable.
                retired_raw = retired0 + width * dt
                if retired_raw > r_limit:
                    retired_raw = r_limit
                dispatched = d_stop
                bound = retired_raw + window
                if bound < dispatched:
                    dispatched = bound
                bound = dispatched0 + width * dt
                if bound < dispatched:
                    dispatched = bound
                retired = retired_raw if retired_raw < dispatched else dispatched

                # Stall accounting: commit blocked by an incomplete load.
                if pending and retired0 >= r_limit:
                    self.stall_cycles += dt
                    if probe is not None and not self._stalled:
                        self._stalled = True
                        probe.emit(t, "core.stall", thread=self.thread_id)
                elif probe is not None and self._stalled:
                    self._stalled = False
                    probe.emit(t, "core.unstall", thread=self.thread_id)

                t += dt

                if (
                    next_entry is not None
                    and not dispatch_blocked
                    and dispatched >= next_mem
                ):
                    self._t = t
                    self._retired = retired
                    self._dispatched = dispatched
                    self._issue(next_entry)
                    retired = self._retired  # _issue clamps behind a load
                    trace_pos = self._trace_pos
                    mshr_in_use = self.mshr_in_use
                    next_mem = self._next_mem_index

                if (
                    trace_pos >= trace_len
                    and not pending
                    and retired >= end_index
                ):
                    self._t = t
                    self._retired = retired
                    self._dispatched = dispatched
                    self._complete_pass()
                    end_index = self._trace_end_index
                    trace_pos = self._trace_pos
                    next_mem = self._next_mem_index
                if self.finished and not self.repeat:
                    break
            self._t = t
            self._retired = retired
            self._dispatched = dispatched
            if trace_pos >= trace_len:
                self._maybe_complete_pass()
            if not plan:
                return
        # -- wake planning (``plan=True``) ---------------------------------
        if self.finished and not self.repeat:
            return
        r_limit = pending[0].index - 1 if pending else self._trace_end_index
        trace_pos = self._trace_pos
        if trace_pos < trace_len:
            next_entry = self._entries[trace_pos]
            if not next_entry.is_write and self.mshr_in_use >= self._mshrs:
                return  # blocked on MSHRs; a completion will wake us
            target = self._next_mem_index
            # Dispatch must reach `target`; it is limited by the window.
            window = self._window
            if target > r_limit + window:
                return  # blocked on the window behind a pending load
            needed = target - dispatched
            bound = target - window - retired
            if bound > needed:
                needed = bound
            if needed <= 0:
                when = t  # should have been issued already (defensive)
            else:
                when = t - (-needed // width)
        else:
            # Drain: wake when the last instruction could retire.
            if retired >= self._trace_end_index or pending:
                return
            needed = self._trace_end_index - retired
            when = t - (-needed // width)
        if when < now:
            when = now
        wake_at = self._wake_at
        if wake_at is not None and wake_at <= when:
            return
        self._wake_at = when
        queue = self.queue
        # ``queue.schedule`` inlined: ``when`` is already clamped to now,
        # so the past-time check cannot fire.
        heappush(queue._heap, (when, 4, queue._seq, self._wake_cb))
        queue._seq += 1

    def _maybe_complete_pass(self) -> None:
        if (
            self._trace_pos >= self._trace_len
            and not self._pending
            and self._retired >= self._trace_end_index
        ):
            self._complete_pass()

    def _issue(self, entry) -> None:
        """Dispatch the next memory instruction.

        Independent accesses send their memory request immediately; an
        access with an incomplete ``depends_on`` parent is parked until the
        parent's data returns (its window slot and MSHR are held meanwhile,
        and it blocks commit like any other outstanding load).
        """
        index = self._next_mem_index
        trace_len = self._trace_len
        gpos = self._pass_count * trace_len + self._trace_pos
        pos = self._trace_pos + 1
        self._trace_pos = pos
        # ``_mem_index`` inlined (dispatch is a per-read hot path).
        self._next_mem_index = (
            self._base_instructions + self._cum_index[pos]
            if pos < trace_len
            else None
        )

        load: _PendingLoad | None = None
        if not entry.is_write:
            load = _PendingLoad(index, gpos)
            self._pending.append(load)
            self._incomplete_gpos.add(gpos)
            # The load cannot retire before its data returns; commit stops
            # just below it even if the segment arithmetic reached further.
            if self._retired > index - 1:
                self._retired = index - 1
            self.mshr_in_use += 1
            self.loads_issued += 1
        else:
            self.stores_issued += 1

        if entry.depends_on is not None:
            parent_gpos = self._pass_count * trace_len + entry.depends_on
            if parent_gpos in self._incomplete_gpos:
                self._dep_waiters.setdefault(parent_gpos, []).append(
                    (entry.address, entry.is_write, load)
                )
                return
        self._send(entry.address, entry.is_write, load)

    def _send(self, address: int, is_write: bool, load: _PendingLoad | None) -> None:
        """Issue the actual memory request for a dispatched access."""
        if is_write:
            self.memory.access(self.thread_id, address, True, None)
            return
        assert load is not None
        fast = self._fast_access
        if fast is not None:
            fast(self.thread_id, address, self._on_data_cb, load)
            return
        self.memory.access(
            self.thread_id, address, False, lambda load=load: self._on_data(load)
        )

    def _complete_pass(self) -> None:
        """The current trace pass fully retired."""
        if not self.finished:
            self.finished = True
            self.finish_time = self._t
            self.snapshot = CoreSnapshot(
                cycles=self._t,
                instructions=self._retired,
                stall_cycles=self.stall_cycles,
                loads=self.loads_issued,
                stores=self.stores_issued,
            )
            if self.on_finished is not None:
                self.on_finished(self)
        if self.repeat and self._trace_len > 0:
            self._base_instructions = self._trace_end_index
            self._trace_end_index = (
                self._base_instructions + self.trace.total_instructions
            )
            self._pass_count += 1
            self._trace_pos = 0
            self._next_mem_index = self._mem_index(0)
