"""Whole-system wiring: cores + shared DRAM controller.

:class:`System` assembles one simulated CMP: per-core trace-driven
processors whose traces are L2-miss streams, and the shared memory
controller running a pluggable scheduling policy.  No cache is modelled:
every core access goes straight to DRAM.  ``run()`` executes until every
core has completed its trace once (finished cores keep re-running their
traces so memory pressure stays realistic, matching the paper's
equal-instruction-slice methodology).
"""

from __future__ import annotations

import gc
import heapq
from typing import Callable

from ..config import SystemConfig
from ..cpu.core import Core
from ..cpu.trace import Trace
from ..dram.address import AddressMapping
from ..dram.controller import MemoryController
from ..dram.request import MemoryRequest, RequestType
from ..events import EventQueue, SimulationError, SimulationStalled
from ..schedulers.base import Scheduler

__all__ = ["DramPort", "System"]

# No-progress watchdog: every this-many events, check that at least one
# instruction retired somewhere; the hot loop pays a single int compare
# per event for it.
_WATCHDOG_CHECK_EVENTS = 1 << 18

# Optional long-run progress callback, invoked with the running event
# count at every watchdog checkpoint (so roughly every couple of seconds
# of simulation, never per event).  Installed/restored via
# :func:`repro.sim.pool.sim_progress`; the in-process executor beats on
# it, so campaign drains renew their leases while a long simulation runs.  ``None``
# (the default) adds nothing to the hot loop beyond the existing
# checkpoint slow path.
PROGRESS_HOOK = None


class DramPort:
    """Adapter from the core's ``access`` protocol to the controller."""

    def __init__(self, controller: MemoryController, mapping: AddressMapping) -> None:
        self.controller = controller
        self.mapping = mapping

    def access(
        self,
        thread_id: int,
        address: int,
        is_write: bool,
        on_complete: Callable[[], None] | None,
    ) -> None:
        coords = self.mapping.map(address)
        request = MemoryRequest(
            thread_id=thread_id,
            address=address,
            channel=coords.channel,
            bank=coords.bank,
            row=coords.row,
            type=RequestType.WRITE if is_write else RequestType.READ,
        )
        if on_complete is not None:
            request.on_complete = lambda _req: on_complete()
        self.controller.enqueue(request)


class System:
    """A simulated CMP sharing one DRAM system.

    Parameters
    ----------
    config:
        System configuration; ``config.num_cores`` must match the number of
        traces supplied.
    scheduler:
        The DRAM arbitration policy under test.
    traces:
        One instruction trace per core.  Each is an L2-miss stream: its
        loads and stores go straight to DRAM, which is how the calibrated
        synthetic workloads and trace files are meant to be used.
    repeat:
        Restart finished traces to keep contention steady until every core
        has completed at least once.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; when present, the
        controller, scheduler, batcher and cores emit structured events
        through it.  ``None`` (default) compiles all probes to no-ops.
    telemetry:
        Optional :class:`~repro.obs.sampler.Telemetry` recorder; attaches
        its periodic sampler to this system and receives per-request
        latencies from the controller.
    guard:
        Optional :class:`~repro.guard.Guard` runtime invariant checker;
        the controller, batcher and scheduler discover it at attach time
        (probe-or-None, like ``tracer``).  ``None`` (default) compiles
        every check to a no-op.
    backend:
        Simulation backend: ``"python"`` (default) uses the reference
        object-model controller; ``"fast"`` swaps in the flat-array timing
        kernel (:mod:`repro.dram.fastctl`), which produces a bit-identical
        event trajectory — same command streams, cycles and statistics —
        at a fraction of the per-event cost.  The ``verify`` mode that runs
        both and compares them lives one level up, in
        :mod:`repro.sim.verify` / the experiment runner.
    """

    def __init__(
        self,
        config: SystemConfig,
        scheduler: Scheduler,
        traces: list[Trace],
        repeat: bool = True,
        tracer=None,
        telemetry=None,
        guard=None,
        backend: str = "python",
    ) -> None:
        if len(traces) != config.num_cores:
            raise ValueError(
                f"expected {config.num_cores} traces, got {len(traces)}"
            )
        if backend not in ("python", "fast"):
            raise ValueError(f"unknown simulation backend {backend!r}")
        self.config = config
        self.backend = backend
        self.queue = EventQueue()
        self.tracer = tracer
        self.telemetry = telemetry
        self.guard = guard
        if backend == "fast":
            from ..dram.fastctl import FastDramPort, FastMemoryController

            controller_cls, port_cls = FastMemoryController, FastDramPort
        else:
            controller_cls, port_cls = MemoryController, DramPort
        self.controller = controller_cls(
            self.queue,
            config.dram,
            scheduler,
            num_threads=config.num_cores,
            tracer=tracer,
            telemetry=telemetry,
            guard=guard,
        )
        self.mapping = config.dram.mapping()
        self.port = port_cls(self.controller, self.mapping)
        # Fast backend: flush array state back into the object model before
        # anything outside the controller reads it (diagnostics, finalize).
        self._sync_state = getattr(self.controller, "sync_state", None)

        self._finished = 0
        self._ran = False
        # Events processed by the last ``run()``.  ``events_logical`` adds
        # the wakes the fast backend elided (see fastctl): it equals the
        # python backend's processed count for the same run and is the
        # numerator of perfbench's ``system.events_per_s``.  On the python
        # backend the two are identical.
        self.events_processed = 0
        self.events_elided = 0
        self.events_logical = 0
        # Cached-minimum rebuilds in the fast arbitration kernel (0 on
        # the python backend, which has no such cache).
        self.min_rebuilds = 0
        self.cores: list[Core] = []
        core_probe = tracer.probe("core") if tracer is not None else None
        for thread_id, trace in enumerate(traces):
            core = Core(
                thread_id,
                trace,
                self.queue,
                self.port,
                config=config.core,
                repeat=repeat,
                probe=core_probe,
            )
            core.on_finished = self._core_finished
            self.cores.append(core)
        if backend == "fast":
            # Traces are fixed before the run: decode every address once,
            # so the run itself never misses the decode memo.
            self.controller.predecode(
                {entry.address for trace in traces for entry in trace.entries}
            )
        if telemetry is not None:
            telemetry.attach(self)

    def _core_finished(self, core: Core) -> None:
        self._finished += 1

    def run(
        self,
        max_events: int | None = 200_000_000,
        watchdog_cycles: int | None = 2_000_000,
    ) -> int:
        """Run until every core finishes its trace once.

        Returns the simulation time (cycles) at which the last core
        finished.  A system runs once: a second call raises
        :class:`SimulationError`.  A completed run releases the event
        engine (pending events, pre-bound callbacks, back-references) and
        keeps every statistic, so the finished system is acyclic and
        dropping it frees the simulation by reference counting.

        Raises if the event budget is exhausted first, or —
        when at least ``watchdog_cycles`` simulated cycles pass with zero
        instruction commits anywhere — a :class:`SimulationStalled`
        carrying a diagnostic dump of queue/core/bank/batch state
        (``watchdog_cycles=None`` disables the watchdog).

        This loop is the simulator's outermost hot path, so it dispatches
        events straight off the kernel's heap instead of going through
        :meth:`EventQueue.step` (which documents the reference semantics);
        ``schedule()`` already rejects past times, making step's
        monotonicity check redundant here.  The watchdog costs one int
        compare per event; the full progress check runs only every
        ``_WATCHDOG_CHECK_EVENTS`` events.

        The heap holds two entry shapes: the 4-tuple ``(when, prio, seq,
        fn)`` pushed by :meth:`EventQueue.schedule`, and the fast backend's
        pre-bound 5-tuple ``(when, prio, seq, fn, arg)`` dispatched as
        ``fn(arg)``.  Mixing them in one heap is safe because sequence
        numbers are unique — tuple comparison never reaches element 3.
        """
        if self._ran:
            raise SimulationError(
                "this System already ran; build a new System to run again"
            )
        self._ran = True
        for core in self.cores:
            core.start()
        queue = self.queue
        heap = queue._heap
        pop = heapq.heappop
        num_cores = len(self.cores)
        budget = max_events if max_events is not None else float("inf")
        events = 0
        next_check = _WATCHDOG_CHECK_EVENTS if watchdog_cycles is not None else budget + 1
        # One fused threshold covers both the event budget and the
        # watchdog checkpoint, so the per-event epilogue is a single
        # compare; the slow path below disentangles which one fired.
        limit = next_check if next_check <= budget else budget + 1
        last_retired = -1
        progress_time = 0
        # The simulation allocates short-lived objects (heap tuples,
        # requests, outcomes) at a rate that triggers hundreds of gen-0
        # collection passes per run, none of which free anything: those
        # objects die by reference counting, and the long-lived cycles
        # live until ``_release`` breaks them.  Pause the collector for
        # the duration of the loop.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while self._finished < num_cores:
                if not heap:
                    raise SimulationError(
                        "event queue drained before all cores finished"
                    )
                entry = pop(heap)
                when = entry[0]
                queue.now = when
                queue.now_seq = entry[2]
                if len(entry) == 4:
                    entry[3]()
                else:
                    entry[3](entry[4])
                events += 1
                if events >= limit:
                    if events > budget:
                        raise SimulationError(
                            f"exceeded event budget ({max_events}); "
                            "simulation stuck?"
                        )
                    if events >= next_check:
                        next_check = events + _WATCHDOG_CHECK_EVENTS
                        if PROGRESS_HOOK is not None:
                            PROGRESS_HOOK(events)
                        retired = 0
                        for core in self.cores:
                            retired += core.instructions_retired
                        if retired != last_retired:
                            last_retired = retired
                            progress_time = when
                        elif when - progress_time >= watchdog_cycles:
                            from ..guard.diagnostics import stall_report

                            if self._sync_state is not None:
                                self._sync_state()
                            report = stall_report(self, events)
                            raise SimulationStalled(
                                f"no instruction committed in "
                                f"{when - progress_time} cycles ({events} "
                                f"events processed); simulation is "
                                f"livelocked\n{report}",
                                report=report,
                            )
                    limit = next_check if next_check <= budget else budget + 1
        finally:
            if gc_was_enabled:
                gc.enable()
        self.events_processed = events
        finalize_elision = getattr(self.controller, "finalize_elision", None)
        if finalize_elision is not None:
            finalize_elision()
        self.events_elided = getattr(self.controller, "events_elided", 0)
        self.events_logical = events + self.events_elided
        min_rebuilds = getattr(self.controller, "min_rebuilds", None)
        self.min_rebuilds = min_rebuilds() if min_rebuilds is not None else 0
        if self._sync_state is not None:
            self._sync_state()
        if self.telemetry is not None:
            self.telemetry.finalize(queue.now)
        if self.guard is not None:
            self.guard.finalize(queue.now)
        self._release()
        return queue.now

    def _release(self) -> None:
        """Break every reference cycle of the finished run (see :meth:`run`)."""
        self.queue.release()
        for core in self.cores:
            core.release()
        self.controller.release()
        if self.telemetry is not None:
            self.telemetry.release()
