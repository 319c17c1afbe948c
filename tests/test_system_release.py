"""A finished ``System`` frees itself by reference counting.

``System.run()`` is one-shot: when the loop ends it releases the event
engine (pending events, pre-bound callbacks, back-references between the
controller, scheduler, batcher, guard and telemetry) and keeps every
statistic.  The finished system is then acyclic, so dropping it leaves
nothing for the cyclic garbage collector.  Each test builds and runs a
system with the collector disabled, reads its results, drops it, and
asserts that a full collection finds no unreachable object.
"""

from __future__ import annotations

import gc
from functools import lru_cache

import pytest

from repro.config import baseline_system
from repro.core.parbs import ParBsScheduler
from repro.events import SimulationError
from repro.guard.invariants import Guard
from repro.obs.sampler import Telemetry
from repro.obs.trace import RingBufferSink, Tracer
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System

CORES = 4
WORKLOAD = ("libquantum", "mcf", "GemsFDTD", "xalancbmk")


@lru_cache(maxsize=None)
def _traces():
    runner = ExperimentRunner(
        baseline_system(CORES), instructions=3_000, seed=0, cache_dir=None
    )
    return tuple(runner.trace_for(b) for b in WORKLOAD)


def _unreachable_after(build) -> int:
    """Run ``build()`` with the collector off, then count what a full
    collection finds once everything it made is dropped."""
    _traces()
    gc.collect()
    gc.disable()
    try:
        build()
        return gc.collect()
    finally:
        gc.enable()


def _run(backend, scheduler, **attachments):
    system = System(
        baseline_system(CORES),
        scheduler,
        list(_traces()),
        backend=backend,
        **attachments,
    )
    system.controller.command_log = []
    cycles = system.run()
    # Everything the result collectors read stays readable after the run.
    assert cycles == system.queue.now > 0
    assert len(system.queue) == 0
    assert system.events_logical >= system.events_processed > 0
    assert system.controller.command_log
    assert all(core.snapshot is not None for core in system.cores)
    assert sum(
        system.controller.stats_for(t).reads for t in range(CORES)
    ) > 0
    assert sum(bank.accesses for bank in system.controller.channels[0].banks)
    return system


@pytest.mark.parametrize("backend", ["python", "fast"])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_finished_system_is_acyclic(scheduler, backend):
    def build():
        _run(backend, make_scheduler(scheduler, CORES))

    assert _unreachable_after(build) == 0


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_static_batching_leaves_no_cycle(backend):
    def build():
        scheduler = ParBsScheduler(CORES, batching="static", batch_duration=2_000)
        _run(backend, scheduler)
        assert scheduler.batcher.batches_formed > 0

    assert _unreachable_after(build) == 0


def test_guard_is_released_with_its_counters():
    def build():
        guard = Guard("strict")
        _run("fast", make_scheduler("parbs", CORES), guard=guard)
        summary = guard.summary()
        assert summary["issues"] > 0 and summary["batches"] > 0
        assert summary["violations"] == 0

    assert _unreachable_after(build) == 0


def test_telemetry_is_released_with_its_summary():
    def build():
        telemetry = Telemetry(sample_interval=500)
        _run("fast", make_scheduler("parbs", CORES), telemetry=telemetry)
        summary = telemetry.summary()
        assert summary.samples and summary.latency
        assert summary.bus["transfers"] > 0

    assert _unreachable_after(build) == 0


def test_tracer_is_released_with_its_events():
    def build():
        ring = RingBufferSink()
        _run("fast", make_scheduler("parbs", CORES), tracer=Tracer([ring]))
        assert len(ring.events) > 0

    assert _unreachable_after(build) == 0


def test_verify_run_workload_leaves_no_cycle():
    def build():
        runner = ExperimentRunner(
            baseline_system(CORES),
            instructions=3_000,
            seed=0,
            cache_dir=None,
            backend="verify",
        )
        result = runner.run_workload(list(WORKLOAD), "parbs")
        assert result.events_processed > 0

    assert _unreachable_after(build) == 0


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_second_run_raises(backend):
    system = System(
        baseline_system(CORES),
        make_scheduler("frfcfs", CORES),
        list(_traces()),
        backend=backend,
    )
    system.run()
    with pytest.raises(SimulationError, match="already ran.*new System"):
        system.run()
