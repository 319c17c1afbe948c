"""Tests for the fast simulation backend and its bit-identity contract.

The fast backend (``backend="fast"``) must be *the same simulation* as the
reference python backend — identical command streams, cycles, statistics
and metrics — only cheaper per event.  These tests pin that contract:

- golden equivalence across every scheduler x {4, 8} cores x 2 seeds,
  compared command-by-command via :func:`repro.sim.verify.compare_systems`;
- the simulated work of each of those runs (logical, processed and elided
  events, min-rebuilds, cycles), pinned exactly in :data:`FAST_WORK`;
- observers that cannot steer: a run leaves the metrics registry as it
  found it, and neither ``REPRO_METRICS=0`` nor a progress hook changes
  the simulated work; the hook fires once per watchdog checkpoint;
- the flat-array timing kernel against ``Bank.service`` + ``DataBus``;
- ``fast_access``-constructed requests against the dataclass constructor,
  field for field;
- strict-guard runs on the fast path (every invariant holds);
- the runner's ``verify`` mode and its divergence detection;
- serial/parallel equality of fast-backend results through the pool.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache

import pytest

from repro.config import baseline_system
from repro.dram.bank import Bank
from repro.dram.bus import DataBus
from repro.dram.fastbank import FastDramState
from repro.dram.fastctl import FastDramPort, FastMemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.envknobs import EnvKnobError
from repro.events import EventQueue
from repro.guard.invariants import Guard
from repro.obs.metrics import PROCESS, run_metrics
from repro.sim import system as system_module
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.pool import sim_progress
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.sim.verify import (
    BACKENDS,
    BackendMismatch,
    backend_from_env,
    compare_results,
    compare_systems,
)

INSTRUCTIONS = 8_000
WORKLOADS = {
    4: ("libquantum", "mcf", "GemsFDTD", "xalancbmk"),
    8: (
        "libquantum",
        "mcf",
        "GemsFDTD",
        "xalancbmk",
        "omnetpp",
        "hmmer",
        "lbm",
        "astar",
    ),
}


@lru_cache(maxsize=None)
def _traces(cores: int, seed: int):
    runner = ExperimentRunner(
        baseline_system(cores), instructions=INSTRUCTIONS, seed=seed, cache_dir=None
    )
    return tuple(runner.trace_for(b) for b in WORKLOADS[cores])


def _run(backend: str, scheduler: str, cores: int, seed: int, guard=None) -> System:
    system = System(
        baseline_system(cores),
        make_scheduler(scheduler, cores),
        list(_traces(cores, seed)),
        repeat=True,
        backend=backend,
        guard=guard,
    )
    system.controller.command_log = []
    system.run()
    return system


# Simulated work of each golden run on the fast backend: (events_logical,
# events_processed, events_elided, min_rebuilds, sim_cycles).  Exact and
# host-independent, so a change that dispatches wakes the fast backend
# used to elide, rebuilds cached minima more often, or moves the event
# trajectory fails here even when every paper metric is unchanged.  A
# change that means to move a row (for the better, too) updates it and
# says why.
FAST_WORK = {
    ("FR-FCFS", 4, 0): (12819, 9571, 3248, 647, 117632),
    ("FR-FCFS", 4, 1): (11005, 8200, 2805, 515, 100399),
    ("FR-FCFS", 8, 0): (20096, 15346, 4750, 779, 99404),
    ("FR-FCFS", 8, 1): (20238, 15308, 4930, 591, 94793),
    ("FCFS", 4, 0): (11978, 9044, 2934, 502, 105529),
    ("FCFS", 4, 1): (12079, 9015, 3064, 488, 111883),
    ("FCFS", 8, 0): (24512, 18406, 6106, 812, 109521),
    ("FCFS", 8, 1): (24887, 18685, 6202, 705, 111709),
    ("NFQ", 4, 0): (16452, 12350, 4102, 603, 139127),
    ("NFQ", 4, 1): (16264, 12092, 4172, 558, 145210),
    ("NFQ", 8, 0): (40358, 29956, 10402, 1120, 170524),
    ("NFQ", 8, 1): (42303, 31426, 10877, 996, 179473),
    ("STFM", 4, 0): (14891, 10991, 3900, 555, 125047),
    ("STFM", 4, 1): (15134, 11380, 3754, 529, 134445),
    ("STFM", 8, 0): (30005, 22567, 7438, 898, 129958),
    ("STFM", 8, 1): (31289, 23407, 7882, 806, 138394),
    ("PAR-BS", 4, 0): (15929, 11783, 4146, 579, 129065),
    ("PAR-BS", 4, 1): (16031, 11967, 4064, 575, 134118),
    ("PAR-BS", 8, 0): (30084, 22308, 7776, 935, 126289),
    ("PAR-BS", 8, 1): (29776, 22168, 7608, 782, 129142),
}


def _work(system: System) -> tuple[int, int, int, int, int]:
    return (
        system.events_logical,
        system.events_processed,
        system.events_elided,
        system.min_rebuilds,
        system.queue.now,
    )


def _expected_work(backend: str, scheduler: str, cores: int, seed: int):
    """The pinned work of one golden run; the python backend dispatches
    every logical event and has no cached minima to rebuild."""
    work = FAST_WORK[scheduler, cores, seed]
    if backend == "python":
        logical, _, _, _, cycles = work
        return (logical, logical, 0, 0, cycles)
    return work


# -- golden equivalence --------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cores", [4, 8])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_fast_backend_bit_identical(scheduler, cores, seed):
    reference = _run("python", scheduler, cores, seed)
    fast = _run("fast", scheduler, cores, seed)
    assert len(reference.controller.command_log) > 0
    # Full comparison: command stream, cycles, events, final bank/bus
    # state, per-thread stats, core snapshots.  Raises on divergence.
    compare_systems(reference, fast)
    assert _work(fast) == _expected_work("fast", scheduler, cores, seed)
    assert _work(reference) == _expected_work("python", scheduler, cores, seed)


# -- observers do not steer ----------------------------------------------------
@pytest.mark.parametrize("backend", ["python", "fast"])
def test_run_leaves_metrics_registry_untouched(monkeypatch, backend):
    """Nothing is counted per simulated event: a run leaves every
    operational counter of the process as it found it, and disabling
    metrics changes no simulated count."""
    monkeypatch.delenv("REPRO_METRICS", raising=False)
    assert run_metrics() is not None
    before = PROCESS.snapshot()
    enabled = _run(backend, "PAR-BS", 4, 0)
    assert PROCESS.snapshot() == before
    monkeypatch.setenv("REPRO_METRICS", "0")
    assert run_metrics() is None
    disabled = _run(backend, "PAR-BS", 4, 0)
    expected = _expected_work(backend, "PAR-BS", 4, 0)
    assert _work(enabled) == _work(disabled) == expected


@pytest.mark.parametrize("backend", ["python", "fast"])
def test_progress_hook_fires_once_per_watchdog_checkpoint(monkeypatch, backend):
    """The progress hook observes without steering: a hooked run does the
    pinned work, and the callback fires at every watchdog checkpoint and
    nowhere else.  ``System.run`` reads the checkpoint interval at run
    time, so a small one lets a short run cross many checkpoints."""
    interval = 1000
    monkeypatch.setattr(system_module, "_WATCHDOG_CHECK_EVENTS", interval)
    ticks: list[int] = []
    with sim_progress(ticks.append):
        hooked = _run(backend, "PAR-BS", 4, 0)
    assert _work(hooked) == _expected_work(backend, "PAR-BS", 4, 0)
    assert ticks == list(range(interval, hooked.events_processed + 1, interval))


# -- the timing kernel ---------------------------------------------------------
def test_fastbank_kernel_matches_bank_service():
    """``FastDramState.service_tuple`` is the kernel of record: bit-identical
    to ``Bank.service`` + ``DataBus.reserve`` over a randomized command mix
    (hits, conflicts, closed-row activates, write recovery, bus contention,
    back-pressured and idle starts)."""
    timing = baseline_system(4).dram.timing
    bank = Bank(timing)
    bus = DataBus(timing)
    fast = FastDramState(timing, num_channels=1, num_banks=1)
    rng = random.Random(42)
    now = 0
    for _ in range(500):
        row = rng.randrange(6)
        is_write = rng.random() < 0.3
        request = MemoryRequest(
            thread_id=0,
            address=row * 64,
            channel=0,
            bank=0,
            row=row,
            type=RequestType.WRITE if is_write else RequestType.READ,
        )
        expected = bank.service(request, now, bus)
        got = fast.service_tuple(0, 0, row, is_write, now)
        assert got == expected.as_tuple()
        assert fast.state_tuple(0) == bank.state_tuple()
        assert fast.bus_state_tuple(0) == bus.state_tuple()
        # Sometimes jump past the busy window, sometimes pile on.
        now += rng.choice((0, 1, timing.tCL, expected.completion - now + 1))


def test_fast_access_request_matches_dataclass_constructor():
    """``fast_access`` builds requests by direct slot stores; every dataclass
    field must come out exactly as the generated constructor would set it."""
    config = baseline_system(4)
    queue = EventQueue()
    controller = FastMemoryController(
        queue, config.dram, make_scheduler("FR-FCFS", 4), num_threads=4
    )
    port = FastDramPort(controller, config.dram.mapping())
    address = 7 * 64 + (3 << 16)
    port.fast_access(2, address, False, None, None)
    fast_request = next(iter(controller.buffered_reads()))

    coords = config.dram.mapping().map(address)
    reference = MemoryRequest(
        thread_id=2,
        address=address,
        channel=coords.channel,
        bank=coords.bank,
        row=coords.row,
        type=RequestType.READ,
        arrival_time=queue.now,
    )
    for field in dataclasses.fields(MemoryRequest):
        if field.name == "request_id":  # globally allocated, run-relative
            continue
        if field.name == "buf_pos":  # set by enqueue, not construction
            assert fast_request.buf_pos == 0
            continue
        assert getattr(fast_request, field.name) == getattr(
            reference, field.name
        ), field.name
    assert fast_request.is_read is True


# -- guard ---------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ["PAR-BS", "STFM"])
def test_fast_backend_under_strict_guard(scheduler):
    """Every runtime invariant holds on the fast path (strict mode raises
    on the first violation, so completing the run is the assertion)."""
    guard = Guard(mode="strict")
    _run("fast", scheduler, 4, 0, guard=guard)
    assert guard.violations == []


def test_fast_backend_guard_check_mode_collects_nothing():
    guard = Guard(mode="check")
    _run("fast", "FR-FCFS", 4, 0, guard=guard)
    assert guard.violations == []


# -- verify mode ---------------------------------------------------------------
def test_verify_mode_runs_and_results_match_python(tmp_path):
    results = {}
    for backend in ("python", "verify", "fast"):
        runner = ExperimentRunner(
            baseline_system(4),
            instructions=INSTRUCTIONS,
            seed=0,
            cache_dir=tmp_path / backend,
            backend=backend,
        )
        results[backend] = runner.run_workload(list(WORKLOADS[4]), "PAR-BS")
    assert results["python"] == results["verify"]
    # The raw event split is backend-variant by contract (the fast path
    # elides wakes); everything else — including the *logical* event
    # count — must agree exactly.
    compare_results(results["python"], results["fast"])
    assert results["python"].events_logical == results["fast"].events_logical


def test_workload_result_event_counters_pin_python_processed_count(tmp_path):
    """WorkloadResult surfaces the event accounting: the python backend
    reports processed == logical with nothing elided and no kernel
    rebuilds, and the fast backend's processed + elided lands exactly on
    the python backend's processed count."""
    results = {}
    for backend in ("python", "fast"):
        runner = ExperimentRunner(
            baseline_system(4),
            instructions=INSTRUCTIONS,
            seed=0,
            cache_dir=tmp_path / backend,
            backend=backend,
        )
        results[backend] = runner.run_workload(list(WORKLOADS[4]), "FR-FCFS")
    py, fast = results["python"], results["fast"]
    assert py.events_processed > 0
    assert py.events_elided == 0
    assert py.min_rebuilds == 0
    assert py.events_logical == py.events_processed
    assert fast.events_elided > 0
    assert fast.events_processed + fast.events_elided == py.events_processed
    assert fast.events_logical == py.events_logical
    assert fast.min_rebuilds >= 0
    assert "min-rebuilds" in fast.describe()


def test_verify_mode_requires_factory_name():
    runner = ExperimentRunner(
        baseline_system(4),
        instructions=INSTRUCTIONS,
        seed=0,
        cache_dir=None,
        backend="verify",
    )
    with pytest.raises(ValueError, match="factory name"):
        runner.run_workload(list(WORKLOADS[4]), make_scheduler("FR-FCFS", 4))


def test_compare_systems_detects_divergence():
    reference = _run("python", "FR-FCFS", 4, 0)
    fast = _run("fast", "FR-FCFS", 4, 0)
    # Tamper with one command: the mismatch must name it.
    saved = fast.controller.command_log[10]
    fast.controller.command_log[10] = saved[:5] + (saved[5] + 1,) + saved[6:]
    with pytest.raises(BackendMismatch, match="command 10"):
        compare_systems(reference, fast)
    fast.controller.command_log[10] = saved
    compare_systems(reference, fast)  # restored: clean again
    # A truncated stream is a length divergence, not an index error.
    fast.controller.command_log.pop()
    with pytest.raises(BackendMismatch, match="lengths diverge"):
        compare_systems(reference, fast)


def test_compare_systems_requires_command_logs():
    reference = _run("python", "FCFS", 4, 0)
    fast = _run("fast", "FCFS", 4, 0)
    fast.controller.command_log = None
    with pytest.raises(ValueError, match="command_log"):
        compare_systems(reference, fast)


# -- backend selection ---------------------------------------------------------
def test_backend_env_knob(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert backend_from_env() == "fast"
    monkeypatch.setenv("REPRO_BACKEND", "PYTHON")
    assert backend_from_env() == "python"
    monkeypatch.setenv("REPRO_BACKEND", "warp")
    with pytest.raises(EnvKnobError):
        backend_from_env()


def test_runner_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown simulation backend"):
        ExperimentRunner(baseline_system(4), backend="warp")
    with pytest.raises(ValueError):
        System(
            baseline_system(4),
            make_scheduler("FR-FCFS", 4),
            list(_traces(4, 0)),
            backend="warp",
        )
    assert set(BACKENDS) == {"python", "fast", "verify"}


# -- pool ----------------------------------------------------------------------
def test_pool_fast_backend_serial_parallel_identical(tmp_path):
    """Fast-backend results are byte-identical whether the simulations run
    serially or fan out over pool workers (separate caches, so the parallel
    pass recomputes everything rather than reading serial artifacts)."""

    def run(jobs: int, tag: str):
        runner = ExperimentRunner(
            baseline_system(4),
            instructions=INSTRUCTIONS,
            seed=0,
            jobs=jobs,
            cache_dir=tmp_path / tag,
            backend="fast",
        )
        return runner.compare_schedulers(list(WORKLOADS[4]), ["FR-FCFS", "PAR-BS"])

    assert run(1, "serial") == run(2, "parallel")
