"""Runtime invariant guard: clean runs stay clean, broken schedulers get
caught with structured context, and the watchdog converts livelocks into
diagnosable failures."""

import pytest

from repro.config import SystemConfig
from repro.cpu.trace import Trace, TraceEntry
from repro.envknobs import EnvKnobError
from repro.events import SimulationStalled
from repro.guard import GUARD_MODES, Guard, InvariantViolation, guard_from_env
from repro.schedulers.frfcfs import FrFcfsScheduler
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.system import System


def _traces(num_cores: int, length: int = 80) -> list[Trace]:
    # Mixed stride pattern: same-row runs (hits) interleaved with large
    # jumps (conflicts), different banks per thread.
    return [
        Trace(
            [
                TraceEntry(8, (i % 4) * 64 + (i // 4) * (1 << 16) + t * (1 << 21))
                for i in range(length)
            ]
        )
        for t in range(num_cores)
    ]


def _run_guarded(scheduler_name: str, mode: str = "strict") -> Guard:
    guard = Guard(mode)
    config = SystemConfig(num_cores=2)
    system = System(
        config, make_scheduler(scheduler_name, 2), _traces(2), guard=guard
    )
    system.run()
    return guard


def test_guard_from_env_modes():
    assert guard_from_env({}) is None
    assert guard_from_env({"REPRO_GUARD": "off"}) is None
    assert guard_from_env({"REPRO_GUARD": "check"}).mode == "check"
    assert guard_from_env({"REPRO_GUARD": "STRICT"}).mode == "strict"
    with pytest.raises(EnvKnobError):
        guard_from_env({"REPRO_GUARD": "paranoid"})
    assert GUARD_MODES == ("off", "check", "strict")


def test_guard_rejects_unknown_mode():
    with pytest.raises(ValueError):
        Guard("off")  # "off" means no Guard at all, not a silent one


@pytest.mark.parametrize("name", sorted(SCHEDULER_NAMES))
def test_all_schedulers_pass_strict_guard(name):
    guard = _run_guarded(name, mode="strict")  # strict: violations raise
    assert guard.violations == []
    summary = guard.summary()
    assert summary["enqueues"] > 0
    assert summary["issues"] > 0
    assert summary["completions"] > 0
    assert summary["violations"] == 0


def test_parbs_guard_checks_batching_invariants():
    guard = _run_guarded("PAR-BS", mode="strict")
    summary = guard.summary()
    assert summary["batches"] > 0
    assert summary["rankings"] > 0
    assert summary["violations"] == 0


class DoubleIssuingScheduler(FrFcfsScheduler):
    """Deliberately broken: re-selects a request it already issued."""

    name = "BROKEN-DOUBLE-ISSUE"

    def __init__(self) -> None:
        super().__init__()
        self._replay = None
        self._armed = False

    def on_issue(self, request, now):
        super().on_issue(request, now)
        if self._replay is None:
            self._replay = request
            self._armed = True

    def select(self, candidates, bank, now):
        if self._armed:
            self._armed = False
            return self._replay
        return super().select(candidates, bank, now)


def test_double_issue_caught_with_context():
    guard = Guard("strict")
    system = System(
        SystemConfig(num_cores=2), DoubleIssuingScheduler(), _traces(2),
        guard=guard,
    )
    with pytest.raises(InvariantViolation) as exc_info:
        system.run()
    violation = exc_info.value
    assert violation.kind == "conservation"
    assert "issued twice" in str(violation)
    # Structured context: the violation names when and where.
    assert violation.cycle >= 0
    assert violation.bank is not None
    assert violation.request_id is not None
    assert f"cycle={violation.cycle}" in str(violation)
    assert f"bank={violation.bank}" in str(violation)


def test_check_mode_collects_instead_of_raising():
    guard = Guard("check")
    # Drive the conservation hooks directly: a request that completes
    # without ever being enqueued must be recorded, not raised.
    from repro.dram.request import MemoryRequest, RequestType

    ghost = MemoryRequest(
        thread_id=0, address=0, channel=0, bank=3, row=1,
        type=RequestType.READ,
    )
    guard.on_complete(ghost, now=42)
    assert len(guard.violations) == 1
    assert guard.violations[0].kind == "conservation"
    assert guard.violations[0].cycle == 42
    assert guard.summary()["violations"] == 1


def test_watchdog_detects_livelock():
    system = System(
        SystemConfig(num_cores=1),
        make_scheduler("FR-FCFS", 1),
        _traces(1, length=40),
    )
    # Sever the memory system: loads are swallowed, responses never
    # arrive, the core stalls forever while a ticker keeps sim time
    # advancing — a livelock, not a drained queue.
    system.controller.enqueue = lambda request: None

    def tick():
        system.queue.schedule(system.queue.now + 1000, tick)

    system.queue.schedule(1, tick)
    with pytest.raises(SimulationStalled) as exc_info:
        system.run(max_events=None, watchdog_cycles=100_000)
    stalled = exc_info.value
    assert "livelocked" in str(stalled)
    # The diagnostic dump names the stuck machinery.
    assert stalled.report
    assert "core" in stalled.report


def test_watchdog_disabled_falls_back_to_event_budget():
    system = System(
        SystemConfig(num_cores=1),
        make_scheduler("FR-FCFS", 1),
        _traces(1, length=40),
    )
    system.controller.enqueue = lambda request: None

    def tick():
        system.queue.schedule(system.queue.now + 1, tick)

    system.queue.schedule(1, tick)
    from repro.events import SimulationError

    with pytest.raises(SimulationError):
        system.run(max_events=50_000, watchdog_cycles=None)


def test_guard_results_match_unguarded_run():
    # The guard observes; it must never perturb simulation results.
    def finish_time(guard):
        system = System(
            SystemConfig(num_cores=2),
            make_scheduler("PAR-BS", 2),
            _traces(2),
            guard=guard,
        )
        return system.run()

    assert finish_time(None) == finish_time(Guard("strict"))
