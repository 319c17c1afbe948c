"""Integration tests for system wiring and the experiment runner."""

import pytest

from repro.config import CoreConfig, DramConfig, SystemConfig, baseline_system
from repro.cpu.trace import Trace, TraceEntry
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System

INSTRUCTIONS = 20_000


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instructions=INSTRUCTIONS)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(num_cores=0)
    with pytest.raises(ValueError):
        CoreConfig(window_size=0)
    with pytest.raises(ValueError):
        DramConfig(write_drain_high=1, write_drain_low=5)


def test_baseline_channel_scaling():
    assert baseline_system(4).dram.num_channels == 1
    assert baseline_system(8).dram.num_channels == 2
    assert baseline_system(16).dram.num_channels == 4


def test_make_scheduler_names():
    for name in SCHEDULER_NAMES:
        scheduler = make_scheduler(name, 4)
        assert scheduler.select is not None
    with pytest.raises(ValueError):
        make_scheduler("SJF", 4)


def test_make_scheduler_case_insensitive():
    assert make_scheduler("par-bs", 4).name.startswith("PAR-BS")
    assert make_scheduler("frfcfs", 4).name == "FR-FCFS"


def test_system_requires_matching_trace_count():
    config = baseline_system(4)
    with pytest.raises(ValueError):
        System(config, make_scheduler("FCFS", 4), traces=[Trace([])])


def test_system_runs_simple_traces():
    config = baseline_system(2) if False else SystemConfig(num_cores=2)
    traces = [
        Trace([TraceEntry(10, i * 64 + t * (1 << 20)) for i in range(50)])
        for t in range(2)
    ]
    system = System(SystemConfig(num_cores=2), make_scheduler("FR-FCFS", 2), traces)
    finish = system.run()
    assert finish > 0
    assert all(core.snapshot is not None for core in system.cores)


def test_alone_stats_cached(runner):
    first = runner.alone("hmmer")
    second = runner.alone("hmmer")
    assert first is second
    assert first.ipc > 0
    assert first.cycles > 0


def test_run_workload_produces_full_result(runner):
    result = runner.run_workload(["hmmer", "astar", "gromacs", "sjeng"], "FR-FCFS")
    assert result.scheduler == "FR-FCFS"
    assert len(result.threads) == 4
    assert result.unfairness >= 1.0
    assert 0 < result.weighted_speedup <= 4.0
    assert 0 < result.hmean_speedup <= 1.0
    assert result.sim_cycles > 0


def test_run_workload_validates_length(runner):
    with pytest.raises(ValueError):
        runner.run_workload(["mcf"], "FCFS")


def test_compare_schedulers_covers_all(runner):
    results = runner.compare_schedulers(["gromacs", "sjeng", "gobmk", "dealII"])
    assert list(results) == SCHEDULER_NAMES


def test_repeated_benchmark_gets_distinct_traces(runner):
    a = runner.trace_for("lbm", 0)
    b = runner.trace_for("lbm", 1)
    assert list(a) != list(b)
    assert len(a) == len(b)


def test_trace_for_is_cached(runner):
    assert runner.trace_for("lbm", 0) is runner.trace_for("lbm", 0)


def test_scheduler_kwargs_forwarded(runner):
    result = runner.run_workload(
        ["hmmer", "astar", "gromacs", "sjeng"], "PAR-BS", marking_cap=1
    )
    assert result.scheduler == "PAR-BS"


def test_slowdowns_at_least_one(runner):
    result = runner.run_workload(["hmmer", "astar", "gromacs", "sjeng"], "PAR-BS")
    assert all(t.memory_slowdown >= 1.0 for t in result.threads)


def test_compute_only_thread_not_fabricated():
    """A thread that never touches memory must keep zeroed stats without
    a record being silently inserted into ``thread_stats`` (regression:
    the old defaultdict lookup fabricated an entry on read)."""
    from dataclasses import replace

    config = replace(baseline_system(4), num_cores=2)
    mem = Trace([TraceEntry(5, i * 64) for i in range(100)], name="mem")
    compute_only = Trace([], name="compute")
    system = System(
        config, make_scheduler("PAR-BS", 2), [mem, compute_only], repeat=False
    )
    system.run()

    assert sorted(system.controller.thread_stats) == [0]
    stats = system.controller.stats_for(1)
    assert stats.reads == 0 and stats.writes == 0
    assert stats.bank_level_parallelism == 0.0
    assert stats.row_hit_rate == 0.0
    assert stats.latency_max == 0
    # The read-only lookup must not have inserted anything.
    assert sorted(system.controller.thread_stats) == [0]
    assert system.controller.pending_reads(1) == 0


def test_default_instructions_env(monkeypatch):
    from repro.sim.runner import default_instructions

    monkeypatch.setenv("REPRO_SCALE", "0.5")
    assert default_instructions() == 150_000
    monkeypatch.delenv("REPRO_SCALE")
    assert default_instructions() == 300_000
