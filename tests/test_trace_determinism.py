"""Runner-level observability tests: per-job trace files, telemetry on
results, and the serial-vs-parallel trace determinism contract.

The determinism contract (mirroring the golden-equivalence harness in
``test_buffers.py``): a simulation's event stream is a pure function of
its job description, so running the same specs serially and under
``jobs=N`` must produce byte-identical per-job JSONL trace files —
request ids are run-relative, field order is pinned, and newline handling
is platform-independent.
"""

import json

from repro.config import baseline_system
from repro.obs import TraceConfig, read_jsonl
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.sim.factory import make_scheduler

WORKLOAD = ["libquantum", "mcf", "GemsFDTD", "xalancbmk"]
INSTRUCTIONS = 5_000
SPECS = [
    (WORKLOAD, "PAR-BS", {}),
    (WORKLOAD, "FR-FCFS", {}),
]


def make_runner(trace=None, **kwargs):
    return ExperimentRunner(
        baseline_system(len(WORKLOAD)),
        instructions=INSTRUCTIONS,
        seed=0,
        trace=trace,
        **kwargs,
    )


# --------------------------------------------------------- trace files


def test_run_workload_writes_per_job_trace_file(tmp_path):
    cfg = TraceConfig(dir=str(tmp_path), sample_interval=1000, perfetto=True)
    runner = make_runner(trace=cfg, cache_dir=None)
    result = runner.run_workload(WORKLOAD, "PAR-BS")

    jsonl_files = sorted(tmp_path.glob("*.jsonl"))
    assert len(jsonl_files) == 1
    assert jsonl_files[0].name.startswith("PAR-BS-")
    events = read_jsonl(jsonl_files[0])
    assert any(e["ev"] == "batch.formed" for e in events)
    assert any(e["ev"] == "sample.tick" for e in events)

    perfetto_files = sorted(tmp_path.glob("*.perfetto.json"))
    assert len(perfetto_files) == 1
    with perfetto_files[0].open() as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]

    # Telemetry digest rides on the result (and survives describe()).
    assert result.telemetry is not None
    assert result.telemetry.samples
    assert result.telemetry.latency
    assert "latency p50=" in result.describe()


def test_scheduler_name_sanitized_in_filenames(tmp_path):
    cfg = TraceConfig(dir=str(tmp_path))
    runner = make_runner(trace=cfg, cache_dir=None)
    scheduler = make_scheduler("PAR-BS", len(WORKLOAD))
    runner.run_workload(WORKLOAD, scheduler)
    (path,) = tmp_path.glob("*.jsonl")
    # PAR-BS/full/max-total → slashes must not create directories.
    assert "/" not in path.name and path.parent == tmp_path


def test_inactive_trace_config_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "env-dir"))
    # An explicit TraceConfig() overrides the environment: tracing off.
    runner = make_runner(trace=TraceConfig(), cache_dir=None)
    result = runner.run_workload(WORKLOAD, "FR-FCFS")
    assert not (tmp_path / "env-dir").exists()
    assert result.telemetry is None


def test_runner_resolves_trace_config_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", str(tmp_path / "envtrace"))
    monkeypatch.setenv("REPRO_TRACE_EVENTS", "batch")
    runner = make_runner(cache_dir=None)
    assert runner.trace.dir == str(tmp_path / "envtrace")
    runner.run_workload(WORKLOAD, "PAR-BS")
    (path,) = (tmp_path / "envtrace").glob("*.jsonl")
    events = read_jsonl(path)
    assert events
    assert {e["ev"].split(".")[0] for e in events} == {"batch"}


# ----------------------------------------------- serial vs parallel


def test_trace_files_identical_serial_vs_parallel(tmp_path):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"

    serial = make_runner(trace=TraceConfig(dir=str(serial_dir)))
    serial_results = serial.run_many(SPECS, jobs=1)

    parallel = make_runner(trace=TraceConfig(dir=str(parallel_dir)))
    parallel_results = parallel.run_many(SPECS, jobs=2)

    serial_files = sorted(p.name for p in serial_dir.glob("*.jsonl"))
    parallel_files = sorted(p.name for p in parallel_dir.glob("*.jsonl"))
    assert len(serial_files) == len(SPECS)
    # Identical jobs produce identically named files in both modes.
    assert serial_files == parallel_files
    for name in serial_files:
        assert (serial_dir / name).read_bytes() == (
            parallel_dir / name
        ).read_bytes(), f"trace stream diverged for {name}"

    # And the results themselves are bit-identical, telemetry included.
    assert serial_results == parallel_results


# ------------------------------------------- satellite: result fields


def test_thread_result_surfaces_row_stats_and_latency(tmp_path):
    """Regression: row hits/conflicts and latencies were collected in
    ThreadMemStats but dropped from ThreadResult."""
    runner = make_runner(cache_dir=None)
    result = runner.run_workload(WORKLOAD, "FR-FCFS")

    # Independent reference run of the same shared system.
    traces = [runner.trace_for(b) for b in WORKLOAD]
    system = System(
        runner.config, make_scheduler("FR-FCFS", len(WORKLOAD)), traces
    )
    system.run()

    for thread in result.threads:
        mem = system.controller.stats_for(thread.thread_id)
        assert thread.row_hits == mem.row_hits > 0
        assert thread.row_conflicts == mem.row_conflicts
        assert thread.latency_avg == mem.avg_latency > 0
        assert thread.latency_max == thread.worst_latency == mem.latency_max
        total = thread.row_hits + thread.row_conflicts
        assert thread.row_hit_rate == mem.row_hit_rate
        assert total >= mem.reads  # every serviced request hit or conflicted

    assert result.total_row_hits == sum(t.row_hits for t in result.threads)
    assert 0.0 < result.row_hit_rate < 1.0
    # The human summary now reports the new fields.
    assert "rowhit=" in result.describe()
    assert "lat avg=" in result.describe()
