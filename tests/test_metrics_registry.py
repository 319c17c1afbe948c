"""Tests for the probe-or-None metrics registry and its exporters.

The contracts under test: exactly ``None`` when disabled, snapshot
round-trips, order-independent merges (counters sum, gauges max,
histograms bucket-wise), pickling across process boundaries, and the
JSON/Prometheus export shapes.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.envknobs import EnvKnobError
from repro.obs.export import to_json, to_prometheus, write_snapshot
from repro.obs.metrics import (
    PROCESS,
    PROCESS_COUNTERS,
    Histogram,
    MetricsRegistry,
    RunMetrics,
    job_metrics,
    merge_job_metrics,
    metrics_enabled,
    run_metrics,
)


# -- enablement ---------------------------------------------------------------
def test_metrics_default_on_and_knob_off():
    assert metrics_enabled({}) is True
    assert metrics_enabled({"REPRO_METRICS": "1"}) is True
    assert metrics_enabled({"REPRO_METRICS": "0"}) is False
    assert metrics_enabled({"REPRO_METRICS": "off"}) is False
    assert run_metrics({"REPRO_METRICS": "0"}) is None
    assert isinstance(run_metrics({}), RunMetrics)
    with pytest.raises(EnvKnobError):
        metrics_enabled({"REPRO_METRICS": "maybe"})


def test_registry_is_process_global(tmp_path):
    """Every layer counts into the one registry the package exports."""
    from repro.obs import PROCESS as exported
    from repro.sim.diskcache import DiskCache

    assert exported is PROCESS
    before = PROCESS.counts()
    DiskCache(tmp_path).get("alone", "absent")
    assert PROCESS.growth(before) == {"cache.misses": 1}


# -- metric semantics ---------------------------------------------------------
def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(4)
    registry.gauge("g").set(2.5)
    registry.gauge("g").max(1.0)  # lower: no effect
    registry.gauge("g").max(9.0)
    for v in (0, 0.5, 1.0, 2.0, 3.0, 1024.0):
        registry.histogram("h").observe(v)
    snap = registry.snapshot()
    assert snap["counters"] == {"c": 5}
    assert snap["gauges"] == {"g": 9.0}
    h = snap["histograms"]["h"]
    assert h["count"] == 6
    assert h["sum"] == pytest.approx(1030.5)
    assert h["max"] == 1024.0
    # 0, 0.5, 1.0 -> bucket 0 (<= 2**0); 2.0 -> 1; 3.0 -> 2; 1024 -> 10.
    assert h["buckets"] == {"0": 3, "1": 1, "2": 1, "10": 1}


def test_histogram_rejects_negative():
    with pytest.raises(ValueError):
        Histogram().observe(-1.0)


def test_empty_registry_is_falsy():
    registry = MetricsRegistry()
    assert not registry
    registry.counter("x")
    assert registry


# -- merge --------------------------------------------------------------------
def _worker_registry(jobs: int, wall: float) -> MetricsRegistry:
    registry = MetricsRegistry()
    for i in range(jobs):
        registry.counter("jobs").inc()
        registry.histogram("wall").observe(wall * (i + 1))
    registry.gauge("high_water").max(jobs)
    return registry


def test_merge_is_order_independent():
    parts = [_worker_registry(2, 0.5), _worker_registry(3, 2.0), _worker_registry(1, 7.0)]
    forward = MetricsRegistry()
    for part in parts:
        forward.merge(part)
    backward = MetricsRegistry()
    for part in reversed(parts):
        backward.merge(part)
    assert forward.snapshot() == backward.snapshot()
    assert forward.snapshot()["counters"] == {"jobs": 6}
    assert forward.snapshot()["gauges"] == {"high_water": 3}


def test_merge_accepts_snapshot_dicts_and_round_trips():
    source = _worker_registry(4, 1.5)
    snap = source.snapshot()
    rebuilt = MetricsRegistry.from_snapshot(snap)
    assert rebuilt.snapshot() == snap
    # Merging a snapshot (the serialized form) equals merging the registry.
    a = MetricsRegistry().merge(snap)
    b = MetricsRegistry().merge(source)
    assert a.snapshot() == b.snapshot()


def test_registry_pickles_across_process_boundary_shape():
    source = _worker_registry(3, 0.25)
    clone = pickle.loads(pickle.dumps(source))
    assert clone.snapshot() == source.snapshot()


# -- job metrics --------------------------------------------------------------
def test_job_metrics_and_merge(monkeypatch):
    from repro.config import baseline_system
    from repro.sim.runner import ExperimentRunner

    runner = ExperimentRunner(
        baseline_system(4), instructions=8_000, seed=0, cache_dir=None
    )
    result = runner.run_workload(
        ["libquantum", "mcf", "GemsFDTD", "xalancbmk"], "FR-FCFS"
    )
    blob = job_metrics(result)
    assert set(blob) == {
        "sim.cycles",
        "sim.events_elided",
        "sim.events_logical",
        "sim.events_processed",
        "sim.min_rebuilds",
        "sim.row_conflicts",
        "sim.row_hits",
    }
    assert blob["sim.events_logical"] == (
        blob["sim.events_processed"] + blob["sim.events_elided"]
    )
    doubled = merge_job_metrics([blob, blob])
    assert doubled == {name: 2 * value for name, value in blob.items()}


def test_run_metrics_report_every_counter_and_only_growth(tmp_path):
    """A run reports every declared counter, zeros included, with only
    its own growth, plus what it recorded in its own registry."""
    from repro.sim.diskcache import DiskCache

    DiskCache(tmp_path).get("alone", "before-the-run")
    run = run_metrics({})
    run.registry.counter("campaign.jobs_ran").inc(3)
    DiskCache(tmp_path).get("alone", "during-the-run")
    counters = run.collect().snapshot()["counters"]
    assert counters["campaign.jobs_ran"] == 3
    assert counters["cache.misses"] == 1
    assert set(PROCESS_COUNTERS) <= set(counters)
    assert {counters[name] for name in PROCESS_COUNTERS} == {0, 1}


_FRESH_SNAPSHOTS = """
import json, sys
from repro.obs.metrics import PROCESS
fresh = PROCESS.snapshot()
unloaded = [m for m in ("repro.sim.pool", "repro.guard.chaos", "repro.guard.invariants")
            if m not in sys.modules]
import repro.guard.chaos, repro.guard.invariants, repro.sim.pool
print(json.dumps([unloaded, fresh, PROCESS.snapshot()]))
"""


def test_process_registry_loads_no_pool_or_guard(tmp_path):
    """The registry imports neither the pool nor the guard layer, starts
    with every declared counter at 0, and importing those layers adds
    nothing to it."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SNAPSHOTS],
        env=env,
        cwd=tmp_path,
        check=True,
        capture_output=True,
        text=True,
    )
    unloaded, fresh, loaded = json.loads(proc.stdout)
    assert len(unloaded) == 3
    assert fresh == loaded
    assert fresh["counters"] == dict.fromkeys(sorted(PROCESS_COUNTERS), 0)


# -- exporters ----------------------------------------------------------------
def test_to_json_is_stable_and_parseable():
    snap = _worker_registry(2, 1.0).snapshot()
    text = to_json(snap, indent=2)
    assert text.endswith("\n")
    assert json.loads(text) == snap


def test_to_prometheus_shape():
    registry = MetricsRegistry()
    registry.counter("pool.respawns").inc(2)
    registry.gauge("queue.depth").set(7)
    registry.histogram("wall.job_s").observe(3.0)
    text = to_prometheus(registry.snapshot())
    assert "# TYPE repro_pool_respawns_total counter" in text
    assert "repro_pool_respawns_total 2" in text
    assert "repro_queue_depth 7" in text
    # Histograms render cumulative buckets with a +Inf terminator.
    assert 'repro_wall_job_s_bucket{le="+Inf"} 1' in text
    assert "repro_wall_job_s_count 1" in text


def test_write_snapshot_picks_format_by_suffix(tmp_path):
    snap = _worker_registry(1, 1.0).snapshot()
    json_path = tmp_path / "deep" / "m.json"
    prom_path = tmp_path / "m.prom"
    write_snapshot(json_path, snap)
    write_snapshot(prom_path, snap)
    assert json.loads(json_path.read_text()) == snap
    assert prom_path.read_text().startswith("# TYPE")
