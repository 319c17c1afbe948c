"""Alone-run baselines warmed across the worker pool.

:func:`repro.sim.pool.warm_baselines` computes the baselines a batch of
jobs needs before the jobs run: the caller checks the disk cache, and
only the missing baselines go to a short-lived pool of the run's worker
count.  These tests pin what that must preserve:

* each distinct baseline is computed and written once, and the results
  equal the serial ones, on ``run_many`` and on ``run_campaign``;
* a warm cache forks nothing;
* a warm worker that dies costs nothing but time;
* a baseline's own exception surfaces as it does on the serial path.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path

import pytest

from repro.campaign.orchestrator import run_campaign
from repro.campaign.report import export_text
from repro.campaign.spec import CampaignSpec, Variant
from repro.campaign.store import ResultStore
from repro.campaign.worker import drain_campaign
from repro.config import baseline_system
from repro.obs.metrics import PROCESS
from repro.sim import pool
from repro.sim.diskcache import DiskCache
from repro.sim.runner import ExperimentRunner

INSTRUCTIONS = 10_000
WORKLOAD = ["mcf", "libquantum", "omnetpp", "hmmer"]
SCHEDULERS = ["FR-FCFS", "PAR-BS"]


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="warm",
        variants=(Variant("FCFS", "FCFS"), Variant("FR-FCFS", "FR-FCFS")),
        mix_count=2,
        instructions=INSTRUCTIONS,
    )


@pytest.fixture(scope="module")
def golden_csv(tmp_path_factory):
    """The serial campaign's CSV export, run without a disk cache."""
    spec = _spec()
    with pytest.MonkeyPatch.context() as mp, ResultStore(
        tmp_path_factory.mktemp("golden") / "serial.sqlite"
    ) as store:
        mp.setenv("REPRO_CACHE", "0")
        run_campaign(spec, store, jobs=1)
        return export_text(spec, store, fmt="csv")


def _runner(cache_dir, jobs: int | None = None) -> ExperimentRunner:
    return ExperimentRunner(
        baseline_system(4), instructions=INSTRUCTIONS, jobs=jobs, cache_dir=cache_dir
    )


def _sim_jobs(runner: ExperimentRunner) -> list[pool.SimJob]:
    return [
        pool.SimJob(
            config=runner.config,
            workload=tuple(WORKLOAD),
            scheduler=name,
            instructions=runner.instructions,
            seed=runner.seed,
            cache_dir=runner.cache_dir,
            backend=runner.backend,
        )
        for name in SCHEDULERS
    ]


@pytest.fixture
def put_log(tmp_path, monkeypatch):
    """Record every disk-cache write as one ``kind key`` line, from this
    process and from every worker forked while the patch is in place."""
    log = tmp_path / "puts.log"
    real_put = DiskCache.put

    def put(self, kind, key, value):
        real_put(self, kind, key, value)
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
        try:
            os.write(fd, f"{kind} {key}\n".encode())
        finally:
            os.close(fd)

    monkeypatch.setattr(DiskCache, "put", put)

    def alone_writes() -> Counter:
        if not log.exists():
            return Counter()
        return Counter(
            key
            for kind, key in (line.split() for line in log.read_text().splitlines())
            if kind == "alone"
        )

    return alone_writes


def _alone_files(cache_dir: Path) -> list[Path]:
    return sorted((cache_dir / "alone").glob("*.json"))


def test_run_many_writes_each_baseline_once(tmp_path, put_log):
    serial = ExperimentRunner(
        baseline_system(4), instructions=INSTRUCTIONS, jobs=1, cache_dir=None
    ).compare_schedulers(WORKLOAD, SCHEDULERS)
    cache_dir = tmp_path / "cache"
    runner = _runner(cache_dir, jobs=2)
    before = PROCESS.counts()
    parallel = runner.compare_schedulers(WORKLOAD, SCHEDULERS)
    assert parallel == serial
    files = _alone_files(cache_dir)
    assert len(files) == len(set(WORKLOAD))
    writes = put_log()
    assert sorted(writes) == [path.stem for path in files]
    assert set(writes.values()) == {1}
    # The warm workers' cache traffic reaches this process's registry.
    grown = PROCESS.growth(before)
    assert grown["cache.misses"] >= len(set(WORKLOAD))
    assert grown["cache.writes"] >= len(set(WORKLOAD))


def test_run_campaign_writes_each_baseline_once(
    tmp_path, monkeypatch, put_log, golden_csv
):
    spec = _spec()
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    with ResultStore(tmp_path / "parallel.sqlite") as store:
        stats = run_campaign(spec, store, jobs=2)
        assert (stats.ran, stats.failed) == (4, 0)
        assert export_text(spec, store, fmt="csv") == golden_csv
    benchmarks = {b for job in spec.expand() for b in job.workload}
    files = _alone_files(cache_dir)
    assert len(files) == len(benchmarks)
    writes = put_log()
    assert sorted(writes) == [path.stem for path in files]
    assert set(writes.values()) == {1}


def test_pooled_drain_writes_each_cache_entry_once(tmp_path):
    """A pooled ``campaign work`` drain warms the baselines before its
    workers race for them, so a cold cache is written once per entry."""
    spec = CampaignSpec(
        name="cold",
        variants=tuple(Variant(name, name) for name in ("FCFS", "FR-FCFS", "NFQ", "PAR-BS")),
        mix_count=2,
        instructions=20_000,
    )
    cache_dir = tmp_path / "cache"
    before = PROCESS.counts()
    with ResultStore(tmp_path / "drain.sqlite") as store:
        stats = drain_campaign(spec, store, jobs=2, cache_dir=str(cache_dir))
    assert (stats.completed, stats.failed) == (len(spec.expand()), 0)
    entries = DiskCache(cache_dir).entries()
    assert PROCESS.growth(before)["cache.writes"] == len(entries)


class _NoExecutor:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a warm cache must not start a pool")


@pytest.mark.parametrize("calling_runner", [True, False])
def test_warm_cache_forks_nothing(tmp_path, monkeypatch, calling_runner):
    runner = _runner(tmp_path / "cache")
    for benchmark in WORKLOAD:
        runner.alone(benchmark)
    checker = _runner(tmp_path / "cache")
    # run_tasks imports the executor class when a generation starts.
    monkeypatch.setattr(
        "concurrent.futures.process.ProcessPoolExecutor", _NoExecutor
    )
    before = PROCESS.counts()
    pool.warm_baselines(
        _sim_jobs(checker), 2, runner=checker if calling_runner else None
    )
    if calling_runner:
        assert PROCESS.growth(before)["cache.hits"] == len(WORKLOAD)


def _exit_warm(job, benchmark):
    os._exit(3)


def test_dead_warm_worker_is_tolerated(tmp_path, monkeypatch, caplog, golden_csv):
    spec = _spec()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setattr(pool, "_warm_alone", _exit_warm)
    with ResultStore(tmp_path / "parallel.sqlite") as store:
        stats = run_campaign(spec, store, jobs=2)
        assert (stats.ran, stats.failed) == (4, 0)
        assert export_text(spec, store, fmt="csv") == golden_csv
    assert "baseline pool broke" in caplog.text


class BaselineError(RuntimeError):
    pass


def _raising_alone(self, benchmark):
    raise BaselineError(benchmark)


def test_baseline_exception_propagates_like_serial(tmp_path, monkeypatch):
    monkeypatch.setattr(ExperimentRunner, "alone", _raising_alone)
    specs = [(WORKLOAD, name, {}) for name in SCHEDULERS]
    with pytest.raises(BaselineError):
        _runner(tmp_path / "serial", jobs=1).run_many(specs)
    with pytest.raises(BaselineError):
        _runner(tmp_path / "parallel", jobs=2).run_many(specs)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "campaign"))
    with ResultStore(tmp_path / "db.sqlite") as store:
        with pytest.raises(BaselineError):
            run_campaign(_spec(), store, jobs=2)


def test_warm_counters_reach_global_stats(tmp_path):
    """The warm workers' cache counts reach this process's registry."""
    runner = _runner(tmp_path / "cache")
    before = PROCESS.counts()
    pool.warm_baselines(_sim_jobs(runner), 2, runner=runner)
    # Each baseline: one miss in the parent's check, one in the worker's
    # alone() and one on its trace; two writes (trace and baseline).
    count = len(WORKLOAD)
    assert PROCESS.growth(before) == {
        "cache.misses": 3 * count,
        "cache.writes": 2 * count,
    }
