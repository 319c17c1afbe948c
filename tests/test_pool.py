"""Tests for the process-parallel experiment engine and the disk cache."""

from __future__ import annotations

import os
import pickle
import time
from collections import Counter

import pytest

from repro.config import baseline_system
from repro.obs.metrics import PROCESS
from repro.sim import pool
from repro.sim.diskcache import DiskCache, cache_enabled, clear_cache, content_key
from repro.sim.pool import SimJob, default_jobs, run_job, run_jobs
from repro.sim.runner import ExperimentRunner

INSTRUCTIONS = 20_000
WORKLOAD = ["mcf", "libquantum", "omnetpp", "hmmer"]
SCHEDULERS = ["FR-FCFS", "PAR-BS"]


# -- job descriptions ----------------------------------------------------------
def test_sim_job_is_picklable(tmp_path):
    job = SimJob(
        config=baseline_system(4),
        workload=tuple(WORKLOAD),
        scheduler="PAR-BS",
        scheduler_kwargs={"marking_cap": 5},
        instructions=INSTRUCTIONS,
        seed=3,
        cache_dir=str(tmp_path),
    )
    clone = pickle.loads(pickle.dumps(job))
    assert clone == job
    assert clone.runner_key() == job.runner_key()


def test_default_jobs_env(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    assert default_jobs() == 6
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert default_jobs() == 1


# -- disk cache ----------------------------------------------------------------
def test_content_key_stability_and_sensitivity():
    config = baseline_system(4)
    assert content_key([config, 1]) == content_key([baseline_system(4), 1])
    assert content_key([config, 1]) != content_key([config, 2])
    assert content_key([config, 1]) != content_key([baseline_system(8), 1])


def _cache_growth(before: dict) -> dict:
    """The ``cache.*`` counters that grew since ``before``, by how much."""
    return {
        name: grown
        for name, grown in PROCESS.growth(before).items()
        if name.startswith("cache.")
    }


def test_disk_cache_roundtrip_and_clear(tmp_path):
    before = PROCESS.counts()
    cache = DiskCache(tmp_path)
    assert cache.get("alone", "k") is None
    cache.put("alone", "k", {"ipc": 1.25})
    assert cache.get("alone", "k") == {"ipc": 1.25}
    assert _cache_growth(before) == {
        "cache.hits": 1,
        "cache.misses": 1,
        "cache.writes": 1,
    }
    assert clear_cache(tmp_path) == 1
    assert cache.get("alone", "k") is None


def test_disk_cache_drops_corrupt_entries(tmp_path):
    cache = DiskCache(tmp_path)
    cache.put("trace", "bad", [1, 2, 3])
    path = cache._path("trace", "bad")
    path.write_text("{not json")
    assert cache.get("trace", "bad") is None
    assert not path.exists()


def _put_sized(cache: DiskCache, kind: str, key: str, kilobytes: int) -> None:
    cache.put(kind, key, "x" * (kilobytes * 1024))


def test_cache_size_accounting(tmp_path):
    cache = DiskCache(tmp_path)
    _put_sized(cache, "alone", "a", 10)
    _put_sized(cache, "trace", "b", 20)
    usage = cache.usage()
    assert usage["alone"][0] == 1 and usage["trace"][0] == 1
    assert cache.size_bytes() == sum(b for _n, b in usage.values())
    assert cache.size_bytes() > 30 * 1024


def test_prune_unbounded_is_noop(tmp_path):
    cache = DiskCache(tmp_path)  # no max_mb, no REPRO_CACHE_MAX_MB
    _put_sized(cache, "alone", "a", 10)
    assert cache.prune() == (0, 0)
    assert cache.get("alone", "a") is not None


def test_prune_evicts_oldest_mtime_first(tmp_path):
    cache = DiskCache(tmp_path)
    for i, key in enumerate(("old", "mid", "new")):
        _put_sized(cache, "alone", key, 100)
        os.utime(cache._path("alone", key), (i, i))  # deterministic mtimes
    removed, freed = cache.prune(max_mb=0.12)  # keeps ~one 100 KB entry
    assert removed == 2
    assert freed > 0
    assert cache.get("alone", "new") is not None
    assert cache.get("alone", "old") is None
    assert cache.get("alone", "mid") is None


def test_hit_touches_mtime_for_lru(tmp_path):
    cache = DiskCache(tmp_path)
    for i, key in enumerate(("first", "second")):
        _put_sized(cache, "alone", key, 100)
        os.utime(cache._path("alone", key), (i, i))
    # Touch "first": it becomes most-recently-used and must survive.
    assert cache.get("alone", "first") is not None
    cache.prune(max_mb=0.12)
    assert cache._path("alone", "first").exists()
    assert not cache._path("alone", "second").exists()


def test_bounded_cache_prunes_opportunistically(tmp_path):
    cache = DiskCache(tmp_path, max_mb=0.05)  # 50 KB budget
    before = PROCESS.counts()
    for i in range(DiskCache.PRUNE_EVERY):
        _put_sized(cache, "alone", f"k{i}", 10)
    # The PRUNE_EVERY-th put triggered a prune back under budget.
    assert _cache_growth(before).get("cache.pruned", 0) > 0
    assert cache.size_bytes() <= 0.05 * 1024 * 1024


def test_max_mb_resolved_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "12.5")
    assert DiskCache(tmp_path).max_mb == 12.5
    monkeypatch.delenv("REPRO_CACHE_MAX_MB")
    assert DiskCache(tmp_path).max_mb is None


def test_cache_enabled_env(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    assert cache_enabled()
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert not cache_enabled()
    assert ExperimentRunner(instructions=INSTRUCTIONS).disk_cache is None


# -- serial/parallel equivalence ----------------------------------------------
@pytest.fixture(scope="module")
def serial_results():
    # jobs=1 pins the serial path even if REPRO_JOBS is set in the
    # environment (CI runs this file with REPRO_JOBS=2).
    runner = ExperimentRunner(
        baseline_system(4), instructions=INSTRUCTIONS, jobs=1, cache_dir=None
    )
    return runner.compare_schedulers(WORKLOAD, SCHEDULERS)


def test_parallel_matches_serial_bit_identical(tmp_path, serial_results):
    runner = ExperimentRunner(
        baseline_system(4),
        instructions=INSTRUCTIONS,
        jobs=2,
        cache_dir=tmp_path / "cache",
    )
    parallel = runner.compare_schedulers(WORKLOAD, SCHEDULERS)
    # WorkloadResult is a frozen dataclass tree of exact ints/floats, so
    # equality here means bit-identical metrics, thread by thread.
    assert parallel == serial_results


def test_second_run_hits_disk_cache(tmp_path, serial_results):
    cache_dir = tmp_path / "cache"
    before = PROCESS.counts()
    first = ExperimentRunner(
        baseline_system(4), instructions=INSTRUCTIONS, cache_dir=cache_dir
    )
    r1 = first.compare_schedulers(WORKLOAD, SCHEDULERS)
    assert _cache_growth(before).get("cache.writes", 0) > 0

    before = PROCESS.counts()
    second = ExperimentRunner(
        baseline_system(4), instructions=INSTRUCTIONS, cache_dir=cache_dir
    )
    r2 = second.compare_schedulers(WORKLOAD, SCHEDULERS)
    stats = _cache_growth(before)
    assert "cache.misses" not in stats and "cache.writes" not in stats
    assert stats["cache.hits"] > 0
    assert r1 == r2 == serial_results


def test_run_job_standalone_matches_runner(tmp_path, serial_results):
    job = SimJob(
        config=baseline_system(4),
        workload=tuple(WORKLOAD),
        scheduler="PAR-BS",
        instructions=INSTRUCTIONS,
        cache_dir=str(tmp_path / "cache"),
    )
    assert run_job(job) == serial_results["PAR-BS"]
    # run_jobs with workers=1 stays in-process and preserves order.
    jobs = [
        SimJob(
            config=baseline_system(4),
            workload=tuple(WORKLOAD),
            scheduler=name,
            instructions=INSTRUCTIONS,
            cache_dir=str(tmp_path / "cache"),
        )
        for name in SCHEDULERS
    ]
    assert run_jobs(jobs, workers=1) == [serial_results[n] for n in SCHEDULERS]


def test_run_many_mixed_specs_order(tmp_path, serial_results):
    runner = ExperimentRunner(
        baseline_system(4),
        instructions=INSTRUCTIONS,
        jobs=2,
        cache_dir=tmp_path / "cache",
    )
    specs = [(WORKLOAD, name, {}) for name in reversed(SCHEDULERS)]
    results = runner.run_many(specs)
    assert [r.scheduler for r in results] == list(reversed(SCHEDULERS))
    assert results[-1] == serial_results[SCHEDULERS[0]]


def test_global_stats_accumulate(tmp_path):
    before = PROCESS.counts()
    cache = DiskCache(tmp_path)
    cache.put("alone", "x", 1)
    cache.get("alone", "x")
    assert _cache_growth(before) == {"cache.hits": 1, "cache.writes": 1}


# -- the in-flight window ------------------------------------------------------
def _window_task(key: int, markers: str) -> int:
    """``key * key``.  Key 7 raises until the parent has handled its
    failure (a failure still in flight when the pool breaks is lost and
    the key rerun); key 23 kills its worker once."""
    if key == 7 and not os.path.exists(os.path.join(markers, "handled")):
        raise RuntimeError("injected failure")
    if key == 23:
        try:
            os.close(os.open(os.path.join(markers, "killed"), os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os._exit(3)
    return key * key


def test_run_tasks_keeps_twice_the_workers_in_flight(tmp_path, monkeypatch):
    """A batch 15x the window, with one resubmitted failure and one
    requeue after a killed worker: no wait ever sees more than
    ``2 * workers`` futures, and every key resolves exactly once."""
    workers, count = 2, 60
    in_flight: list[int] = []
    real_wait = pool.wait

    def counting_wait(fs, *args, **kwargs):
        in_flight.append(len(fs))
        return real_wait(fs, *args, **kwargs)

    monkeypatch.setattr(pool, "wait", counting_wait)
    resolved: Counter = Counter()
    failed: list[int] = []
    requeued: list[list[int]] = []

    def on_result(key: int, value: int) -> None:
        assert value == key * key
        resolved[key] += 1

    def on_error(key: int, error: Exception) -> bool:
        failed.append(key)
        (tmp_path / "handled").touch()
        return True

    def on_requeue(keys: list[int]) -> list[int]:
        requeued.append(keys)
        return keys

    before = PROCESS.counts()
    pool.run_tasks(
        _window_task,
        {key: (key, str(tmp_path)) for key in range(count)},
        workers,
        on_result=on_result,
        on_error=on_error,
        on_requeue=on_requeue,
    )
    grown = PROCESS.growth(before)
    assert grown.get("pool.serial_fallbacks", 0) == 0
    assert max(in_flight) == 2 * workers
    assert resolved == Counter(range(count))
    assert failed == [7]
    assert len(requeued) == 1 and 23 in requeued[0]
    assert grown["pool.respawns"] == 1


# -- in this process -----------------------------------------------------------
def _no_pool(*args, **kwargs):
    raise AssertionError("one worker must not start a pool")


def test_run_tasks_beats_from_the_progress_hook_in_process(monkeypatch):
    """With one worker the task runs here, and the beat fires while the
    simulation runs, from the simulator's progress hook."""
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", _no_pool)
    # Reach the simulator's progress checkpoint within a short run.
    monkeypatch.setattr("repro.sim.system._WATCHDOG_CHECK_EVENTS", 1000)
    job = SimJob(
        config=baseline_system(4),
        workload=tuple(WORKLOAD),
        scheduler="FR-FCFS",
        instructions=INSTRUCTIONS,
    )
    beats: list[str] = []
    results: dict[str, object] = {}

    def beat() -> None:
        # A beat outside a running simulation would see no result yet.
        beats.append("running" if "job" not in results else "after")

    pool.run_tasks(
        pool.run_job,
        {"job": (job,)},
        1,
        on_result=results.__setitem__,
        beat=beat,
        beat_s=0.0,
    )
    assert results["job"] == run_job(job)
    assert "running" in beats


def test_run_tasks_reruns_a_resubmitted_key_in_process(monkeypatch):
    monkeypatch.setattr("concurrent.futures.process.ProcessPoolExecutor", _no_pool)
    calls: Counter = Counter()

    def flaky(key: int) -> int:
        calls[key] += 1
        if key == 1 and calls[key] == 1:
            raise RuntimeError("first attempt fails")
        return key * key

    results: dict[int, int] = {}
    errors: list[int] = []

    def on_error(key: int, error: Exception) -> bool:
        errors.append(key)
        return True

    before = PROCESS.counts()
    pool.run_tasks(
        flaky,
        {key: (key,) for key in range(3)},
        1,
        on_result=results.__setitem__,
        on_error=on_error,
    )
    assert results == {0: 0, 1: 1, 2: 4}
    assert errors == [1]
    assert calls == Counter({0: 1, 1: 2, 2: 1})
    assert PROCESS.growth(before).get("pool.serial_fallbacks", 0) == 0


# -- wall-clock speedup (needs real cores) -------------------------------------
@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="parallel speedup needs >= 4 CPUs"
)
def test_parallel_wall_clock_speedup(tmp_path):
    cache_dir = tmp_path / "cache"
    runner, pooled = (
        ExperimentRunner(
            baseline_system(4), instructions=60_000, jobs=jobs, cache_dir=cache_dir
        )
        for jobs in (1, 4)
    )
    # Warm alone baselines + traces so both timings measure only the
    # shared-run simulations.
    for benchmark in set(WORKLOAD):
        runner.alone(benchmark)

    start = time.perf_counter()
    serial = runner.compare_schedulers(WORKLOAD)
    t_serial = time.perf_counter() - start

    start = time.perf_counter()
    parallel = pooled.compare_schedulers(WORKLOAD)
    t_parallel = time.perf_counter() - start

    assert parallel == serial
    # Five independent scheduler runs over four workers; allow generous
    # headroom below the ideal bound for fork + pickle overhead.
    assert t_serial / t_parallel >= 2.0, (t_serial, t_parallel)
