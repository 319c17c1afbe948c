"""Fault injection and the recovery paths it exists to exercise.

The load-bearing test here is the chaos campaign: workers killed by the
plan, cache entries corrupted up front, SQLite commits hiccuping — and
the resumed campaign still exports a report byte-identical to a
fault-free golden run.
"""

import multiprocessing
import sqlite3

import pytest

from repro.campaign.orchestrator import run_campaign
from repro.campaign.report import export_text
from repro.campaign.spec import spec_from_dict
from repro.campaign.store import ResultStore
from repro.campaign.worker import drain_campaign
from repro.envknobs import EnvKnobError
from repro.guard.chaos import ChaosInjectedError, ChaosPlan, chaos_from_env
from repro.obs.metrics import PROCESS
from repro.sim import pool
from repro.sim.diskcache import DiskCache

INSTRUCTIONS = 2_000


def _plan(tmp_path, spec: str) -> ChaosPlan:
    return ChaosPlan.parse(f"{spec},dir={tmp_path / 'markers'}")


# -- plan parsing and decisions ----------------------------------------------
def test_parse_roundtrips_through_spec(tmp_path):
    plan = _plan(tmp_path, "kill=0.5,corrupt=1,sqlite=0.25,seed=7")
    assert (plan.kill, plan.corrupt, plan.sqlite, plan.seed) == (0.5, 1.0, 0.25, 7)
    assert ChaosPlan.parse(plan.spec()) == plan


def test_parse_resolves_marker_dir_when_omitted():
    plan = ChaosPlan.parse("kill=1")
    assert plan.dir  # a fresh temp dir was created
    assert f"dir={plan.dir}" in plan.spec()


@pytest.mark.parametrize(
    "bad",
    ["kill=2", "kill=-0.1", "kill=lots", "seed=x", "flood=1", "kill", "=1"],
)
def test_parse_rejects_malformed_specs(bad):
    with pytest.raises(EnvKnobError):
        ChaosPlan.parse(bad)


def test_chaos_from_env(tmp_path):
    assert chaos_from_env({}) is None
    assert chaos_from_env({"REPRO_CHAOS": "  "}) is None
    plan = _plan(tmp_path, "kill=1,seed=3")
    assert chaos_from_env({"REPRO_CHAOS": plan.spec()}) == plan


def test_decisions_are_deterministic_and_rate_bounded(tmp_path):
    plan = _plan(tmp_path, "kill=0.5,seed=9")
    keys = [f"job-{i}" for i in range(200)]
    first = [plan._decide("kill", k) for k in keys]
    assert first == [plan._decide("kill", k) for k in keys]
    assert 0 < sum(first) < len(keys)  # a rate strictly between 0 and 1
    none = _plan(tmp_path, "seed=9")
    assert not any(none._decide("kill", k) for k in keys)


def test_fire_once_is_once_across_plan_copies(tmp_path):
    plan = _plan(tmp_path, "kill=1,seed=1")
    assert plan.fire_once("kill", "job-a") is True
    assert plan.fire_once("kill", "job-a") is False  # marker persists
    # A second plan sharing the marker dir (another process) also sees it.
    assert ChaosPlan.parse(plan.spec()).fire_once("kill", "job-a") is False
    assert plan.fire_once("kill", "job-b") is True  # independent keys


def test_maybe_kill_worker_raises_in_process(tmp_path):
    plan = _plan(tmp_path, "kill=1,seed=1")
    with pytest.raises(ChaosInjectedError):
        plan.maybe_kill_worker("job-a")
    plan.maybe_kill_worker("job-a")  # once-only: the retry survives


# -- cache corruption -> quarantine -> recompute ------------------------------
def test_corrupt_cache_entries_are_quarantined_and_recomputed(tmp_path):
    cache = DiskCache(tmp_path / "cache")
    for i in range(4):
        cache.put("alone", f"entry{i}", {"ipc": float(i)})
    plan = _plan(tmp_path, "corrupt=1,seed=5")
    before = PROCESS.counts()
    assert plan.corrupt_cache(cache) == 4
    for i in range(4):
        assert cache.get("alone", f"entry{i}") is None  # miss, not a crash
    assert PROCESS.growth(before)["cache.quarantined"] == 4
    # Quarantined files are renamed aside and excluded from entries().
    corpses = list((tmp_path / "cache").rglob("*.json.corrupt"))
    assert len(corpses) == 4
    assert cache.entries() == []
    # Recompute-and-restore works; clear() sweeps the corpses too.
    cache.put("alone", "entry0", {"ipc": 0.0})
    assert cache.get("alone", "entry0") == {"ipc": 0.0}
    assert cache.clear() == 5


# -- store commit retries -----------------------------------------------------
def test_store_commit_survives_injected_sqlite_error(tmp_path):
    store = ResultStore(tmp_path / "store.sqlite")
    store.chaos = _plan(tmp_path, "sqlite=1,seed=2")
    # One injected OperationalError per commit key; the retry absorbs it.
    store.record_progress("feedface", 1, None, "retrying")
    store.record_progress("feedface", 1, None, "failed")  # marker: no re-injection
    assert store.progress_for(["feedface"])["feedface"]["status"] == "failed"
    store.close()


def test_store_commit_reraises_persistent_sqlite_error(tmp_path, monkeypatch):
    from repro.campaign import store as store_mod

    store = ResultStore(tmp_path / "store.sqlite")
    monkeypatch.setattr(store_mod, "_COMMIT_BACKOFF_S", 0.001)

    class AlwaysLocked:
        def sqlite_hiccup(self, key):
            raise sqlite3.OperationalError("database is locked (test)")

    store.chaos = AlwaysLocked()
    with pytest.raises(sqlite3.OperationalError):
        store.record_progress("feedface", 1, None, "failed")
    store.close()


# -- pool-level recovery ------------------------------------------------------
def test_run_jobs_pool_recovers_from_killed_workers(tmp_path, monkeypatch):
    from repro.config import baseline_system
    from repro.sim.pool import SimJob, run_job, run_jobs

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    jobs = [
        SimJob(
            config=baseline_system(2),
            workload=("mcf", "lbm"),
            scheduler=name,
            instructions=INSTRUCTIONS,
            cache_dir=str(tmp_path / "cache"),
        )
        for name in ("FCFS", "FR-FCFS", "PAR-BS")
    ]
    serial = [run_job(job) for job in jobs]  # fault-free reference
    plan = _plan(tmp_path, "kill=1,seed=6")
    monkeypatch.setenv("REPRO_CHAOS", plan.spec())
    # Every job kills its worker once; the pool respawns (then falls back
    # to serial if needed) and still returns complete, identical results.
    assert run_jobs(jobs, workers=2, job_timeout_s=300) == serial


# -- the full story: chaos campaign converges to the fault-free report --------
def _smoke_spec():
    return spec_from_dict(
        {
            "name": "chaos-smoke",
            "schedulers": ["FR-FCFS", "PAR-BS"],
            "mixes": [["mcf", "libquantum"], ["lbm", "milc"]],
            "mix_count": 0,
            "num_cores": [2],
            "instructions": INSTRUCTIONS,
            "seeds": [0],
        }
    )


def test_serial_campaign_retries_injected_kills(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    spec = _smoke_spec()
    plan = _plan(tmp_path, "kill=1,seed=4")
    with ResultStore(tmp_path / "store.sqlite") as store:
        stats = run_campaign(spec, store, jobs=1, chaos=plan, backoff_s=0.001)
    assert stats.ran == stats.total == 4
    assert stats.failed == 0
    assert stats.retried == 4  # every job died once, succeeded on retry


def test_chaos_campaign_report_matches_fault_free_golden(tmp_path, monkeypatch):
    spec = _smoke_spec()
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)

    # Golden: fault-free serial run.
    with ResultStore(tmp_path / "golden.sqlite") as store:
        golden_stats = run_campaign(spec, store, jobs=1)
        golden = export_text(spec, store, fmt="csv")
    assert golden_stats.failed == 0

    # Chaos: every worker killed once, every cache entry corrupted, and
    # SQLite commits hiccuping — over a real process pool.  The plan is
    # exported to the environment so pool workers share the marker dir.
    plan = _plan(tmp_path, "kill=1,corrupt=1,sqlite=1,seed=11")
    monkeypatch.setenv("REPRO_CHAOS", plan.spec())
    with ResultStore(tmp_path / "chaos.sqlite") as store:
        first = run_campaign(
            spec, store, jobs=2, chaos=plan, job_timeout_s=300,
            backoff_s=0.001,
        )
        # Resume: anything dropped by pool deaths is picked up here; the
        # kill markers have all fired, so this pass runs clean.
        second = run_campaign(
            spec, store, jobs=2, chaos=plan, job_timeout_s=300,
            backoff_s=0.001,
        )
        assert first.ran + second.ran == first.total
        assert second.failed == 0
        chaos_report = export_text(spec, store, fmt="csv")

    assert chaos_report == golden


# -- the no-progress timeout and Ctrl-C, on both pool callers ------------------
def _pool_stats_delta(before: dict) -> dict:
    """The ``pool.*`` incident counters that grew since ``before``."""
    return {
        name.removeprefix("pool."): grown
        for name, grown in PROCESS.growth(before).items()
        if name in ("pool.respawns", "pool.serial_fallbacks", "pool.timeouts")
    }


def _jobs(tmp_path) -> list[pool.SimJob]:
    from repro.config import baseline_system

    return [
        pool.SimJob(
            config=baseline_system(2),
            workload=("mcf", "lbm"),
            scheduler=name,
            instructions=INSTRUCTIONS,
            cache_dir=str(tmp_path / "cache"),
        )
        for name in ("FCFS", "FR-FCFS", "PAR-BS")
    ]


# Both callers see the same incidents: every job hangs its worker once,
# so the first generation times out, the respawned one times out on the
# jobs it has not run yet, and those run in this process.
HANG_STATS = {"respawns": 1, "serial_fallbacks": 1, "timeouts": 2}


def test_run_jobs_hang_times_out_respawns_and_reaps(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    jobs = _jobs(tmp_path)
    serial = [pool.run_job(job) for job in jobs]
    monkeypatch.setenv("REPRO_CHAOS", _plan(tmp_path, "hang=1,seed=11").spec())
    before = PROCESS.counts()
    assert pool.run_jobs(jobs, workers=2, job_timeout_s=2) == serial
    assert _pool_stats_delta(before) == HANG_STATS
    assert multiprocessing.active_children() == []


def test_campaign_hang_times_out_respawns_and_reaps(tmp_path, monkeypatch):
    spec = _smoke_spec()
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    with ResultStore(tmp_path / "golden.sqlite") as store:
        run_campaign(spec, store, jobs=1)
        golden = export_text(spec, store, fmt="csv")
    plan = _plan(tmp_path, "hang=1,seed=11")
    before = PROCESS.counts()
    with ResultStore(tmp_path / "hang.sqlite") as store:
        stats = run_campaign(spec, store, jobs=2, chaos=plan, job_timeout_s=2)
        assert (stats.ran, stats.failed) == (4, 0)
        assert export_text(spec, store, fmt="csv") == golden
    assert _pool_stats_delta(before) == HANG_STATS
    assert multiprocessing.active_children() == []


@pytest.fixture
def interrupt_first_wait(monkeypatch):
    """The executor's first wait raises ``KeyboardInterrupt`` (Ctrl-C)."""
    real_wait = pool.wait
    calls = []

    def wait(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise KeyboardInterrupt
        return real_wait(*args, **kwargs)

    monkeypatch.setattr(pool, "wait", wait)
    monkeypatch.delenv("REPRO_CHAOS", raising=False)


def test_run_jobs_interrupt_tears_the_pool_down(tmp_path, interrupt_first_wait):
    with pytest.raises(KeyboardInterrupt):
        pool.run_jobs(_jobs(tmp_path), workers=2)
    assert multiprocessing.active_children() == []


def test_campaign_interrupt_releases_every_lease(tmp_path, interrupt_first_wait):
    spec = _smoke_spec()
    keys = [job.key for job in spec.expand()]
    with ResultStore(tmp_path / "store.sqlite") as store:
        with pytest.raises(KeyboardInterrupt):
            drain_campaign(spec, store, jobs=2, cache_dir=str(tmp_path / "cache"))
        assert multiprocessing.active_children() == []
        assert store.leases_for(keys) == {}
        assert "done" not in store.statuses(keys).values()
