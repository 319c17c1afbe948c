"""Distributed drain tests: N workers, one store, exactly-once results.

The acceptance bar for the work-queue engine:

* two independent workers (own connections, own queues) drain one
  campaign to the same bytes a single golden worker produces — no job
  runs twice, no job is lost;
* a ``leasekill`` chaos fault (worker dies right after claiming) costs
  nothing: the serial and the pooled drain both retry and the campaign
  still matches the golden export;
* the resurrection scenario: a worker whose heartbeats are frozen
  (``hbfreeze``) loses its lease mid-simulation, a peer reclaims and
  commits, and the original worker's late commit is fenced off — the
  final export is still byte-identical to the golden run.
"""

from __future__ import annotations

import sqlite3
import threading
import time

import pytest

from repro.campaign.queue import LeaseQueue
from repro.campaign.report import export_text
from repro.campaign.spec import CampaignSpec, Variant
from repro.campaign.store import ResultStore
from repro.campaign.watch import merged_metrics
from repro.campaign.worker import drain_campaign
from repro.guard.chaos import ChaosPlan
from repro.obs.metrics import job_metrics


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="drains",
        variants=(Variant("FCFS", "FCFS"), Variant("FR-FCFS", "FR-FCFS")),
        mix_count=2,
        instructions=20_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """The single-worker export every distributed scenario must match."""
    spec = _spec()
    path = tmp_path_factory.mktemp("golden") / "golden.sqlite"
    with ResultStore(path) as store:
        stats = drain_campaign(spec, store, worker_id="golden")
        assert stats.completed == len(spec.expand())
        return export_text(spec, store, fmt="csv")


def _drain_in_thread(path, spec, worker_id, results, **kwargs):
    """One worker with its own connection (sqlite connections are
    thread-bound), collecting its WorkerStats into ``results``."""

    def run() -> None:
        with ResultStore(path) as store:
            results[worker_id] = drain_campaign(
                spec, store, worker_id=worker_id, **kwargs
            )

    thread = threading.Thread(target=run, name=worker_id)
    thread.start()
    return thread


def test_two_workers_drain_to_golden_bytes(tmp_path, golden):
    spec = _spec()
    path = tmp_path / "two.sqlite"
    results: dict[str, object] = {}
    threads = [
        _drain_in_thread(path, spec, wid, results) for wid in ("a", "b")
    ]
    for thread in threads:
        thread.join()
    a, b = results["a"], results["b"]
    # Every job ran exactly once, split between the two workers.
    assert a.completed + b.completed == len(spec.expand())
    assert a.failed == b.failed == 0
    assert a.fenced == b.fenced == 0
    # Both workers drained to completion: each saw the other's commits.
    assert a.completed + a.foreign_done == len(spec.expand())
    assert b.completed + b.foreign_done == len(spec.expand())
    with ResultStore(path) as store:
        assert export_text(spec, store, fmt="csv") == golden


@pytest.mark.parametrize("jobs", [1, 2])
def test_leasekill_chaos_is_retried_in_process(tmp_path, golden, jobs):
    """A drain hit by leasekill faults (one per job, right after each
    claim), serial or pooled, retries each job locally and still
    completes the campaign bit-for-bit."""
    spec = _spec()
    chaos = ChaosPlan.parse(f"leasekill=1,dir={tmp_path / 'markers'}")
    with ResultStore(tmp_path / "lk.sqlite") as store:
        stats = drain_campaign(
            spec, store, worker_id="victim", chaos=chaos, retries=2, jobs=jobs
        )
        assert stats.completed == len(spec.expand())
        assert stats.failed == 0
        assert stats.retried == len(spec.expand())  # one fault per job
        assert export_text(spec, store, fmt="csv") == golden


@pytest.mark.parametrize("jobs", [1, 2])
def test_claim_that_takes_over_an_expired_lease_counts_as_reclaimed(
    tmp_path, monkeypatch, jobs
):
    """A peer's lease can expire between a drain's reclaim pass and its
    claim; the claim then takes the job over itself, and the drain must
    credit that to ``reclaimed`` like a reclaim-pass takeover."""
    spec = _spec(mix_count=1)
    keys = [job.key for job in spec.expand()]
    now = [1000.0]

    def clock() -> float:
        return now[0]

    real_reclaim = LeaseQueue.reclaim_expired

    def reclaim_then_expire(queue):
        reclaimed = real_reclaim(queue)
        now[0] += 10.0  # the dead peer's lease runs out right after
        return reclaimed

    with ResultStore(tmp_path / "db.sqlite") as store:
        store.register(spec, spec.expand())
        dead = LeaseQueue(
            store, spec.fingerprint(), worker_id="dead", lease_s=5.0, clock=clock
        )
        assert dead.claim_next(keys[:1]) is not None
        monkeypatch.setattr(LeaseQueue, "reclaim_expired", reclaim_then_expire)
        stats = drain_campaign(
            spec, store, worker_id="rescuer", jobs=jobs, lease_s=5.0, clock=clock
        )
    assert (stats.reclaimed, stats.completed) == (1, len(keys))


def test_frozen_worker_is_fenced_and_peer_wins(tmp_path):
    """Stale-worker resurrection, fully directed: worker A's heartbeats
    freeze, its 0.15s lease expires mid-simulation (the job takes ~0.5s
    and never reaches the in-sim heartbeat checkpoint), worker B reclaims
    and commits under a long lease, and A's late commit is rejected by
    the fencing token — exactly one result lands."""
    spec = _spec(
        variants=(Variant("FCFS", "FCFS"),),
        mix_count=1,
        instructions=50_000,
    )  # a single ~0.5s job
    (key,) = [job.key for job in spec.expand()]
    path = tmp_path / "freeze.sqlite"
    chaos = ChaosPlan.parse(f"hbfreeze=1,dir={tmp_path / 'markers'}")
    results: dict[str, object] = {}
    frozen = _drain_in_thread(
        path,
        spec,
        "frozen",
        results,
        chaos=chaos,
        lease_s=0.15,
        heartbeat_s=0.05,
        poll_s=0.05,
    )
    # Only start the rescuer once the frozen worker provably holds the
    # lease, so who-claims-first is not a race.
    with ResultStore(path) as reader:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            lease = reader.leases_for([key]).get(key)
            if lease is not None and lease["worker_id"] == "frozen":
                break
            time.sleep(0.01)
        else:
            pytest.fail("frozen worker never claimed the job")
    rescuer = _drain_in_thread(
        path, spec, "rescuer", results, lease_s=30.0, poll_s=0.02
    )
    frozen.join()
    rescuer.join()
    a, b = results["frozen"], results["rescuer"]
    # The rescuer reclaimed the expired lease and its commit stood.
    assert (b.reclaimed, b.completed, b.fenced) == (1, 1, 0)
    # The frozen worker lost the job to the fence and saw the peer's
    # result settle it.
    assert (a.completed, a.fenced, a.lost, a.foreign_done) == (0, 1, 1, 1)
    with ResultStore(path) as store:
        row = store._conn.execute(
            "SELECT status, attempts FROM jobs WHERE key = ?", (key,)
        ).fetchone()
        # Exactly-once: done, committed by exactly one worker (a fenced
        # double-commit would have bumped attempts to 2).
        assert (row["status"], row["attempts"]) == ("done", 1)
        assert store.leases_for([key]) == {}
        with ResultStore(tmp_path / "freeze-golden.sqlite") as gstore:
            drain_campaign(spec, gstore, worker_id="golden")
            assert export_text(spec, store, fmt="csv") == export_text(
                spec, gstore, fmt="csv"
            )


def _sim_totals(spec, store) -> tuple[dict, dict]:
    """(merged ``sim.*`` counters, the same counters summed straight from
    the stored results): equal when every done job has its blob."""
    expected: dict[str, int] = {}
    for result in store.results_for(job.key for job in spec.expand()).values():
        for name, value in job_metrics(result).items():
            expected[name] = expected.get(name, 0) + value
    merged = {
        name: value
        for name, value in merged_metrics(spec, store).snapshot()["counters"].items()
        if name.startswith("sim.")
    }
    return merged, expected


def test_done_progress_row_commits_with_the_result(tmp_path, golden):
    """The ``done`` progress row carrying a job's ``sim.*`` blob lands in
    the fenced completion transaction: if its upsert fails, the job is
    not done, and a later drain reclaims and re-runs it."""
    spec = _spec()
    keys = [job.key for job in spec.expand()]
    with ResultStore(tmp_path / "atomic.sqlite") as store:
        store._conn.execute(
            "CREATE TEMP TRIGGER fail_done BEFORE INSERT ON main.progress "
            "WHEN NEW.status = 'done' "
            "BEGIN SELECT RAISE(ABORT, 'injected progress failure'); END"
        )
        with pytest.raises(sqlite3.IntegrityError, match="injected"):
            drain_campaign(spec, store, worker_id="crashed")
        assert "done" not in store.statuses(keys).values()
        held = store.leases_for(keys)
        assert [lease["worker_id"] for lease in held.values()] == ["crashed"]
        store._conn.execute("DROP TRIGGER fail_done")
        # A peer arriving after the dead worker's lease expired re-runs it.
        stats = drain_campaign(
            spec, store, worker_id="peer", clock=lambda: time.time() + 3600
        )
        assert (stats.reclaimed, stats.completed) == (1, len(keys))
        merged, expected = _sim_totals(spec, store)
        assert merged == expected and merged
        assert export_text(spec, store, fmt="csv") == golden


def test_pool_drain_claims_in_one_batch_and_merges_sim_totals(tmp_path, golden):
    spec = _spec()
    with ResultStore(tmp_path / "pool.sqlite") as store:
        stats = drain_campaign(spec, store, worker_id="pool", jobs=2)
        assert (stats.claimed, stats.completed) == (4, 4)
        merged, expected = _sim_totals(spec, store)
        assert merged == expected and merged
        assert export_text(spec, store, fmt="csv") == golden


def test_max_jobs_caps_the_pool_drain(tmp_path):
    """``max_jobs`` bounds a pool drain as it bounds a serial one: the
    batch claim takes only the remaining budget."""
    spec = _spec()
    keys = [job.key for job in spec.expand()]
    with ResultStore(tmp_path / "cap.sqlite") as store:
        stats = drain_campaign(spec, store, worker_id="capped", jobs=2, max_jobs=1)
        assert (stats.claimed, stats.resolved()) == (1, 1)
        assert list(store.statuses(keys).values()).count("done") == 1
        assert store.leases_for(keys) == {}


def test_each_drain_folds_its_counters_into_the_campaign_row(tmp_path):
    """A drain that returns folds what its process counted during the
    drain into the campaign row, so ``campaign work`` records it as
    ``campaign run`` does and the row sums every worker's claims.  Each
    drain stands for one worker process."""
    spec = _spec()
    claimed = []
    with ResultStore(tmp_path / "fold.sqlite") as store:
        for worker_id, max_jobs in (("a", 1), ("b", None)):
            stats = drain_campaign(
                spec, store, worker_id=worker_id, max_jobs=max_jobs
            )
            claimed.append(stats.claimed)
        counters = store.metrics(spec.fingerprint())["counters"]
    assert claimed == [1, len(spec.expand()) - 1]
    assert counters["worker.leases_claimed"] == len(spec.expand())
