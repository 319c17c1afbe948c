"""Lease-protocol unit tests: atomic claims, expiry, fencing.

The work-queue's correctness story is three invariants, each pinned
here directly against :class:`LeaseQueue` (no orchestrator, no pool):

* **atomic claim** — concurrent claimers against one shared database
  never receive the same job (``BEGIN IMMEDIATE`` serializes them);
* **expiry reclamation** — a lease whose deadline passed (dead or hung
  owner) is reclaimed and its job re-issued, with the campaign's
  ``reclaims`` counter recording the event;
* **fencing** — a reclaimed-then-resurrected worker holds a stale
  token: its heartbeats return ``None`` and its commits are rejected,
  so exactly one result ever lands no matter how the workers interleave.

Time never sleeps in these tests: every queue gets an injected clock.
"""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import pytest

from repro.campaign import queue as queue_module
from repro.campaign.queue import LeaseQueue
from repro.campaign.spec import CampaignSpec, Variant
from repro.campaign.store import ResultStore
from repro.config import baseline_system
from repro.obs.metrics import PROCESS
from repro.sim.runner import ExperimentRunner


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="queuetest",
        variants=(Variant("FCFS", "FCFS"), Variant("FR-FCFS", "FR-FCFS")),
        mix_count=2,
        instructions=10_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


@pytest.fixture(scope="module")
def result():
    """One real WorkloadResult to commit (contents are irrelevant to the
    lease protocol; it just has to serialize)."""
    spec = _spec()
    job = spec.expand()[0]
    runner = ExperimentRunner(
        baseline_system(job.num_cores),
        instructions=5_000,
        seed=job.seed,
        cache_dir=None,
    )
    return runner.run_workload(
        list(job.workload), job.scheduler, **job.kwargs_dict()
    )


class Clock:
    """An injectable, manually advanced wall clock."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def store(tmp_path):
    spec = _spec()
    with ResultStore(tmp_path / "q.sqlite") as st:
        st.register(spec, spec.expand())
        yield st


def _keys():
    return [job.key for job in _spec().expand()]


def test_claims_are_disjoint_and_exhaustive(store):
    clock = Clock()
    a = LeaseQueue(store, _spec().fingerprint(), worker_id="a", clock=clock)
    b = LeaseQueue(store, _spec().fingerprint(), worker_id="b", clock=clock)
    keys = _keys()
    leases = []
    for queue in (a, b, a, b):
        leases.append(queue.claim_next(keys))
    assert all(lease is not None for lease in leases)
    assert len({lease.key for lease in leases}) == len(keys)
    # Every job is leased out now: both claimers see an empty queue.
    assert a.claim_next(keys) is None
    assert b.claim_next(keys) is None


def test_concurrent_claimers_never_share_a_job(tmp_path):
    """Racing claimers on separate connections split the grid cleanly,
    whether they claim one job at a time or whole (or bounded) batches."""
    spec = _spec(mix_count=4)  # 8 jobs
    keys = [job.key for job in spec.expand()]
    forms = {
        "next": lambda queue: [
            lease for lease in [queue.claim_next(keys)] if lease is not None
        ],
        "batch": lambda queue: queue.claim(keys),
        "bounded": lambda queue: queue.claim(keys, 3),
    }
    for form, claim in forms.items():
        path = tmp_path / f"race-{form}.sqlite"
        with ResultStore(path) as st:
            st.register(spec, spec.expand())
        claimed: list[list[str]] = [[], []]
        barrier = threading.Barrier(2)

        def worker(slot: int) -> None:
            with ResultStore(path) as st:
                queue = LeaseQueue(st, spec.fingerprint(), worker_id=f"w{slot}")
                barrier.wait()
                while True:
                    leases = claim(queue)
                    if not leases:
                        return
                    claimed[slot].extend(lease.key for lease in leases)

        threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed[0] + claimed[1]) == sorted(keys), form
        assert not set(claimed[0]) & set(claimed[1]), form


def test_heartbeat_extends_the_deadline(store):
    clock = Clock()
    queue = LeaseQueue(
        store, _spec().fingerprint(), worker_id="w", lease_s=30.0, clock=clock
    )
    lease = queue.claim_next(_keys())
    assert lease.deadline == clock.now + 30.0
    clock.advance(20.0)
    renewed = queue.heartbeat(lease)
    assert renewed is not None
    assert renewed.deadline == clock.now + 30.0
    assert renewed.attempt == lease.attempt  # renewal never re-fences


def test_expired_lease_is_reclaimed_and_reissued(store):
    clock = Clock()
    fp = _spec().fingerprint()
    dead = LeaseQueue(store, fp, worker_id="dead", lease_s=10.0, clock=clock)
    live = LeaseQueue(store, fp, worker_id="live", lease_s=10.0, clock=clock)
    lost = dead.claim_next(_keys())
    # While the lease is live the job is invisible to other claimers
    # (only 3 of the 4 jobs remain claimable).
    assert live.claim_next([lost.key]) is None
    clock.advance(10.0)  # deadline is inclusive: <= now means expired
    before = PROCESS.counts()
    regained = live.claim_next([lost.key])
    assert regained is not None
    assert regained.key == lost.key
    assert regained.attempt == lost.attempt + 1  # fencing token advanced
    assert regained.reclaimed and not lost.reclaimed
    assert PROCESS.growth(before)["worker.leases_reclaimed"] == 1
    assert store.reclaim_count(fp) == 1


def test_reclaim_expired_sweeps_every_dead_lease(store):
    clock = Clock()
    fp = _spec().fingerprint()
    dead = LeaseQueue(store, fp, worker_id="dead", lease_s=5.0, clock=clock)
    keys = _keys()
    held = [dead.claim_next(keys) for _ in range(2)]
    clock.advance(6.0)
    sweeper = LeaseQueue(store, fp, worker_id="sweep", clock=clock)
    reclaimed = sweeper.reclaim_expired()
    assert sorted(reclaimed) == sorted(lease.key for lease in held)
    assert store.reclaim_count(fp) == 2
    assert store.leases_for(keys, now=clock.now) == {}


def test_fenced_double_complete_is_rejected(store, result):
    """The resurrection scenario: worker A claims, goes silent past the
    lease deadline, worker B reclaims and commits — then A comes back
    and tries to commit the same job.  Exactly one result may land."""
    clock = Clock()
    fp = _spec().fingerprint()
    a = LeaseQueue(store, fp, worker_id="a", lease_s=10.0, clock=clock)
    b = LeaseQueue(store, fp, worker_id="b", lease_s=10.0, clock=clock)
    stale = a.claim_next(_keys())
    clock.advance(11.0)  # A freezes; its lease expires
    fresh = b.claim_next([stale.key])
    assert fresh.key == stale.key
    assert b.complete(fresh, result, wall_time_s=2.0)
    # A resurrects: renewal and commit are both fenced out.
    before = PROCESS.counts()
    assert a.heartbeat(stale) is None
    assert not a.complete(stale, result, wall_time_s=99.0)
    assert PROCESS.growth(before)["worker.leases_fenced"] == 2
    # B's commit stands untouched: one attempt, B's wall time.
    row = store._conn.execute(
        "SELECT status, attempts, wall_time_s FROM jobs WHERE key = ?",
        (stale.key,),
    ).fetchone()
    assert (row["status"], row["attempts"], row["wall_time_s"]) == (
        "done",
        1,
        2.0,
    )


def test_perfbench_view_reads_the_fenced_count(store):
    """``repro.campaign.QUEUE_STATS`` (read by name by perfbench's
    spans) is a live view of the registry's ``worker.*`` counters."""
    from repro.campaign import QUEUE_STATS, STORE_STATS

    clock = Clock()
    fp = _spec().fingerprint()
    a = LeaseQueue(store, fp, worker_id="a", lease_s=10.0, clock=clock)
    b = LeaseQueue(store, fp, worker_id="b", lease_s=10.0, clock=clock)
    stale = a.claim_next(_keys())
    clock.advance(11.0)
    assert b.claim_next([stale.key]) is not None
    fenced = QUEUE_STATS["leases_fenced"]
    assert a.heartbeat(stale) is None
    assert QUEUE_STATS["leases_fenced"] == fenced + 1
    assert STORE_STATS["commit_retries"] == PROCESS.counts()["store.commit_retries"]


def test_stale_worker_cannot_fail_or_release_either(store):
    """Fencing covers the whole surface: fail() and release() from a
    reclaimed worker are no-ops too."""
    clock = Clock()
    fp = _spec().fingerprint()
    a = LeaseQueue(store, fp, worker_id="a", lease_s=10.0, clock=clock)
    b = LeaseQueue(store, fp, worker_id="b", lease_s=10.0, clock=clock)
    stale = a.claim_next(_keys())
    clock.advance(11.0)
    fresh = b.claim_next([stale.key])
    assert not a.fail(stale, "late failure from the dead")
    assert not a.release(stale)
    # B's live lease survived both attempts.
    live = store.leases_for([stale.key], now=clock.now)
    assert live[stale.key]["worker_id"] == "b"
    assert int(live[stale.key]["attempt"]) == fresh.attempt


def test_done_jobs_are_never_claimable(store, result):
    clock = Clock()
    fp = _spec().fingerprint()
    queue = LeaseQueue(store, fp, worker_id="w", clock=clock)
    lease = queue.claim_next(_keys())
    assert queue.complete(lease, result)
    assert queue.claim_next([lease.key]) is None


# -- batched claims -------------------------------------------------------------
def _lease_seqs(store, keys):
    return {
        row["key"]: int(row["lease_seq"])
        for row in store._conn.execute(
            f"SELECT key, lease_seq FROM jobs WHERE key IN "
            f"({','.join('?' * len(keys))})",
            keys,
        )
    }


def test_batched_claim_takes_exactly_the_runnable_keys_in_order(store, result):
    clock = Clock()
    fp = _spec().fingerprint()
    keys = _keys()
    other = LeaseQueue(store, fp, worker_id="other", clock=clock)
    done = other.claim_next([keys[0]])
    assert other.complete(done, result)
    busy = other.claim_next([keys[2]])
    queue = LeaseQueue(store, fp, worker_id="w", clock=clock)
    # Done, live-leased, unregistered and repeated keys are all skipped.
    leases = queue.claim(["not-a-job"] + keys + [keys[1]])
    assert [lease.key for lease in leases] == [keys[1], keys[3]]
    assert {lease.worker_id for lease in leases} == {"w"}
    assert busy.key not in {lease.key for lease in leases}
    assert queue.claim(keys) == []
    assert store.leases_for(keys, now=clock.now)[keys[1]]["worker_id"] == "w"


def test_batched_claim_stops_at_its_limit(store):
    queue = LeaseQueue(store, _spec().fingerprint(), worker_id="w", clock=Clock())
    keys = _keys()
    assert [lease.key for lease in queue.claim(keys, 2)] == keys[:2]
    assert [lease.key for lease in queue.claim(keys, 5)] == keys[2:]


def test_batched_claim_reclaims_an_expired_lease(store):
    clock = Clock()
    fp = _spec().fingerprint()
    keys = _keys()
    dead = LeaseQueue(store, fp, worker_id="dead", lease_s=10.0, clock=clock)
    lost = dead.claim_next(keys[1:2])
    live = LeaseQueue(store, fp, worker_id="live", lease_s=10.0, clock=clock)
    clock.advance(10.0)
    before = PROCESS.counts()
    leases = live.claim(keys)
    assert [lease.key for lease in leases] == keys
    grown = PROCESS.growth(before)
    assert grown["worker.leases_reclaimed"] == 1
    assert grown["worker.leases_expired"] == 1
    assert grown["worker.leases_claimed"] == len(keys)
    assert store.reclaim_count(fp) == 1
    regained = next(lease for lease in leases if lease.key == lost.key)
    assert regained.attempt == lost.attempt + 1


def test_batched_claim_bumps_every_fencing_token_once(store, result):
    clock = Clock()
    fp = _spec().fingerprint()
    keys = _keys()
    before = _lease_seqs(store, keys)
    a = LeaseQueue(store, fp, worker_id="a", lease_s=10.0, clock=clock)
    stale = a.claim(keys)
    assert {lease.key: lease.attempt for lease in stale} == {
        key: seq + 1 for key, seq in before.items()
    }
    assert _lease_seqs(store, keys) == {key: seq + 1 for key, seq in before.items()}
    clock.advance(11.0)
    b = LeaseQueue(store, fp, worker_id="b", lease_s=10.0, clock=clock)
    fresh = b.claim(keys)
    assert [lease.attempt for lease in fresh] == [
        lease.attempt + 1 for lease in stale
    ]
    # The resurrected batch holder is fenced off; the reclaimer commits.
    assert not a.complete(stale[0], result)
    assert b.complete(fresh[0], result)
    assert store.statuses([keys[0]]) == {keys[0]: "done"}


def _bulk_store(path, count: int):
    """A store holding ``count`` registered jobs with cheap synthetic keys
    (the claim path reads keys and statuses only)."""
    spec = _spec()
    template = spec.expand()[0]
    jobs = [replace(template, key=f"job{i:05d}") for i in range(count)]
    store = ResultStore(path)
    store.register(spec, jobs)
    return store, [job.key for job in jobs]


def _traced(store, fn):
    """Run ``fn()`` and return (its value, the SQL statements it ran)."""
    statements: list[str] = []
    store._conn.set_trace_callback(statements.append)
    try:
        value = fn()
    finally:
        store._conn.set_trace_callback(None)
    return value, statements


def test_batched_claim_store_traffic_is_linear(tmp_path):
    """One transaction and at most two SELECTs per chunk of keys: an
    O(n^2) claim loop over the key list fails this without timing."""
    store, keys = _bulk_store(tmp_path / "bulk.sqlite", 1000)
    with store:
        queue = LeaseQueue(store, _spec().fingerprint(), worker_id="w")
        leases, statements = _traced(store, lambda: queue.claim(keys))
        assert [lease.key for lease in leases] == keys
        assert statements.count("BEGIN IMMEDIATE") == 1
        assert statements.count("COMMIT") == 1
        chunks = math.ceil(len(keys) / queue_module._CHUNK)
        selects = [s for s in statements if s.lstrip().upper().startswith("SELECT")]
        assert len(selects) <= 2 * chunks


@pytest.mark.parametrize("count", [50, 2000])
def test_claim_next_reads_a_bounded_number_of_rows(tmp_path, count):
    """A one-job claim whose first key is runnable reads the same few
    rows whatever the length of the key list."""
    store, keys = _bulk_store(tmp_path / "bulk.sqlite", count)
    with store:
        queue = LeaseQueue(store, _spec().fingerprint(), worker_id="w")
        lease, statements = _traced(store, lambda: queue.claim_next(keys))
        assert lease.key == keys[0]
        selects = [s for s in statements if s.lstrip().upper().startswith("SELECT")]
        # Each key a SELECT names appears quoted in the expanded SQL.
        keys_read = sum(s.count("'job") for s in selects)
        assert len(selects) == 2
        assert keys_read <= 2 * 16
