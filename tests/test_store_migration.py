"""Schema migration tests against frozen v2 and v3 fixtures.

Databases built from ``tests/fixtures/schema_v2.sql`` and
``schema_v3.sql`` (the DDL exactly as old code wrote it) are populated
the way old clients would, then opened with the current
:class:`ResultStore`.  Each migration must upgrade in place, leave every
pre-existing row byte-identical, and keep ``campaign status`` and resume
working — resuming simulates only the jobs that were missing, never the
rows recorded before the upgrade.  The v3 -> v4 step additionally has to
leave the new work-queue surfaces (leases, reclaim counter, fencing
sequence) empty but functional: a migrated database must accept lease
claims immediately.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path

import pytest

from repro.campaign.orchestrator import run_campaign
from repro.campaign.report import status_report
from repro.campaign.serde import result_to_json
from repro.campaign.spec import CampaignSpec, Variant
from repro.campaign.store import SCHEMA_VERSION, ResultStore
from repro.config import baseline_system
from repro.obs.metrics import PROCESS
from repro.sim.runner import ExperimentRunner

FIXTURE = Path(__file__).parent / "fixtures" / "schema_v2.sql"
FIXTURE_V3 = Path(__file__).parent / "fixtures" / "schema_v3.sql"


def _spec() -> CampaignSpec:
    return CampaignSpec(
        name="migrate",
        variants=(Variant("FCFS", "FCFS"), Variant("FR-FCFS", "FR-FCFS")),
        mix_count=2,
        instructions=20_000,
    )


def _v2_result_json(job) -> str:
    """result_json as a v2-era client would have written it (no event
    counter keys -- those arrived with schema v3)."""
    runner = ExperimentRunner(
        baseline_system(job.num_cores),
        instructions=job.instructions,
        seed=job.seed,
        cache_dir=None,
    )
    result = runner.run_workload(
        list(job.workload), job.scheduler, **job.kwargs_dict()
    )
    data = json.loads(result_to_json(result))
    for key in ("events_processed", "events_elided", "min_rebuilds"):
        data.pop(key, None)
    return json.dumps(data, sort_keys=True)


@pytest.fixture
def v2_db(tmp_path):
    """A v2 database holding one campaign: one job done, three pending."""
    spec = _spec()
    grid = spec.expand()
    path = tmp_path / "v2.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(FIXTURE.read_text())
    conn.execute(
        "INSERT INTO campaigns (fingerprint, name, spec_json, instructions) "
        "VALUES (?, ?, ?, ?)",
        (
            spec.fingerprint(),
            spec.name,
            json.dumps(spec.to_dict(), sort_keys=True),
            spec.resolved_instructions(),
        ),
    )
    for job in grid:
        conn.execute(
            "INSERT INTO jobs (key, campaign, num_cores, mix_index, variant, "
            " scheduler, workload_json, kwargs_json, seed, instructions) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                job.key,
                spec.fingerprint(),
                job.num_cores,
                job.mix_index,
                job.variant,
                job.scheduler,
                json.dumps(list(job.workload)),
                json.dumps(job.kwargs_dict(), sort_keys=True),
                job.seed,
                job.instructions,
            ),
        )
    done_job = grid[0]
    conn.execute(
        "UPDATE jobs SET status = 'done', attempts = 1, wall_time_s = 1.25, "
        "result_json = ? WHERE key = ?",
        (_v2_result_json(done_job), done_job.key),
    )
    conn.commit()
    conn.close()
    return path


def _dump_jobs(path) -> list[tuple]:
    """Every v2-era column of every job row, in key order."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT key, campaign, num_cores, mix_index, variant, scheduler, "
            " workload_json, kwargs_json, seed, instructions, status, "
            " attempts, error, result_json, wall_time_s "
            "FROM jobs ORDER BY key"
        ).fetchall()
    finally:
        conn.close()


def test_migration_upgrades_in_place_preserving_rows(v2_db):
    before = _dump_jobs(v2_db)
    with ResultStore(v2_db) as store:
        assert store.schema_version() == SCHEMA_VERSION == 4
        # v3/v4 surfaces exist and start empty for a migrated database.
        assert store.manifest(_spec().fingerprint()) is None
        assert store.metrics(_spec().fingerprint()) is None
        assert store.progress_for(j.key for j in _spec().expand()) == {}
        assert store.leases_for(j.key for j in _spec().expand()) == {}
        assert store.reclaim_count(_spec().fingerprint()) == 0
    assert _dump_jobs(v2_db) == before  # old rows byte-identical


def test_status_works_on_migrated_database(v2_db):
    spec = _spec()
    with ResultStore(v2_db) as store:
        report = status_report(spec, store)
        assert "1/4 done, 3 pending, 0 failed" in report


def test_resume_simulates_only_missing_jobs(v2_db):
    spec = _spec()
    before = _dump_jobs(v2_db)
    done_key = spec.expand()[0].key
    with ResultStore(v2_db) as store:
        counts = PROCESS.counts()
        stats = run_campaign(spec, store, jobs=1)
        assert (stats.ran, stats.skipped, stats.failed) == (3, 1, 0)
        # The v2 row was not re-run.
        assert PROCESS.growth(counts)["pool.jobs_executed"] == 3
        assert store.counts(spec.fingerprint())["done"] == 4
        # The run pinned a manifest and progress rows for what it ran.
        assert store.manifest(spec.fingerprint()) is not None
        progress = store.progress_for(j.key for j in spec.expand())
        assert set(progress) == {j.key for j in spec.expand()} - {done_key}
    # The pre-migration done row survived the resume byte-for-byte.
    done_before = [row for row in before if row[0] == done_key]
    done_after = [row for row in _dump_jobs(v2_db) if row[0] == done_key]
    assert done_after == done_before


@pytest.fixture
def v3_db(tmp_path):
    """A v3 database holding one campaign: one job done (with its
    progress heartbeat row, as v3-era code left it), three pending."""
    spec = _spec()
    grid = spec.expand()
    path = tmp_path / "v3.sqlite"
    conn = sqlite3.connect(path)
    conn.executescript(FIXTURE_V3.read_text())
    conn.execute(
        "INSERT INTO campaigns (fingerprint, name, spec_json, instructions) "
        "VALUES (?, ?, ?, ?)",
        (
            spec.fingerprint(),
            spec.name,
            json.dumps(spec.to_dict(), sort_keys=True),
            spec.resolved_instructions(),
        ),
    )
    for job in grid:
        conn.execute(
            "INSERT INTO jobs (key, campaign, num_cores, mix_index, variant, "
            " scheduler, workload_json, kwargs_json, seed, instructions) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                job.key,
                spec.fingerprint(),
                job.num_cores,
                job.mix_index,
                job.variant,
                job.scheduler,
                json.dumps(list(job.workload)),
                json.dumps(job.kwargs_dict(), sort_keys=True),
                job.seed,
                job.instructions,
            ),
        )
    done_job = grid[0]
    runner = ExperimentRunner(
        baseline_system(done_job.num_cores),
        instructions=done_job.instructions,
        seed=done_job.seed,
        cache_dir=None,
    )
    result = runner.run_workload(
        list(done_job.workload), done_job.scheduler, **done_job.kwargs_dict()
    )
    conn.execute(
        "UPDATE jobs SET status = 'done', attempts = 1, wall_time_s = 1.25, "
        "result_json = ? WHERE key = ?",
        (result_to_json(result), done_job.key),
    )
    conn.execute(
        "INSERT INTO progress (key, attempt, worker, status, wall_time_s, "
        " events_per_sec, metrics_json, updated_at) "
        "VALUES (?, 0, '4242', 'done', 1.25, 100000.0, ?, 12345.0)",
        (done_job.key, json.dumps({"sim.cycles": 7}, sort_keys=True)),
    )
    conn.commit()
    conn.close()
    return path


def _dump_progress(path) -> list[tuple]:
    conn = sqlite3.connect(path)
    try:
        return conn.execute(
            "SELECT key, attempt, worker, status, wall_time_s, "
            " events_per_sec, metrics_json, updated_at "
            "FROM progress ORDER BY key, attempt"
        ).fetchall()
    finally:
        conn.close()


def test_v3_migration_preserves_jobs_and_progress(v3_db):
    spec = _spec()
    jobs_before = _dump_jobs(v3_db)
    progress_before = _dump_progress(v3_db)
    assert progress_before  # the fixture really wrote a heartbeat row
    with ResultStore(v3_db) as store:
        assert store.schema_version() == SCHEMA_VERSION == 4
        # v4 surfaces exist and start empty for a migrated database.
        assert store.leases_for(j.key for j in spec.expand()) == {}
        assert store.reclaim_count(spec.fingerprint()) == 0
        # The v3-era heartbeat row reads back through the current API.
        progress = store.progress_for(j.key for j in spec.expand())
        assert progress[spec.expand()[0].key]["worker"] == "4242"
        report = status_report(spec, store)
        assert "1/4 done, 3 pending, 0 failed" in report
    assert _dump_jobs(v3_db) == jobs_before  # old rows byte-identical
    assert _dump_progress(v3_db) == progress_before


def test_v3_migrated_store_accepts_lease_claims(v3_db):
    """A freshly migrated database is immediately drainable: claims
    succeed, fencing sequences start at zero, completion lands."""
    from repro.campaign.queue import LeaseQueue

    spec = _spec()
    grid = spec.expand()
    with ResultStore(v3_db) as store:
        queue = LeaseQueue(store, spec.fingerprint(), worker_id="w1")
        lease = queue.claim_next([j.key for j in grid])
        assert lease is not None
        assert lease.attempt == 1  # first claim ever on this row
        assert lease.key != grid[0].key  # the done row is not claimable
        assert queue.heartbeat(lease) is not None
        queue.release(lease)
        assert store.leases_for(j.key for j in grid) == {}


def test_newer_schema_is_refused(tmp_path):
    path = tmp_path / "future.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
    conn.execute("INSERT INTO schema_version (version) VALUES (99)")
    conn.commit()
    conn.close()
    with pytest.raises(RuntimeError, match="newer than this code"):
        ResultStore(path)
