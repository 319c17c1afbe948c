"""Tests for the SQLite result store: round-trips, migrations, sharing."""

import json
import sqlite3
import threading
from dataclasses import asdict

import pytest

from repro.campaign.queue import LeaseQueue
from repro.campaign.serde import result_from_json, result_to_dict, result_to_json
from repro.campaign.spec import CampaignSpec, Variant
from repro.campaign.store import SCHEMA_VERSION, ResultStore, default_db_path
from repro.config import baseline_system
from repro.obs.config import TraceConfig
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import CASE_STUDY_1


@pytest.fixture(scope="module")
def sample_result():
    runner = ExperimentRunner(baseline_system(4), instructions=20_000)
    return runner.run_workload(list(CASE_STUDY_1), "FCFS")


@pytest.fixture(scope="module")
def telemetry_result():
    runner = ExperimentRunner(
        baseline_system(4),
        instructions=20_000,
        trace=TraceConfig(sample_interval=1_000),
    )
    return runner.run_workload(list(CASE_STUDY_1), "FCFS")


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="t",
        variants=(Variant("FCFS", "FCFS"), Variant("PAR-BS", "PAR-BS")),
        mix_count=2,
        instructions=20_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _complete(store, spec, key, result, wall_time_s=None) -> None:
    """Record ``result`` for ``key`` the way workers do: claim, then a
    fenced complete."""
    queue = LeaseQueue(store, spec.fingerprint())
    assert queue.complete(queue.claim_next([key]), result, wall_time_s)


def _fail(store, spec, key, error) -> None:
    queue = LeaseQueue(store, spec.fingerprint())
    assert queue.fail(queue.claim_next([key]), error)


# -- serde --------------------------------------------------------------------
@pytest.mark.parametrize("fixture", ["sample_result", "telemetry_result"])
def test_result_json_matches_the_asdict_encoding(request, fixture):
    """Thread rows are read field by field; the stored JSON is the bytes
    ``dataclasses.asdict`` rows gave."""
    result = request.getfixturevalue(fixture)
    data = result_to_dict(result)
    data["threads"] = [asdict(t) for t in result.threads]
    expected = json.dumps(data, sort_keys=True, separators=(",", ":"))
    assert result_to_json(result) == expected
    assert (result.telemetry is not None) == (fixture == "telemetry_result")


def test_result_json_round_trip_is_exact(sample_result):
    clone = result_from_json(result_to_json(sample_result))
    assert clone == sample_result  # dataclass equality, floats bit-exact


def test_result_round_trip_preserves_telemetry(telemetry_result):
    assert telemetry_result.telemetry is not None
    clone = result_from_json(result_to_json(telemetry_result))
    assert clone == telemetry_result
    # JSON stringifies int dict keys; the revival must restore them.
    assert all(
        isinstance(k, int) for k in clone.telemetry.latency
    )


# -- store basics -------------------------------------------------------------
def test_register_and_statuses(tmp_path):
    spec = _spec()
    grid = spec.expand()
    with ResultStore(tmp_path / "db.sqlite") as store:
        assert store.register(spec, grid) == len(grid)
        # Idempotent: re-registering inserts nothing and touches nothing.
        assert store.register(spec, grid) == 0
        statuses = store.statuses(j.key for j in grid)
        assert set(statuses.values()) == {"pending"}
        counts = store.counts(spec.fingerprint())
        assert counts["total"] == len(grid)
        assert counts["pending"] == len(grid)


def test_record_result_round_trip(tmp_path, sample_result):
    spec = _spec()
    grid = spec.expand()
    with ResultStore(tmp_path / "db.sqlite") as store:
        store.register(spec, grid)
        _complete(store, spec, grid[0].key, sample_result, wall_time_s=1.25)
        keys = [grid[0].key, grid[1].key]
        assert store.results_for(keys) == {grid[0].key: sample_result}
        assert store.counts(spec.fingerprint())["done"] == 1
        row = store._conn.execute(
            "SELECT attempts, wall_time_s FROM jobs WHERE key = ?",
            (grid[0].key,),
        ).fetchone()
        assert row["attempts"] == 1
        assert row["wall_time_s"] == 1.25


def test_record_failure_then_success(tmp_path, sample_result):
    spec = _spec()
    grid = spec.expand()
    key = grid[0].key
    with ResultStore(tmp_path / "db.sqlite") as store:
        store.register(spec, grid)
        _fail(store, spec, key, "RuntimeError: boom")
        assert store.failures_for([key]) == {key: "RuntimeError: boom"}
        assert store.counts(spec.fingerprint())["failed"] == 1
        # A later success clears the failure.
        _complete(store, spec, key, sample_result)
        assert store.failures_for([key]) == {}
        assert store.statuses([key]) == {key: "done"}


def test_results_for_crosses_campaigns(tmp_path, sample_result):
    """A cell two campaigns share (same content hash) is stored once,
    under the first campaign, but visible to both through results_for."""
    spec_a = _spec(name="a")
    spec_b = _spec(name="b", variants=(Variant("FCFS", "FCFS"),))
    shared_keys = {j.key for j in spec_b.expand()}
    assert shared_keys <= {j.key for j in spec_a.expand()}
    with ResultStore(tmp_path / "db.sqlite") as store:
        store.register(spec_a, spec_a.expand())
        assert store.register(spec_b, spec_b.expand()) == 0  # all shared
        key = next(iter(shared_keys))
        _complete(store, spec_b, key, sample_result)
        # The row belongs to a; the key-scoped query serves b as well.
        assert store.counts(spec_a.fingerprint())["done"] == 1
        assert store.counts(spec_b.fingerprint())["total"] == 0
        assert store.results_for([key])[key] == sample_result
        assert store.statuses([key]) == {key: "done"}


def test_store_persists_across_connections(tmp_path, sample_result):
    spec = _spec()
    grid = spec.expand()
    path = tmp_path / "db.sqlite"
    with ResultStore(path) as store:
        store.register(spec, grid)
        _complete(store, spec, grid[0].key, sample_result)
    with ResultStore(path) as store:
        assert store.results_for([grid[0].key]) == {grid[0].key: sample_result}
        assert store.counts(spec.fingerprint())["done"] == 1


def test_campaigns_listing(tmp_path):
    spec = _spec()
    with ResultStore(tmp_path / "db.sqlite") as store:
        store.register(spec, spec.expand())
        rows = store.campaigns()
        assert len(rows) == 1
        assert rows[0]["name"] == "t"
        assert rows[0]["total"] == len(spec.expand())


# -- schema migrations --------------------------------------------------------
def _create_v1_db(path) -> None:
    """A database exactly as schema v1 code would have left it."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
        conn.execute("INSERT INTO schema_version (version) VALUES (1)")
        conn.execute(
            """CREATE TABLE campaigns (
                fingerprint TEXT PRIMARY KEY,
                name        TEXT NOT NULL,
                spec_json   TEXT NOT NULL,
                instructions INTEGER NOT NULL
            )"""
        )
        conn.execute(
            """CREATE TABLE jobs (
                key         TEXT PRIMARY KEY,
                campaign    TEXT NOT NULL REFERENCES campaigns(fingerprint),
                num_cores   INTEGER NOT NULL,
                mix_index   INTEGER NOT NULL,
                variant     TEXT NOT NULL,
                scheduler   TEXT NOT NULL,
                workload_json TEXT NOT NULL,
                kwargs_json TEXT NOT NULL,
                seed        INTEGER NOT NULL,
                instructions INTEGER NOT NULL,
                status      TEXT NOT NULL DEFAULT 'pending'
                            CHECK (status IN ('pending', 'done', 'failed')),
                attempts    INTEGER NOT NULL DEFAULT 0,
                error       TEXT,
                result_json TEXT
            )"""
        )
        conn.execute("CREATE INDEX jobs_by_campaign ON jobs (campaign, status)")
        conn.execute(
            "INSERT INTO campaigns VALUES ('fp1', 'old', '{}', 20000)"
        )
        conn.execute(
            "INSERT INTO jobs (key, campaign, num_cores, mix_index, variant, "
            "scheduler, workload_json, kwargs_json, seed, instructions, status) "
            "VALUES ('k1', 'fp1', 4, 0, 'FCFS', 'FCFS', '[]', '{}', 0, 20000, 'done')"
        )
    conn.close()


def test_v1_database_migrates_to_current(tmp_path):
    path = tmp_path / "old.sqlite"
    _create_v1_db(path)
    with ResultStore(path) as store:
        assert store.schema_version() == SCHEMA_VERSION
        # Pre-migration rows survive, with NULL in the new column.
        row = store._conn.execute(
            "SELECT status, wall_time_s FROM jobs WHERE key = 'k1'"
        ).fetchone()
        assert row["status"] == "done"
        assert row["wall_time_s"] is None


def test_newer_schema_refused(tmp_path):
    path = tmp_path / "future.sqlite"
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("CREATE TABLE schema_version (version INTEGER NOT NULL)")
        conn.execute(
            "INSERT INTO schema_version (version) VALUES (?)",
            (SCHEMA_VERSION + 1,),
        )
    conn.close()
    with pytest.raises(RuntimeError, match="newer than this code"):
        ResultStore(path)


def test_fresh_db_is_current_version(tmp_path):
    with ResultStore(tmp_path / "new.sqlite") as store:
        assert store.schema_version() == SCHEMA_VERSION


def test_concurrent_first_opens_of_one_store(tmp_path):
    """Workers pointed at one new database race to switch it to WAL;
    SQLite fails the losers at once instead of waiting, so every open
    must retry rather than raise "database is locked"."""
    errors: list[BaseException] = []

    def open_store(path) -> None:
        try:
            with ResultStore(path) as store:
                assert store.schema_version() == SCHEMA_VERSION
        except Exception as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    for round_ in range(100):
        path = tmp_path / f"race{round_}.sqlite"
        threads = [
            threading.Thread(target=open_store, args=(path,)) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
    assert errors == []


def test_joining_a_registered_store_takes_no_write_lock(tmp_path, monkeypatch):
    """A worker that opens an up-to-date store and registers a campaign
    already registered in full only reads, so a peer holding the write
    lock does not make it wait (or fail with "database is locked")."""
    path = tmp_path / "shared.sqlite"
    spec = _spec()
    grid = spec.expand()
    with ResultStore(path) as store:
        assert store.register(spec, grid) == len(grid)
    monkeypatch.setenv("REPRO_STORE_BUSY_TIMEOUT_S", "0.2")
    peer = sqlite3.connect(path, isolation_level=None)
    peer.execute("BEGIN IMMEDIATE")
    try:
        with ResultStore(path) as store:
            assert store.register(spec, grid) == 0
            assert store.schema_version() == SCHEMA_VERSION
    finally:
        peer.execute("ROLLBACK")
        peer.close()


# -- default path -------------------------------------------------------------
def test_default_db_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CAMPAIGN_DB", str(tmp_path / "x.sqlite"))
    assert default_db_path() == str(tmp_path / "x.sqlite")


def test_default_db_path_next_to_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
    assert default_db_path().endswith("campaigns.sqlite")


def test_default_db_path_memory_when_cache_disabled(monkeypatch):
    monkeypatch.delenv("REPRO_CAMPAIGN_DB", raising=False)
    monkeypatch.setenv("REPRO_CACHE", "0")
    assert default_db_path() == ":memory:"
