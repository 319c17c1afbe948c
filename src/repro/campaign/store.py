"""SQLite-backed campaign result store.

One database holds any number of campaigns; each campaign row pins the
spec (name, canonical JSON, content fingerprint) and each job row holds
one grid cell — its content-hash key, grid coordinates, lifecycle status
(``pending``/``done``/``failed``), and, once simulated, the full
serialized :class:`~repro.metrics.summary.WorkloadResult` payload.

Durability properties the orchestrator builds on:

* the connection runs in WAL mode with ``synchronous=NORMAL``, so one
  writer streams results while ``campaign status``/``report`` readers
  query concurrently;
* every result lands in its own transaction (the fenced
  :meth:`~repro.campaign.queue.LeaseQueue.complete`), so an interrupted
  run loses at most the in-flight simulations — never a recorded one,
  and never a torn row;
* a ``schema_version`` table gates forward migrations: opening an older
  database upgrades it in place inside a transaction, and opening a
  *newer* database than this code understands refuses loudly instead of
  corrupting it.

The default database lives next to the simulation disk cache
(``<REPRO_CACHE_DIR>/campaigns.sqlite``) and can be pointed elsewhere
with ``REPRO_CAMPAIGN_DB``.
"""

from __future__ import annotations

import json
import logging
import os
import random
import sqlite3
import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from ..envknobs import read_float
from ..obs.metrics import PROCESS
from ..sim.diskcache import cache_enabled, default_cache_dir
from .spec import CampaignJob, CampaignSpec

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult
    from ..obs.metrics import RunMetrics

__all__ = ["ResultStore", "SCHEMA_VERSION", "default_db_path"]

logger = logging.getLogger(__name__)

T = TypeVar("T")

SCHEMA_VERSION = 4

# Default ``PRAGMA busy_timeout`` in seconds; raise via
# ``REPRO_STORE_BUSY_TIMEOUT_S`` when many workers share one database.
_BUSY_TIMEOUT_DEFAULT_S = 30.0


class _CounterView:
    """``view[name]``: the process registry's ``<prefix><name>`` counter."""

    def __init__(self, prefix: str) -> None:
        self._prefix = prefix

    def __getitem__(self, name: str) -> int:
        return PROCESS.counts()[self._prefix + name]


# Read-only live views over the process registry, kept only because
# perfbench/spans.py reads ``STORE_STATS["commit_retries"]`` and
# ``QUEUE_STATS["leases_fenced"]`` by name through ``repro.campaign``.
# ROADMAP item 10's benchmark change moves perfbench onto the registry
# and deletes both.
STORE_STATS = _CounterView("store.")
QUEUE_STATS = _CounterView("worker.")

# Transient-commit retry policy: SQLite raises OperationalError for lock
# contention ("database is locked") — and chaos injection mimics exactly
# that — so every write transaction (:meth:`ResultStore.transaction`)
# backs off and retries before giving up.
_COMMIT_RETRIES = 4
_COMMIT_BACKOFF_S = 0.05
_COMMIT_BACKOFF_MAX_S = 1.0

# Keys per ``IN (...)`` query: below SQLite's bound-parameter limit.
_CHUNK = 500

# Forward migrations: version -> SQL applied to reach it from version-1.
# Version 1 is the base schema; later entries must only ever be appended.
_MIGRATIONS: dict[int, Sequence[str]] = {
    1: (
        """CREATE TABLE campaigns (
            fingerprint TEXT PRIMARY KEY,
            name        TEXT NOT NULL,
            spec_json   TEXT NOT NULL,
            instructions INTEGER NOT NULL
        )""",
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
        )""",
        "CREATE INDEX jobs_by_campaign ON jobs (campaign, status)",
    ),
    # v2: record per-job simulation wall time (populated by the
    # orchestrator; NULL for rows recorded by older code).
    2: ("ALTER TABLE jobs ADD COLUMN wall_time_s REAL",),
    # v3: the observability plane.  ``progress`` holds one row per job
    # *attempt* (worker id, wall time, throughput, the deterministic
    # per-job metrics blob) feeding ``campaign watch``; campaigns gain
    # the run manifest and the merged operational-metrics snapshot.
    # Existing job/campaign rows are untouched (additive only).
    3: (
        """CREATE TABLE progress (
            key         TEXT NOT NULL,
            attempt     INTEGER NOT NULL,
            worker      TEXT,
            status      TEXT NOT NULL,
            wall_time_s REAL,
            events_per_sec REAL,
            metrics_json TEXT,
            updated_at  REAL,
            PRIMARY KEY (key, attempt)
        )""",
        "ALTER TABLE campaigns ADD COLUMN manifest_json TEXT",
        "ALTER TABLE campaigns ADD COLUMN metrics_json TEXT",
    ),
    # v4: the distributed work-queue.  ``leases`` holds at most one live
    # lease per job key (who is running it, until when); ``jobs`` gains a
    # monotone fencing counter bumped on every claim so a reclaimed
    # worker's late commit can be rejected; ``campaigns`` counts how many
    # leases were reclaimed from dead/hung workers.  Additive only.
    4: (
        "ALTER TABLE jobs ADD COLUMN lease_seq INTEGER NOT NULL DEFAULT 0",
        """CREATE TABLE leases (
            key         TEXT PRIMARY KEY,
            campaign    TEXT NOT NULL,
            worker_id   TEXT NOT NULL,
            attempt     INTEGER NOT NULL,
            claimed_at  REAL NOT NULL,
            heartbeat_at REAL NOT NULL,
            lease_deadline REAL NOT NULL
        )""",
        "CREATE INDEX leases_by_campaign ON leases (campaign, lease_deadline)",
        "ALTER TABLE campaigns ADD COLUMN reclaims INTEGER NOT NULL DEFAULT 0",
    ),
}


def default_db_path() -> str:
    """Database location: ``REPRO_CAMPAIGN_DB``, else next to the disk
    cache; an in-memory database when caching is disabled entirely."""
    env = os.environ.get("REPRO_CAMPAIGN_DB")
    if env:
        return env
    if not cache_enabled():
        return ":memory:"
    return str(default_cache_dir() / "campaigns.sqlite")


# One (job, attempt) progress row; :meth:`ResultStore.record_progress`
# commits it alone, the queue's fenced completion inside its transaction.
PROGRESS_UPSERT = (
    "INSERT INTO progress (key, attempt, worker, status, wall_time_s, "
    " events_per_sec, metrics_json, updated_at) "
    "VALUES (?, ?, ?, ?, ?, ?, ?, ?) "
    "ON CONFLICT(key, attempt) DO UPDATE SET "
    " worker = excluded.worker, status = excluded.status, "
    " wall_time_s = excluded.wall_time_s, "
    " events_per_sec = excluded.events_per_sec, "
    " metrics_json = excluded.metrics_json, "
    " updated_at = excluded.updated_at"
)


def progress_params(
    key: str,
    attempt: int,
    worker: str | None,
    status: str,
    *,
    wall_time_s: float | None = None,
    events_per_sec: float | None = None,
    metrics: dict | None = None,
) -> tuple:
    """Parameters of :data:`PROGRESS_UPSERT` for one row."""
    return (
        key,
        attempt,
        worker,
        status,
        wall_time_s,
        events_per_sec,
        json.dumps(metrics, sort_keys=True) if metrics is not None else None,
        time.time(),
    )


class ResultStore:
    """Transactional store for campaign job results (one SQLite file)."""

    def __init__(self, path: str | Path | None = None) -> None:
        raw = str(path) if path is not None else default_db_path()
        self.path = raw
        # Optional :class:`~repro.guard.chaos.ChaosPlan`: when set, result
        # commits are subjected to injected OperationalErrors (exercising
        # the same retry path real lock contention takes).
        self.chaos = None
        if raw != ":memory:":
            Path(raw).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(raw)
        self._conn.row_factory = sqlite3.Row
        busy_s = read_float(
            "REPRO_STORE_BUSY_TIMEOUT_S", _BUSY_TIMEOUT_DEFAULT_S, floor=0.0
        )
        self._conn.execute(f"PRAGMA busy_timeout={int(busy_s * 1000)}")
        # Switching a fresh file to WAL needs an exclusive lock, and SQLite
        # fails a concurrent opener's switch at once ("database is locked")
        # instead of waiting on the busy handler: retry within the timeout.
        deadline = time.monotonic() + busy_s
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                break
            except sqlite3.OperationalError:
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)
        self._conn.execute("PRAGMA synchronous=NORMAL")
        # A 256 KiB page cache (negative means KiB) instead of SQLite's
        # default of 2,000 KiB.  On a 400-job store (1.9 MB, 2-vCPU host)
        # ``campaign report`` and ``export`` ran no slower with it, and
        # their peak RSS fell by 1.5 MB.
        self._conn.execute("PRAGMA cache_size=-256")
        self._conn.execute("PRAGMA foreign_keys=ON")
        self._migrate()

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- schema --------------------------------------------------------------
    def schema_version(self) -> int:
        row = self._conn.execute("SELECT version FROM schema_version").fetchone()
        return int(row["version"]) if row is not None else 0

    def _migrate(self) -> None:
        conn = self._conn
        conn.execute(
            "CREATE TABLE IF NOT EXISTS schema_version (version INTEGER NOT NULL)"
        )
        # An up-to-date store needs no write lock, so a worker joining a
        # busy shared store does not queue behind its peers' commits.
        if self.schema_version() == SCHEMA_VERSION:
            return
        # Concurrent openers of a fresh (or stale) database race to apply
        # the same DDL — N ``campaign work`` processes pointed at one new
        # shared store all arrive here at once.  BEGIN IMMEDIATE takes the
        # write lock *before* the version read, so exactly one connection
        # upgrades and the rest wait on busy_timeout, then see the
        # finished schema and fall through.
        conn.execute("BEGIN IMMEDIATE")
        try:
            current = self.schema_version()
            if current > SCHEMA_VERSION:
                raise RuntimeError(
                    f"campaign database {self.path!r} has schema v{current}, "
                    f"newer than this code (v{SCHEMA_VERSION}); refusing to touch it"
                )
            if current < SCHEMA_VERSION:
                for version in range(current + 1, SCHEMA_VERSION + 1):
                    for statement in _MIGRATIONS[version]:
                        conn.execute(statement)
                conn.execute("DELETE FROM schema_version")
                conn.execute(
                    "INSERT INTO schema_version (version) VALUES (?)",
                    (SCHEMA_VERSION,),
                )
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    # -- registration --------------------------------------------------------
    def register(self, spec: CampaignSpec, jobs: Sequence[CampaignJob]) -> int:
        """Upsert the campaign row and insert any jobs not yet present.

        Existing job rows (including completed ones) are left untouched —
        that is the resume contract.  Returns the number of newly inserted
        jobs.  A campaign already registered in full is only read, so a
        resume or a late worker takes no write lock here.
        """
        fingerprint = spec.fingerprint()
        conn = self._conn
        row = conn.execute(
            "SELECT name FROM campaigns WHERE fingerprint = ?", (fingerprint,)
        ).fetchone()
        if (
            row is not None
            and row["name"] == spec.name
            and len(self.statuses(job.key for job in jobs))
            == len({job.key for job in jobs})
        ):
            return 0
        with conn:
            conn.execute(
                "INSERT INTO campaigns (fingerprint, name, spec_json, instructions) "
                "VALUES (?, ?, ?, ?) "
                "ON CONFLICT(fingerprint) DO UPDATE SET name = excluded.name",
                (
                    fingerprint,
                    spec.name,
                    json.dumps(spec.to_dict(), sort_keys=True),
                    spec.resolved_instructions(),
                ),
            )
            before = conn.total_changes
            conn.executemany(
                "INSERT OR IGNORE INTO jobs "
                "(key, campaign, num_cores, mix_index, variant, scheduler, "
                " workload_json, kwargs_json, seed, instructions) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        job.key,
                        fingerprint,
                        job.num_cores,
                        job.mix_index,
                        job.variant,
                        job.scheduler,
                        json.dumps(list(job.workload)),
                        json.dumps(job.kwargs_dict(), sort_keys=True),
                        job.seed,
                        job.instructions,
                    )
                    for job in jobs
                ],
            )
            return conn.total_changes - before

    # -- job lifecycle -------------------------------------------------------
    def _rows_for(self, keys: Iterable[str], sql: str) -> Iterator[sqlite3.Row]:
        """The rows of ``sql`` for ``keys``, :data:`_CHUNK` keys per query;
        ``sql`` names the key list ``{marks}``."""
        keys = list(keys)
        for start in range(0, len(keys), _CHUNK):
            chunk = keys[start : start + _CHUNK]
            yield from self._conn.execute(
                sql.format(marks=",".join("?" * len(chunk))), chunk
            )

    def statuses(self, keys: Iterable[str]) -> dict[str, str]:
        """Status by job key (absent keys are simply missing)."""
        return {
            row["key"]: row["status"]
            for row in self._rows_for(
                keys, "SELECT key, status FROM jobs WHERE key IN ({marks})"
            )
        }

    def transaction(self, key: str, fn: Callable[[sqlite3.Connection], T]) -> T:
        """Run ``fn(conn)`` inside one ``BEGIN IMMEDIATE`` transaction and
        return its result.

        Transient ``OperationalError`` (lock contention under concurrent
        workers, chaos injection keyed by ``key``) is retried with capped
        exponential backoff and jitter — so N workers that collide on the
        same lock don't retry in lockstep — then re-raised.  Any other
        error rolls the transaction back and propagates at once.
        """
        conn = self._conn
        for attempt in range(_COMMIT_RETRIES + 1):
            try:
                if self.chaos is not None:
                    self.chaos.sqlite_hiccup(key)
                if conn.in_transaction:  # pragma: no cover - defensive
                    conn.commit()
                conn.execute("BEGIN IMMEDIATE")
                try:
                    out = fn(conn)
                except BaseException:
                    if conn.in_transaction:
                        conn.execute("ROLLBACK")
                    raise
                conn.execute("COMMIT")
                return out
            except sqlite3.OperationalError as exc:
                if attempt >= _COMMIT_RETRIES:
                    raise
                PROCESS.counter("store.commit_retries").inc()
                delay = min(
                    _COMMIT_BACKOFF_S * (2**attempt), _COMMIT_BACKOFF_MAX_S
                )
                delay *= 0.5 + random.random() * 0.5
                logger.warning(
                    "store transaction for %s hit %s; retrying in %.2fs",
                    key[:12],
                    exc,
                    delay,
                )
                time.sleep(delay)

    def _commit(self, key: str, sql: str, params: tuple) -> None:
        """One statement in its own retried transaction."""
        self.transaction(key, lambda conn: conn.execute(sql, params))

    # -- progress (schema v3) ------------------------------------------------
    def record_progress(
        self,
        key: str,
        attempt: int,
        worker: str | None,
        status: str,
        *,
        wall_time_s: float | None = None,
        events_per_sec: float | None = None,
        metrics: dict | None = None,
    ) -> None:
        """Upsert one (job, attempt) heartbeat row for ``campaign watch``.

        ``metrics`` is the deterministic per-job blob from
        :func:`repro.obs.metrics.job_metrics`; wall time and throughput
        are worker-measured and explicitly non-deterministic.
        """
        self._commit(
            key,
            PROGRESS_UPSERT,
            progress_params(
                key,
                attempt,
                worker,
                status,
                wall_time_s=wall_time_s,
                events_per_sec=events_per_sec,
                metrics=metrics,
            ),
        )

    def progress_for(self, keys: Iterable[str]) -> dict[str, dict]:
        """Latest-attempt progress row per job key (absent keys missing)."""
        out: dict[str, dict] = {}
        for row in self._rows_for(
            keys, "SELECT * FROM progress WHERE key IN ({marks})"
        ):
            prev = out.get(row["key"])
            if prev is not None and prev["attempt"] >= row["attempt"]:
                continue
            out[row["key"]] = {
                "key": row["key"],
                "attempt": int(row["attempt"]),
                "worker": row["worker"],
                "status": row["status"],
                "wall_time_s": row["wall_time_s"],
                "events_per_sec": row["events_per_sec"],
                "metrics": (
                    json.loads(row["metrics_json"])
                    if row["metrics_json"] is not None
                    else None
                ),
                "updated_at": row["updated_at"],
            }
        return out

    # -- manifests and campaign metrics (schema v3) ---------------------------
    def set_manifest(self, fingerprint: str, manifest: dict) -> None:
        """Pin the run manifest of a campaign (overwritten each run; the
        manifest is a pure function of spec + environment, so a resume
        under the same knobs writes the same bytes)."""
        self._commit(
            fingerprint,
            "UPDATE campaigns SET manifest_json = ? WHERE fingerprint = ?",
            (json.dumps(manifest, sort_keys=True), fingerprint),
        )

    def manifest(self, fingerprint: str) -> dict | None:
        row = self._conn.execute(
            "SELECT manifest_json FROM campaigns WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None or row["manifest_json"] is None:
            return None
        return json.loads(row["manifest_json"])

    def fold_metrics(
        self, fingerprint: str, run: RunMetrics | None, **jobs: int
    ) -> None:
        """Fold one run's operational metrics into the campaign's stored
        snapshot, once per run.

        ``run`` holds what the run counted since it started (see
        :class:`repro.obs.metrics.RunMetrics`); ``jobs`` are its job
        counts, each ``name=n`` recorded as ``campaign.jobs_<name>``.  The
        merge (counters sum, gauges max, histograms bucket-wise — see
        :class:`repro.obs.metrics.MetricsRegistry`) reads and rewrites the
        row in one transaction, so workers finishing together lose no
        update.  Nothing is recorded without ``run`` (``REPRO_METRICS=0``).
        """
        if run is None:
            return
        from ..obs.metrics import MetricsRegistry

        registry = run.collect()
        for name, count in jobs.items():
            registry.counter(f"campaign.jobs_{name}").inc(count)
        snapshot = registry.snapshot()

        def merge(conn: sqlite3.Connection) -> None:
            merged = MetricsRegistry()
            existing = self.metrics(fingerprint)
            if existing is not None:
                merged.merge(existing)
            merged.merge(snapshot)
            conn.execute(
                "UPDATE campaigns SET metrics_json = ? WHERE fingerprint = ?",
                (json.dumps(merged.snapshot(), sort_keys=True), fingerprint),
            )

        self.transaction(fingerprint, merge)

    def metrics(self, fingerprint: str) -> dict | None:
        """The campaign's merged operational-metrics snapshot, if any."""
        row = self._conn.execute(
            "SELECT metrics_json FROM campaigns WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        if row is None or row["metrics_json"] is None:
            return None
        return json.loads(row["metrics_json"])

    # -- leases (schema v4) ---------------------------------------------------
    def leases_for(
        self, keys: Iterable[str], now: float | None = None
    ) -> dict[str, dict]:
        """Live lease rows for specific job keys (absent keys missing).

        Each row carries ``expired`` relative to ``now`` (wall clock by
        default) so readers can distinguish in-flight work from leases
        awaiting reclamation.
        """
        if now is None:
            now = time.time()
        return {
            row["key"]: {
                "key": row["key"],
                "campaign": row["campaign"],
                "worker_id": row["worker_id"],
                "attempt": int(row["attempt"]),
                "claimed_at": float(row["claimed_at"]),
                "heartbeat_at": float(row["heartbeat_at"]),
                "lease_deadline": float(row["lease_deadline"]),
                "expired": float(row["lease_deadline"]) <= now,
            }
            for row in self._rows_for(
                keys, "SELECT * FROM leases WHERE key IN ({marks})"
            )
        }

    def reclaim_count(self, fingerprint: str) -> int:
        """How many leases this campaign has reclaimed from dead workers."""
        row = self._conn.execute(
            "SELECT reclaims FROM campaigns WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        return int(row["reclaims"]) if row is not None else 0

    def spec_for(self, fingerprint: str) -> CampaignSpec:
        """Rehydrate the registered spec by fingerprint (unique-prefix
        match accepted, mirroring git's short-hash ergonomics for the
        ``campaign work --fingerprint`` CLI)."""
        rows = self._conn.execute(
            "SELECT fingerprint, spec_json FROM campaigns "
            "WHERE fingerprint LIKE ? ORDER BY fingerprint",
            (fingerprint + "%",),
        ).fetchall()
        exact = [r for r in rows if r["fingerprint"] == fingerprint]
        if exact:
            rows = exact
        if not rows:
            raise KeyError(
                f"no campaign with fingerprint {fingerprint!r} in {self.path!r}"
            )
        if len(rows) > 1:
            matches = ", ".join(r["fingerprint"][:12] for r in rows)
            raise KeyError(
                f"fingerprint prefix {fingerprint!r} is ambiguous ({matches})"
            )
        from .spec import spec_from_dict

        return spec_from_dict(json.loads(rows[0]["spec_json"]))

    # -- queries -------------------------------------------------------------
    def counts(self, fingerprint: str) -> dict[str, int]:
        out = {"pending": 0, "done": 0, "failed": 0, "total": 0}
        for row in self._conn.execute(
            "SELECT status, COUNT(*) AS n FROM jobs WHERE campaign = ? "
            "GROUP BY status",
            (fingerprint,),
        ):
            out[row["status"]] = int(row["n"])
            out["total"] += int(row["n"])
        return out

    def results_for(self, keys: Iterable[str]) -> dict[str, "WorkloadResult"]:
        """Completed results for specific job keys, regardless of which
        campaign originally registered them (job identity is the content
        hash, so identical cells are shared across campaigns)."""
        from .serde import result_from_json

        return {
            row["key"]: result_from_json(row["result_json"])
            for row in self._rows_for(
                keys,
                "SELECT key, result_json FROM jobs "
                "WHERE key IN ({marks}) AND status = 'done'",
            )
            if row["result_json"] is not None
        }

    def failures_for(self, keys: Iterable[str]) -> dict[str, str]:
        """Error text for specific failed job keys (cross-campaign)."""
        return {
            row["key"]: row["error"] or ""
            for row in self._rows_for(
                keys,
                "SELECT key, error FROM jobs "
                "WHERE key IN ({marks}) AND status = 'failed'",
            )
        }

    def campaigns(self) -> list[dict]:
        """Summary row per stored campaign (for ``campaign status``)."""
        out = []
        for row in self._conn.execute(
            "SELECT fingerprint, name, instructions FROM campaigns ORDER BY name"
        ):
            entry = {
                "fingerprint": row["fingerprint"],
                "name": row["name"],
                "instructions": int(row["instructions"]),
            }
            entry.update(self.counts(row["fingerprint"]))
            out.append(entry)
        return out
