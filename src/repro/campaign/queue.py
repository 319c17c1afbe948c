"""Lease/heartbeat/complete work-queue protocol over the result store.

This is the coordination layer that lets N independent worker processes
— on one or many hosts pointed at a shared SQLite database — drain a
single campaign without losing or duplicating a result:

* **claim** — atomically take runnable jobs (not ``done``, no live
  lease), one or a whole batch, under ``BEGIN IMMEDIATE``, so
  concurrent claimers serialize on SQLite's write lock and each job is
  handed to exactly one worker.  Claiming bumps the job's monotone
  ``lease_seq`` counter; that value is the worker's *fencing token* for
  this execution.
* **heartbeat** — renew the lease deadline periodically while the
  simulation runs (wired into the simulator's watchdog checkpoint via
  :func:`repro.sim.pool.sim_progress`).  Renewal is fenced: if the lease
  was reclaimed and re-issued, the stale worker gets ``None`` back and
  must abandon the job.
* **reclaim** — any worker may delete leases whose deadline passed
  (the owner died or hung) and re-claim the jobs.  The owning campaign's
  ``reclaims`` counter records each reissue for ``campaign watch``.
* **complete/fail** — commit the result *and* release the lease in one
  transaction, but only if the worker's fencing token still matches the
  live lease.  A reclaimed-then-resurrected worker can therefore never
  double-commit: its token is stale, the commit is rejected, and the
  result recorded by the reclaiming worker stands.

Every step is one :meth:`ResultStore.transaction` on the store's
connection (WAL + ``busy_timeout`` already configured), which takes the
write lock up front and retries transient ``OperationalError`` —
including chaos-injected ones — with jittered capped backoff.
"""

from __future__ import annotations

import logging
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from ..envknobs import read_float
from ..obs.metrics import job_metrics
from .store import PROGRESS_UPSERT, ResultStore, progress_params

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult

__all__ = [
    "Lease",
    "LeaseQueue",
    "QUEUE_STATS",
    "default_heartbeat_s",
    "default_lease_s",
]

logger = logging.getLogger(__name__)

# Operational counters of this process's queue traffic, folded into the
# metrics plane as ``worker.*`` by
# :func:`repro.obs.metrics.collect_process_metrics`.
QUEUE_STATS = {
    "leases_claimed": 0,
    "leases_renewed": 0,
    "leases_expired": 0,
    "leases_reclaimed": 0,
    "leases_fenced": 0,
}

_DEFAULT_LEASE_S = 30.0
_CHUNK = 500
# First chunk of a bounded claim: enough to step over a few leased or
# done keys without reading the whole list.
_FIRST_CHUNK = 8


def default_lease_s() -> float:
    """Lease duration in seconds (``REPRO_LEASE_S``, default 30)."""
    return read_float("REPRO_LEASE_S", _DEFAULT_LEASE_S, floor=0.1)


def default_heartbeat_s(lease_s: float) -> float:
    """Heartbeat period (``REPRO_HEARTBEAT_S``, default a third of the
    lease — three missed beats before anyone may reclaim)."""
    return read_float("REPRO_HEARTBEAT_S", lease_s / 3.0, floor=0.05)


@dataclass(frozen=True)
class Lease:
    """One worker's live claim on one job.

    ``attempt`` is the fencing token: the job's ``lease_seq`` at claim
    time.  Completion/renewal succeed only while the (worker_id, attempt)
    pair matches the live lease row.  ``reclaimed`` marks a claim that
    took the job over from an expired lease.
    """

    key: str
    worker_id: str
    attempt: int
    deadline: float
    reclaimed: bool = False


def _worker_id() -> str:
    return f"{os.uname().nodename}:{os.getpid()}:{uuid.uuid4().hex[:6]}"


class LeaseQueue:
    """Fenced work-queue over one campaign's jobs in a shared store."""

    def __init__(
        self,
        store: ResultStore,
        fingerprint: str,
        *,
        worker_id: str | None = None,
        lease_s: float | None = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.store = store
        self.fingerprint = fingerprint
        self.worker_id = worker_id or _worker_id()
        self.lease_s = lease_s if lease_s is not None else default_lease_s()
        self._clock = clock

    def _fenced_row(self, conn, lease: Lease):
        row = conn.execute(
            "SELECT worker_id, attempt FROM leases WHERE key = ?",
            (lease.key,),
        ).fetchone()
        if (
            row is None
            or row["worker_id"] != lease.worker_id
            or int(row["attempt"]) != lease.attempt
        ):
            return None
        return row

    # -- protocol -------------------------------------------------------------
    def claim(
        self, keys: Sequence[str], limit: int | None = None
    ) -> list[Lease]:
        """Atomically claim the runnable jobs in ``keys``, in ``keys`` order.

        Runnable means: registered, not ``done``, and carrying no live
        lease.  An *expired* lease on a key is reclaimed in the same
        transaction (its job is re-issued to this worker, and the lease
        is marked ``reclaimed``).  Every claim
        raises the job's ``lease_seq`` by one: the new value is the
        lease's fencing token.  ``keys`` is read in chunks — starting
        small when ``limit`` is set, so a one-job claim whose first keys
        are runnable touches a few rows — and the walk stops once
        ``limit`` leases are taken.  One ``BEGIN IMMEDIATE`` transaction
        covers the whole batch, so concurrent claimers get disjoint sets.
        """

        def fn(conn):
            now = self._clock()
            deadline = now + self.lease_s
            leases: list[Lease] = []
            seen: set[str] = set()
            size = _CHUNK if limit is None else min(_CHUNK, max(_FIRST_CHUNK, limit))
            start = 0
            while start < len(keys) and (limit is None or len(leases) < limit):
                chunk = list(keys[start : start + size])
                start += len(chunk)
                size = min(_CHUNK, size * 2)
                marks = ",".join("?" * len(chunk))
                jobs = {
                    row["key"]: row
                    for row in conn.execute(
                        "SELECT key, status, lease_seq FROM jobs "
                        f"WHERE key IN ({marks})",
                        chunk,
                    )
                }
                held = {
                    row["key"]: row
                    for row in conn.execute(
                        "SELECT key, campaign, worker_id, lease_deadline "
                        f"FROM leases WHERE key IN ({marks})",
                        chunk,
                    )
                }
                stale: list[sqlite3.Row] = []
                taken: list[Lease] = []
                for key in chunk:
                    job = jobs.get(key)
                    # A grid that lists one mix twice repeats its keys.
                    if job is None or job["status"] == "done" or key in seen:
                        continue
                    lease_row = held.get(key)
                    if lease_row is not None:
                        if float(lease_row["lease_deadline"]) > now:
                            continue  # live lease; someone else is on it
                        stale.append(lease_row)
                    seen.add(key)
                    taken.append(
                        Lease(
                            key,
                            self.worker_id,
                            int(job["lease_seq"]) + 1,
                            deadline,
                            reclaimed=lease_row is not None,
                        )
                    )
                    if limit is not None and len(leases) + len(taken) >= limit:
                        break
                self._reclaim_rows(conn, stale)
                conn.executemany(
                    "UPDATE jobs SET lease_seq = lease_seq + 1 WHERE key = ?",
                    [(lease.key,) for lease in taken],
                )
                conn.executemany(
                    "INSERT INTO leases (key, campaign, worker_id, attempt,"
                    " claimed_at, heartbeat_at, lease_deadline) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (
                            lease.key,
                            self.fingerprint,
                            self.worker_id,
                            lease.attempt,
                            now,
                            now,
                            deadline,
                        )
                        for lease in taken
                    ],
                )
                QUEUE_STATS["leases_claimed"] += len(taken)
                leases.extend(taken)
            return leases

        return self.store.transaction("claim", fn)

    def claim_next(self, keys: Sequence[str]) -> Lease | None:
        """Claim the first runnable job in ``keys`` order (see
        :meth:`claim`); ``None`` when every key is done or leased out to
        live workers."""
        leases = self.claim(keys, 1)
        return leases[0] if leases else None

    @staticmethod
    def _reclaim_rows(conn, rows: Sequence[sqlite3.Row]) -> None:
        """Delete expired lease ``rows`` and credit each owning campaign's
        ``reclaims`` counter (inside the caller's transaction)."""
        for row in rows:
            conn.execute("DELETE FROM leases WHERE key = ?", (row["key"],))
            conn.execute(
                "UPDATE campaigns SET reclaims = reclaims + 1 "
                "WHERE fingerprint = ?",
                (row["campaign"],),
            )
            logger.warning(
                "reclaimed expired lease on %s from %s",
                row["key"][:12],
                row["worker_id"],
            )
        QUEUE_STATS["leases_expired"] += len(rows)
        QUEUE_STATS["leases_reclaimed"] += len(rows)

    def heartbeat(self, lease: Lease) -> Lease | None:
        """Renew the lease deadline; ``None`` means fenced out (the lease
        was reclaimed and this worker must abandon the job)."""

        def fn(conn):
            if self._fenced_row(conn, lease) is None:
                QUEUE_STATS["leases_fenced"] += 1
                return None
            now = self._clock()
            deadline = now + self.lease_s
            conn.execute(
                "UPDATE leases SET heartbeat_at = ?, lease_deadline = ? "
                "WHERE key = ?",
                (now, deadline, lease.key),
            )
            QUEUE_STATS["leases_renewed"] += 1
            return replace(lease, deadline=deadline)

        return self.store.transaction(lease.key, fn)

    def complete(
        self,
        lease: Lease,
        result: "WorkloadResult",
        wall_time_s: float | None = None,
        *,
        attempt: int = 0,
        worker: str | None = None,
    ) -> bool:
        """Fenced commit: persist the result, its ``done`` progress row
        (``attempt``/``worker`` key it, the per-job ``sim.*`` metrics blob
        rides in it) and release the lease in one transaction iff the
        fencing token still matches.  Returns False (and changes nothing)
        for a stale worker."""
        from .serde import result_to_json

        payload = result_to_json(result)
        events_per_sec = (
            result.events_logical / wall_time_s if wall_time_s else None
        )
        progress = progress_params(
            lease.key,
            attempt,
            worker,
            "done",
            wall_time_s=wall_time_s,
            events_per_sec=events_per_sec,
            metrics=job_metrics(result),
        )

        def fn(conn):
            if self._fenced_row(conn, lease) is None:
                QUEUE_STATS["leases_fenced"] += 1
                logger.warning(
                    "fenced: stale worker %s may not commit %s",
                    lease.worker_id,
                    lease.key[:12],
                )
                return False
            conn.execute(
                "UPDATE jobs SET status = 'done', result_json = ?, "
                "error = NULL, attempts = attempts + 1, wall_time_s = ? "
                "WHERE key = ?",
                (payload, wall_time_s, lease.key),
            )
            conn.execute(PROGRESS_UPSERT, progress)
            conn.execute("DELETE FROM leases WHERE key = ?", (lease.key,))
            return True

        return self.store.transaction(lease.key, fn)

    def fail(self, lease: Lease, error: str) -> bool:
        """Fenced failure record (job stays retryable on future resumes)."""

        def fn(conn):
            if self._fenced_row(conn, lease) is None:
                QUEUE_STATS["leases_fenced"] += 1
                return False
            conn.execute(
                "UPDATE jobs SET status = 'failed', error = ?, "
                "attempts = attempts + 1 WHERE key = ?",
                (error[:2000], lease.key),
            )
            conn.execute("DELETE FROM leases WHERE key = ?", (lease.key,))
            return True

        return self.store.transaction(lease.key, fn)

    def release(self, lease: Lease) -> bool:
        """Fenced release without touching job status (requeue path)."""

        def fn(conn):
            if self._fenced_row(conn, lease) is None:
                return False
            conn.execute("DELETE FROM leases WHERE key = ?", (lease.key,))
            return True

        return self.store.transaction(lease.key, fn)

    def reclaim_expired(self) -> list[str]:
        """Delete every expired lease in the store (any campaign) and
        credit the owning campaigns' ``reclaims`` counters.  Returns the
        reclaimed job keys — now claimable again by anyone."""

        def fn(conn):
            now = self._clock()
            rows = conn.execute(
                "SELECT key, campaign, worker_id FROM leases "
                "WHERE lease_deadline <= ?",
                (now,),
            ).fetchall()
            self._reclaim_rows(conn, rows)
            return [row["key"] for row in rows]

        return self.store.transaction("reclaim", fn)
