"""Resumable campaign execution on top of the work queue and the store.

The orchestrator is deliberately thin: a campaign spec expands to a job
grid, the store says which cells already hold results, and the missing
ones are drained through the lease/heartbeat work queue by
:func:`repro.campaign.worker.drain_campaign` — the same consumer loop
every distributed ``campaign work`` process runs.  A plain
``campaign run`` is therefore just a one-worker drain; point extra
``campaign work`` processes at the same database and they share the grid
through the queue with no orchestrator involvement.

With more than one worker and the disk cache on, the run first computes
the alone-run baselines its missing jobs need, across the same worker
count (:func:`repro.sim.pool.warm_baselines`), so the drain's workers
read them from the cache instead of each recomputing them.  Baselines
already cached are only checked; a warm cache forks nothing for them.

Each completion is committed to the store in its own (fenced)
transaction *as it arrives*, so a ``Ctrl-C``, crash or machine reboot
mid-grid loses at most the simulations that were in flight; re-running
the same spec resumes exactly where it stopped.

Failed jobs are retried with capped exponential backoff (worker crashes
and transient OS failures are the target — the simulations themselves
are deterministic), and anything still failing is recorded as ``failed``
with its error text, to be retried by the next run.

Progress streams through the :mod:`repro.obs` trace bus when a probe is
supplied — ``campaign.start``/``campaign.done`` from here, one
``campaign.job`` per job from the drain — and through ``logging`` always.
"""

from __future__ import annotations

import logging
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..envknobs import default_job_timeout, default_jobs
from ..sim.diskcache import DiskCache, cache_enabled, default_cache_dir
from .manifest import build_manifest
from .spec import CampaignSpec
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover
    from ..guard.chaos import ChaosPlan
    from ..metrics.summary import WorkloadResult
    from ..obs.trace import Probe

__all__ = ["RunStats", "run_campaign", "run_and_collect"]

logger = logging.getLogger(__name__)


@dataclass
class RunStats:
    """What one ``campaign run`` invocation actually did."""

    total: int = 0  # grid size
    skipped: int = 0  # already done in the store (or done by a peer)
    ran: int = 0  # simulated and committed by this run
    failed: int = 0  # exhausted retries; recorded as failed
    retried: int = 0  # resubmissions after a worker error
    deferred: int = 0  # pending but beyond --limit
    # Jobs requeued into a fresh pool after a pool incident (not charged
    # as attempts).  Not part of summary_line — that format is frozen.
    requeued: int = 0

    def summary_line(self, name: str) -> str:
        """The stable one-line digest the CLI prints (CI greps it)."""
        return (
            f"campaign {name}: total={self.total} ran={self.ran} "
            f"skipped={self.skipped} failed={self.failed} "
            f"deferred={self.deferred}"
        )


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    jobs: int | None = None,
    limit: int | None = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    probe: Probe | None = None,
    chaos: ChaosPlan | None = None,
    job_timeout_s: float | None = None,
    lease_s: float | None = None,
    heartbeat_s: float | None = None,
    worker_id: str | None = None,
) -> RunStats:
    """Run every grid cell of ``spec`` that the store does not have yet.

    ``limit`` caps how many missing jobs this invocation simulates (the
    campaign smoke tests use it to model an interruption); ``jobs`` is
    the worker process count (default: ``REPRO_JOBS``).

    ``chaos`` (or the ``REPRO_CHAOS`` environment knob) activates fault
    injection: disk-cache entries the plan selects are corrupted up
    front, store commits see injected SQLite errors, and pool workers
    are killed/hung per the plan — all deterministic and once-only, so a
    chaos run converges to the same stored results as a clean one.
    ``job_timeout_s`` (default ``REPRO_JOB_TIMEOUT_S``) is the parallel
    path's no-progress timeout; ``lease_s``/``heartbeat_s`` (defaults
    ``REPRO_LEASE_S``/``REPRO_HEARTBEAT_S``) tune the work-queue lease
    this run's drain holds on each in-flight job.

    The grid is registered and its statuses read once, here; the drain
    runs the pending keys and keeps the run's bookkeeping, and
    :class:`RunStats` is built from what it returns.  Only a run with
    jobs to simulate imports the execution stack (worker, pool, chaos,
    schedulers); one that finds every job stored reads the store and the
    spec alone.
    """
    if chaos is None and (os.environ.get("REPRO_CHAOS") or "").strip():
        from ..guard.chaos import chaos_from_env

        chaos = chaos_from_env()
    if job_timeout_s is None:
        job_timeout_s = default_job_timeout()
    # The manifest records REPRO_CHAOS, so the resolved plan is exported
    # before it is built, and for the rest of the run.
    with chaos.exported() if chaos is not None else nullcontext():
        grid = spec.expand()
        store.register(spec, grid)
        # Pin the run manifest up front: provenance must survive even a
        # run that is interrupted before its first commit.  The manifest
        # is a pure function of spec + environment (no timestamps), so a
        # resume under the same knobs rewrites identical bytes.
        store.set_manifest(spec.fingerprint(), build_manifest(spec))
        statuses = store.statuses(job.key for job in grid)
        to_run = [job for job in grid if statuses.get(job.key) != "done"]
        stats = RunStats(total=len(grid), skipped=len(grid) - len(to_run))
        if limit is not None and len(to_run) > limit:
            stats.deferred = len(to_run) - limit
            to_run = to_run[:limit]
        workers = default_jobs() if jobs is None else max(1, jobs)
        workers = min(workers, max(1, len(to_run)))
        logger.info(
            "campaign %s: %d jobs total, %d already stored, running %d over %d workers",
            spec.name,
            stats.total,
            stats.skipped,
            len(to_run),
            workers,
        )
        if probe is not None:
            probe.emit(
                0,
                "campaign.start",
                name=spec.name,
                fingerprint=spec.fingerprint(),
                total=stats.total,
                stored=stats.skipped,
                running=len(to_run),
            )
        if not to_run:
            store.fold_metrics(
                spec.fingerprint(),
                registered=stats.total,
                skipped=stats.skipped,
                failed=0,
                retried=0,
                requeued=0,
            )
        else:
            from ..obs.config import TraceConfig
            from ..sim import pool
            from .worker import drain_campaign, sim_job

            trace = TraceConfig.from_env() or TraceConfig()
            cache_dir = str(default_cache_dir()) if cache_enabled() else None
            if chaos is not None and cache_dir is not None:
                # Corrupt selected cache entries up front so the
                # quarantine + recompute path runs under this campaign,
                # not a later one.
                chaos.corrupt_cache(DiskCache(cache_dir))
            if workers > 1:
                pool.warm_baselines(
                    [sim_job(job, trace, cache_dir) for job in to_run], workers
                )
            drained = drain_campaign(
                spec,
                store,
                keys=[job.key for job in to_run],
                stored=stats.skipped,
                probe=probe,
                worker_id=worker_id,
                jobs=workers,
                lease_s=lease_s,
                heartbeat_s=heartbeat_s,
                retries=retries,
                backoff_s=backoff_s,
                job_timeout_s=job_timeout_s,
                chaos=chaos,
                trace=trace,
                cache_dir=cache_dir,
            )
            stats.ran = drained.completed
            stats.failed = drained.failed
            stats.retried = drained.retried
            stats.requeued = drained.requeued
            # Jobs a peer worker (another `campaign work` process on this
            # store) finished while we drained: done is done — count them
            # with the cells that were already stored.
            stats.skipped += drained.foreign_done
    if probe is not None:
        probe.emit(
            stats.skipped + stats.ran,
            "campaign.done",
            ran=stats.ran,
            failed=stats.failed,
            skipped=stats.skipped,
        )
    return stats


def run_and_collect(
    spec: CampaignSpec,
    store: ResultStore | None = None,
    *,
    jobs: int | None = None,
    retries: int = 2,
    backoff_s: float = 0.5,
    probe: Probe | None = None,
) -> list[WorkloadResult]:
    """Run a campaign to completion and return results in grid order.

    This is the bridge the experiment drivers use: with ``store=None`` a
    store is opened at the default location (so figure pipelines are
    restartable by default) and closed afterwards.  Raises if any job
    ultimately failed — partial grids are for ``campaign status`` to
    inspect, not for aggregate statistics to silently average over.
    """
    owned = store is None
    store = store if store is not None else ResultStore()
    try:
        run_campaign(
            spec, store, jobs=jobs, retries=retries, backoff_s=backoff_s, probe=probe
        )
        grid = spec.expand()
        results = store.results_for(job.key for job in grid)
        missing = [job.key for job in grid if job.key not in results]
        if missing:
            failures = store.failures_for(missing)
            detail = "; ".join(
                f"{key[:16]}: {failures.get(key, 'missing')}" for key in missing[:3]
            )
            raise RuntimeError(
                f"campaign {spec.name!r}: {len(missing)} of {len(grid)} jobs "
                f"did not complete ({detail})"
            )
        return [results[job.key] for job in grid]
    finally:
        if owned:
            store.close()
