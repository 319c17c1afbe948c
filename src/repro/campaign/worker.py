"""The queue-consumer worker loop: drain one campaign through leases.

This is the execution half of the distributed campaign engine.  The
protocol half lives in :mod:`repro.campaign.queue`; this module turns it
into a drain loop that both entry points share:

* the in-process path — :func:`repro.campaign.orchestrator.run_campaign`
  reads the grid's statuses once and hands its pending keys here, so a
  plain ``campaign run`` *is* a one-worker drain;
* the distributed path — every ``campaign work --db ...`` process runs
  this same loop against the shared store, claiming jobs the others
  haven't.

A drain with more than one worker first computes the alone baselines
its pending jobs need across the same worker count
(:func:`repro.sim.pool.warm_baselines`), so its workers read them from
the disk cache instead of each recomputing them.

The loop per iteration: reclaim expired leases (dead/hung peers), settle
keys that peers finished, claim runnable jobs in grid order (one lease
with one worker, as many as the budget allows with more, in one
transaction), and run them through :func:`repro.sim.pool.run_tasks` —
in this process with one worker, over a process pool otherwise.  The
executor owns the pool generations, no-progress timeouts, respawns and
the move to this process after repeated incidents; this module supplies
the fenced commit, the retry policy (``retries`` attempts with capped
exponential backoff), lease renewal as the executor's beat — in this
process the simulator's progress hook drives it, so a lease outlives
any job whose worker is actually alive — and the release of held leases
on ``Ctrl-C``.  Completion is fenced by :meth:`LeaseQueue.complete`: if
this worker was presumed dead and its job reclaimed, the result is
dropped and the job's fate belongs to the reclaiming peer (``lost`` in
:class:`WorkerStats`).

The drain owns the run's bookkeeping for both entry points: its
:class:`WorkerStats` is what the orchestrator's ``RunStats`` is built
from, it logs each ``N/M done`` line and emits the ``campaign.job``
trace events, and at the end it folds what the run counted into the
campaign row (:meth:`ResultStore.fold_metrics`).
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from functools import cache
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import baseline_system
from ..guard.chaos import ChaosInjectedError, ChaosPlan
from ..metrics.summary import WorkloadResult
from ..obs.config import TraceConfig
from ..obs.metrics import RunMetrics, run_metrics
from ..sim import pool
from ..sim.pool import SimJob
from .queue import Lease, LeaseQueue, default_heartbeat_s
from .spec import CampaignJob, CampaignSpec
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Probe

__all__ = ["WorkerStats", "drain_campaign"]

logger = logging.getLogger(__name__)

_MAX_BACKOFF_S = 8.0


@dataclass
class WorkerStats:
    """What one drain loop actually did (one worker's view)."""

    worker_id: str = ""  # the queue identity this drain claimed under
    claimed: int = 0  # leases successfully claimed
    completed: int = 0  # fenced commits that landed
    failed: int = 0  # local retries exhausted; recorded as failed
    retried: int = 0  # local resubmissions after a job error
    requeued: int = 0  # jobs requeued after a pool incident
    reclaimed: int = 0  # expired peer leases this worker reclaimed
    fenced: int = 0  # own commits rejected by the fencing token
    lost: int = 0  # results dropped: lease reclaimed mid-run
    foreign_done: int = 0  # jobs a peer completed while we drained
    failed_elsewhere: int = 0  # jobs a peer failed while we waited
    left_leased: int = 0  # jobs still leased to live peers at exit

    def resolved(self) -> int:
        return self.completed + self.failed


# One (frozen) configuration per core count, shared by every job
# description a drain holds instead of a copy per job.
_baseline = cache(baseline_system)


def sim_job(job: CampaignJob, trace: TraceConfig, cache_dir: str | None) -> SimJob:
    """The picklable pool description of one grid cell."""
    return SimJob(
        config=_baseline(job.num_cores),
        workload=job.workload,
        scheduler=job.scheduler,
        scheduler_kwargs=job.kwargs_dict(),
        instructions=job.instructions,
        seed=job.seed,
        cache_dir=cache_dir,
        trace=trace,
        trace_files=job.trace_files,
        decoder=job.decoder,
    )


class _Drain:
    """One worker's drain of one campaign."""

    def __init__(
        self,
        spec: CampaignSpec,
        store: ResultStore,
        *,
        keys: Sequence[str] | None,
        stored: int,
        probe: Probe | None,
        worker_id: str | None,
        jobs: int,
        lease_s: float | None,
        heartbeat_s: float | None,
        poll_s: float,
        retries: int,
        backoff_s: float,
        job_timeout_s: float | None,
        chaos: ChaosPlan | None,
        hard_kill: bool,
        wait_for_peers: bool,
        max_jobs: int | None,
        trace: TraceConfig | None,
        cache_dir: str | None,
        clock: Callable[[], float],
        metrics: RunMetrics | None,
    ) -> None:
        self.metrics = metrics if metrics is not None else run_metrics()
        self.spec = spec
        self.store = store
        self.queue = LeaseQueue(
            store,
            spec.fingerprint(),
            worker_id=worker_id,
            lease_s=lease_s,
            clock=clock,
        )
        self.heartbeat_s = (
            heartbeat_s
            if heartbeat_s is not None
            else default_heartbeat_s(self.queue.lease_s)
        )
        self.jobs = max(1, jobs)
        self.poll_s = poll_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.job_timeout_s = job_timeout_s
        self.chaos = chaos
        self.hard_kill = hard_kill
        self.wait_for_peers = wait_for_peers
        self.max_jobs = max_jobs
        self.trace = trace if trace is not None else (TraceConfig.from_env() or TraceConfig())
        if cache_dir == "auto":
            from ..sim.diskcache import cache_enabled, default_cache_dir

            cache_dir = str(default_cache_dir()) if cache_enabled() else None
        self.cache_dir = cache_dir
        self.probe = probe
        self.stats = WorkerStats(worker_id=self.queue.worker_id)

        grid = spec.expand()
        self.by_key = {job.key: job for job in grid}
        self.total = len(grid)
        if keys is None:
            store.register(spec, grid)
            statuses = store.statuses(self.by_key)
            keys = [job.key for job in grid if statuses.get(job.key) != "done"]
            stored = len(grid) - len(keys)
        self.stored = stored
        self.unresolved: list[str] = list(keys)

    # -- bookkeeping ---------------------------------------------------------
    def _budget(self) -> int | None:
        """How many more jobs this drain may resolve (``None``: no cap)."""
        if self.max_jobs is None:
            return None
        return max(0, self.max_jobs - self.stats.resolved())

    def _done(self) -> int:
        """Grid cells done so far: stored, settled by peers, or ours."""
        return self.stored + self.stats.foreign_done + self.stats.completed

    def _report(self, key: str, status: str) -> None:
        """One resolved job: the ``N/M done`` log line and the
        ``campaign.job`` trace event."""
        job = self.by_key[key]
        if status == "done":
            logger.info(
                "campaign %s: %d/%d done (%s on %d cores)",
                self.spec.name, self._done(), self.total, job.variant, job.num_cores,
            )
        if self.probe is not None:
            self.probe.emit(
                self._done(),
                "campaign.job",
                key=key[:16],
                variant=job.variant,
                cores=job.num_cores,
                status=status,
            )

    def _resolve(self, key: str) -> None:
        self.unresolved.remove(key)

    def _commit(
        self, lease: Lease, result: WorkloadResult, wall: float, attempt: int, pid: int
    ) -> bool:
        """Fenced completion, its ``done`` progress row in the same
        transaction; False means a peer owns the job now."""
        if self.queue.complete(
            lease, result, wall_time_s=wall, attempt=attempt, worker=str(pid)
        ):
            self.stats.completed += 1
            if self.metrics is not None:
                self.metrics.registry.counter("campaign.jobs_ran").inc()
                self.metrics.registry.histogram("campaign.job_wall_s").observe(wall)
            self._report(lease.key, "done")
            self._resolve(lease.key)
            return True
        self.stats.fenced += 1
        self.stats.lost += 1
        logger.warning(
            "worker %s: commit of %s fenced off (lease reclaimed); "
            "leaving the job to its new owner",
            self.queue.worker_id,
            lease.key[:12],
        )
        return False

    def _give_up(self, lease: Lease, error: BaseException, attempt: int) -> None:
        if not self.queue.fail(lease, f"{type(error).__name__}: {error}"):
            self.stats.fenced += 1
            self.stats.lost += 1
            return
        self.store.record_progress(lease.key, attempt, None, "failed")
        self.stats.failed += 1
        logger.warning(
            "campaign %s: job %s failed: %s",
            self.spec.name,
            lease.key[:16],
            error,
        )
        self._report(lease.key, "failed")
        self._resolve(lease.key)

    def _after_error(
        self, lease: Lease, error: BaseException, attempt: int
    ) -> Lease | None:
        """A job attempt raised: give up once ``retries`` are spent, else
        back off and renew the lease.  Returns the lease to retry under,
        or None when the job is failed or no longer ours."""
        if attempt >= self.retries:
            self._give_up(lease, error, attempt)
            return None
        self.stats.retried += 1
        self.store.record_progress(lease.key, attempt, None, "retrying")
        time.sleep(min(self.backoff_s * (2**attempt), _MAX_BACKOFF_S))
        # The lease may be near expiry after the backoff; a fenced
        # renewal here means the job is no longer ours to retry.
        renewed = self.queue.heartbeat(lease)
        if renewed is None:
            self.stats.lost += 1
        return renewed

    def _settle_foreign(self) -> None:
        """Resolve keys whose fate peers decided (done elsewhere)."""
        if not self.unresolved:
            return
        statuses = self.store.statuses(self.unresolved)
        for key in list(self.unresolved):
            if statuses.get(key) == "done":
                self.stats.foreign_done += 1
                self._resolve(key)

    def _reclaim(self) -> None:
        reclaimed = self.queue.reclaim_expired()
        self.stats.reclaimed += len(reclaimed)

    def _frozen(self, key: str) -> bool:
        """Whether chaos freezes this job's lease heartbeats."""
        frozen = self.chaos is not None and self.chaos.freeze_heartbeats(key)
        if frozen:
            logger.warning(
                "chaos: freezing heartbeats for %s on %s",
                key[:12],
                self.queue.worker_id,
            )
        return frozen

    # -- the drain loop ---------------------------------------------------------
    def _claim(self) -> dict[str, Lease]:
        """Claim runnable jobs in grid order in one transaction: the next
        one with one worker, as many as the budget allows with more."""
        leases = self.queue.claim(
            self.unresolved, 1 if self.jobs == 1 else self._budget()
        )
        self.stats.claimed += len(leases)
        self.stats.reclaimed += sum(lease.reclaimed for lease in leases)
        return {lease.key: lease for lease in leases}

    def _warm(self) -> None:
        """Compute the alone baselines of the pending jobs within the
        budget across the drain's workers."""
        keys = self.unresolved[: self._budget()]
        pool.warm_baselines(
            [sim_job(self.by_key[key], self.trace, self.cache_dir) for key in keys],
            self.jobs,
        )

    def run(self) -> WorkerStats:
        if self.jobs > 1:
            self._warm()
        idle_logged = False
        while self.unresolved and self._budget() != 0:
            self._reclaim()
            self._settle_foreign()
            if not self.unresolved:
                break
            held = self._claim()
            if held:
                idle_logged = False
                self._run(held)
                continue
            # Everything left is done (settled next pass) or leased to a
            # live peer: wait for them — their lease expiry is our upper
            # bound — or leave if asked not to.
            if not self.wait_for_peers:
                self.stats.left_leased += len(self.unresolved)
                logger.info(
                    "worker %s: %d jobs still leased to peers; leaving",
                    self.queue.worker_id,
                    len(self.unresolved),
                )
                break
            if not idle_logged:
                idle_logged = True
                logger.info(
                    "worker %s: waiting on %d jobs leased to peers",
                    self.queue.worker_id,
                    len(self.unresolved),
                )
            time.sleep(self.poll_s)
        return self.stats

    def _run(self, held: dict[str, Lease]) -> None:
        """Run the claimed jobs through the shared executor; ``held``
        keeps the leases of the jobs not yet resolved."""
        frozen = {key for key in held if self._frozen(key)}
        attempts = dict.fromkeys(held, 0)

        def on_result(key: str, value: tuple[WorkloadResult, float, int]) -> None:
            lease = held.pop(key, None)
            if lease is None:
                self.stats.lost += 1
                return
            result, wall, worker_pid = value
            self._commit(lease, result, wall, attempts[key], worker_pid)

        def on_error(key: str, error: Exception) -> bool:
            lease = held.get(key)
            if lease is None:
                self.stats.lost += 1
                return False
            renewed = self._after_error(lease, error, attempts[key])
            if renewed is None:
                del held[key]
                return False
            held[key] = renewed
            attempts[key] += 1
            return True

        def on_requeue(keys: list[str]) -> list[str]:
            # Drop anything whose lease was lost while the pool was broken.
            keys = [key for key in keys if key in held]
            self.stats.requeued += len(keys)
            return keys

        def renew() -> None:
            for key, lease in list(held.items()):
                if key in frozen:
                    continue
                renewed = self.queue.heartbeat(lease)
                if renewed is not None:
                    held[key] = renewed
                    continue
                del held[key]
                logger.warning(
                    "worker %s: lease on %s reclaimed mid-run",
                    self.queue.worker_id,
                    key[:12],
                )

        try:
            if self.chaos is not None:
                # A leasekill fault strikes right after the claim: a
                # top-level worker exits, an in-process drain charges it
                # to the job's first attempt.
                for key in list(held):
                    try:
                        self.chaos.maybe_kill_leaseholder(key, hard=self.hard_kill)
                    except ChaosInjectedError as exc:
                        on_error(key, exc)
            pool.run_tasks(
                pool.run_job_timed,
                {
                    key: (sim_job(self.by_key[key], self.trace, self.cache_dir),)
                    for key in held
                },
                self.jobs,
                on_result=on_result,
                on_error=on_error,
                on_requeue=on_requeue,
                timeout_s=self.job_timeout_s,
                beat=renew,
                beat_s=self.heartbeat_s,
            )
        except KeyboardInterrupt:
            # Hand the unfinished jobs straight back to the queue instead
            # of making peers wait out the leases.
            for lease in held.values():
                self.queue.release(lease)
            logger.error(
                "campaign interrupted: %d results committed, %d leases "
                "released (resume with `repro campaign resume`)",
                self.stats.completed,
                len(held),
            )
            raise


def drain_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    keys: Sequence[str] | None = None,
    stored: int = 0,
    probe: Probe | None = None,
    worker_id: str | None = None,
    jobs: int = 1,
    lease_s: float | None = None,
    heartbeat_s: float | None = None,
    poll_s: float = 0.5,
    retries: int = 2,
    backoff_s: float = 0.5,
    job_timeout_s: float | None = None,
    chaos: ChaosPlan | None = None,
    hard_kill: bool = False,
    wait_for_peers: bool = True,
    max_jobs: int | None = None,
    trace: TraceConfig | None = None,
    cache_dir: str | None = "auto",
    clock: Callable[[], float] = time.time,
    metrics: RunMetrics | None = None,
) -> WorkerStats:
    """Drain ``spec``'s runnable jobs from ``store`` as one worker.

    Without ``keys`` the drain registers the grid and reads its statuses
    itself (``campaign work``).  ``keys`` hands it the runnable jobs, in
    grid order, that the caller just read from the store
    (:func:`~repro.campaign.orchestrator.run_campaign`, after
    ``--limit``), with ``stored`` the count of grid cells already done;
    the drain trusts both and reads no statuses up front.  ``probe``
    receives one ``campaign.job`` event per resolved job.

    ``jobs`` fans execution over a local process pool while
    claims/heartbeats/commits stay in this process; with more than one,
    the drain first warms the alone baselines of the jobs it may run.
    ``chaos`` is exported to ``REPRO_CHAOS`` for the drain and set on the
    store.  ``hard_kill`` marks a top-level ``campaign work`` process:
    chaos ``leasekill`` faults exit hard (leaving the lease to expire)
    instead of counting as the job's first failed attempt.
    ``wait_for_peers=False`` returns as soon as every remaining job is
    leased to a live peer instead of polling until they settle.
    ``max_jobs`` bounds how many jobs this call resolves locally.  A
    drain that returns folds what its run counted into the campaign row:
    ``metrics`` when the caller started the run earlier, else what the
    process counted since the drain began.
    """
    if chaos is not None:
        store.chaos = chaos
    with chaos.exported() if chaos is not None else nullcontext():
        drain = _Drain(
            spec,
            store,
            keys=keys,
            stored=stored,
            probe=probe,
            worker_id=worker_id,
            jobs=jobs,
            lease_s=lease_s,
            heartbeat_s=heartbeat_s,
            poll_s=poll_s,
            retries=retries,
            backoff_s=backoff_s,
            job_timeout_s=job_timeout_s,
            chaos=chaos,
            hard_kill=hard_kill,
            wait_for_peers=wait_for_peers,
            max_jobs=max_jobs,
            trace=trace,
            cache_dir=cache_dir,
            clock=clock,
            metrics=metrics,
        )
        stats = drain.run()
    store.fold_metrics(
        spec.fingerprint(),
        drain.metrics,
        registered=drain.total,
        skipped=drain.stored + stats.foreign_done,
        failed=stats.failed,
        retried=stats.retried,
        requeued=stats.requeued,
    )
    return stats
