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

The loop per iteration: reclaim expired leases (dead/hung peers), settle
keys that peers finished, claim runnable jobs in grid order (the serial
drain one at a time, the pool drain all of them in one transaction), and
execute each under a heartbeat — the simulator's watchdog checkpoint
renews the lease mid-simulation via :func:`repro.sim.pool.sim_progress`,
so a lease outlives any job whose worker is actually alive.  Completion
is fenced by :meth:`LeaseQueue.complete`: if this worker was presumed
dead and its job reclaimed, the commit is rejected and the job's fate
belongs to the reclaiming peer (``lost`` in :class:`WorkerStats`).

Job-level failures are retried locally with capped exponential backoff
(``retries`` attempts, one policy for the serial and the pool drain).
With ``jobs > 1`` the claimed batch runs through the shared process-pool
executor (:func:`repro.sim.pool.run_tasks`), which owns the pool
generations, no-progress timeouts, respawns and the in-process fallback;
this module supplies the fenced commit, the retry policy, lease renewal
as the executor's beat, and the release of held leases on ``Ctrl-C``.

The drain owns the run's bookkeeping for both entry points: its
:class:`WorkerStats` is what the orchestrator's ``RunStats`` is built
from, it logs each ``N/M done`` line and emits the ``campaign.job``
trace events, and at the end it folds the process's counters into the
campaign row (:meth:`ResultStore.fold_metrics`).
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..config import baseline_system
from ..guard.chaos import ChaosPlan
from ..metrics.summary import WorkloadResult
from ..obs.config import TraceConfig
from ..obs.metrics import metrics_from_env
from ..sim import pool
from ..sim.pool import SimJob
from .queue import Lease, LeaseQueue, default_heartbeat_s
from .spec import CampaignJob, CampaignSpec
from .store import ResultStore

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.trace import Probe

__all__ = ["LeaseLost", "WorkerStats", "drain_campaign"]

logger = logging.getLogger(__name__)

_MAX_BACKOFF_S = 8.0


class LeaseLost(RuntimeError):
    """This worker's lease was reclaimed mid-job: abandon the job (its
    fate belongs to whoever holds the live lease now)."""


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
    lost: int = 0  # jobs abandoned mid-run (lease reclaimed)
    foreign_done: int = 0  # jobs a peer completed while we drained
    failed_elsewhere: int = 0  # jobs a peer failed while we waited
    left_leased: int = 0  # jobs still leased to live peers at exit

    def resolved(self) -> int:
        return self.completed + self.failed


def sim_job(job: CampaignJob, trace: TraceConfig, cache_dir: str | None) -> SimJob:
    """The picklable pool description of one grid cell."""
    return SimJob(
        config=baseline_system(job.num_cores),
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
    """One worker's drain of one campaign (state shared by the serial and
    pool paths)."""

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
    ) -> None:
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
            registry = metrics_from_env()
            if registry is not None:
                registry.counter("campaign.jobs_ran").inc()
                registry.histogram("campaign.job_wall_s").observe(wall)
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

    # -- one leased execution (serial / fallback path) ------------------------
    def _heartbeat_tick(self, lease_box: list[Lease], frozen: bool):
        next_beat = [time.monotonic() + self.heartbeat_s]

        def tick(_events: int) -> None:
            if frozen:
                return
            now = time.monotonic()
            if now < next_beat[0]:
                return
            renewed = self.queue.heartbeat(lease_box[0])
            if renewed is None:
                raise LeaseLost(lease_box[0].key)
            lease_box[0] = renewed
            next_beat[0] = now + self.heartbeat_s

        return tick

    def _run_leased(self, lease: Lease) -> None:
        """Execute one claimed job with local retries, heartbeats, and a
        fenced commit.  Resolves the key unless the lease was lost."""
        job = self.by_key[lease.key]
        sim = sim_job(job, self.trace, self.cache_dir)
        lease_box = [lease]
        tick = self._heartbeat_tick(lease_box, self._frozen(lease.key))
        for attempt in range(self.retries + 1):
            try:
                if self.chaos is not None:
                    self.chaos.maybe_kill_leaseholder(
                        lease.key, hard=self.hard_kill
                    )
                with pool.sim_progress(tick):
                    result, wall, worker_pid = pool.run_job_timed(sim)
            except LeaseLost:
                self.stats.lost += 1
                logger.warning(
                    "worker %s: lease on %s reclaimed mid-run; abandoning",
                    self.queue.worker_id,
                    lease.key[:12],
                )
                return
            except KeyboardInterrupt:
                # Best-effort: hand the job straight back to the queue
                # instead of making peers wait out the lease.
                self.queue.release(lease_box[0])
                raise
            except Exception as exc:
                renewed = self._after_error(lease_box[0], exc, attempt)
                if renewed is None:
                    return
                lease_box[0] = renewed
            else:
                self._commit(lease_box[0], result, wall, attempt, worker_pid)
                return

    # -- the drain loop ---------------------------------------------------------
    def _claim(self, pooled: bool) -> dict[str, Lease]:
        """Claim runnable jobs in grid order: as many as the budget allows
        in one transaction for the pool drain, the next one for the
        serial drain."""
        if pooled:
            leases = self.queue.claim(self.unresolved, self._budget())
        else:
            lease = self.queue.claim_next(self.unresolved)
            leases = [lease] if lease is not None else []
        self.stats.claimed += len(leases)
        self.stats.reclaimed += sum(lease.reclaimed for lease in leases)
        return {lease.key: lease for lease in leases}

    def run(self) -> WorkerStats:
        budget = self._budget()
        work = len(self.unresolved)
        pooled = self.jobs > 1 and (work if budget is None else min(budget, work)) > 1
        idle_logged = False
        while self.unresolved and self._budget() != 0:
            self._reclaim()
            self._settle_foreign()
            if not self.unresolved:
                break
            held = self._claim(pooled)
            if held:
                idle_logged = False
                if pooled:
                    self._run_held(held)
                else:
                    self._run_leased(*held.values())
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

    # -- pool drain -----------------------------------------------------------
    def _run_held(self, held: dict[str, Lease]) -> None:
        """Run the claimed jobs over the shared pool executor; ``held``
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

        def fallback(keys: list[str]) -> None:
            for key in keys:
                self._run_leased(held.pop(key))

        try:
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
                fallback=fallback,
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
    claims/heartbeats/commits stay in this process.  ``chaos`` is
    exported to ``REPRO_CHAOS`` for the drain and set on the store.
    ``hard_kill`` marks a top-level ``campaign work`` process: chaos
    ``leasekill`` faults exit hard (leaving the lease to expire) instead
    of raising.  ``wait_for_peers=False`` returns as soon as every
    remaining job is leased to a live peer instead of polling until they
    settle.  ``max_jobs`` bounds how many jobs this call resolves
    locally, serial or pooled.  A drain that returns folds this
    process's counters into the campaign row.
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
        )
        stats = drain.run()
    store.fold_metrics(
        spec.fingerprint(),
        registered=drain.total,
        skipped=drain.stored + stats.foreign_done,
        failed=stats.failed,
        retried=stats.retried,
        requeued=stats.requeued,
    )
    return stats
