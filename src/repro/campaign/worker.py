"""The queue-consumer worker loop: drain one campaign through leases.

This is the execution half of the distributed campaign engine.  The
protocol half lives in :mod:`repro.campaign.queue`; this module turns it
into a drain loop that both entry points share:

* the in-process path — :func:`repro.campaign.orchestrator.run_campaign`
  delegates here, so a plain ``campaign run`` *is* a one-worker drain;
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
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass
class _Callbacks:
    """Optional notification hooks (the orchestrator's stats/probe glue)."""

    on_done: Callable[[CampaignJob, WorkloadResult, float, int, str], None] | None = None
    on_failed: Callable[[CampaignJob, BaseException, int], None] | None = None
    on_retrying: Callable[[CampaignJob, int], None] | None = None
    on_requeued: Callable[[int], None] | None = None
    on_foreign: Callable[[CampaignJob, str], None] | None = None


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
        callbacks: _Callbacks,
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
        self.cb = callbacks
        self.stats = WorkerStats(worker_id=self.queue.worker_id)

        grid = spec.expand()
        self.by_key = {job.key: job for job in grid}
        self.store.register(spec, grid)
        wanted = set(keys) if keys is not None else None
        statuses = store.statuses(job.key for job in grid)
        self.unresolved: list[str] = [
            job.key
            for job in grid
            if (wanted is None or job.key in wanted)
            and statuses.get(job.key) != "done"
        ]

    # -- bookkeeping ---------------------------------------------------------
    def _budget_left(self) -> bool:
        return self.max_jobs is None or self.stats.resolved() < self.max_jobs

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
            if self.cb.on_done is not None:
                self.cb.on_done(self.by_key[lease.key], result, wall, attempt, str(pid))
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
        if self.cb.on_failed is not None:
            self.cb.on_failed(self.by_key[lease.key], error, attempt)
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
        if self.cb.on_retrying is not None:
            self.cb.on_retrying(self.by_key[lease.key], attempt)
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
                if self.cb.on_foreign is not None:
                    self.cb.on_foreign(self.by_key[key], "done")

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
        """Claim runnable jobs in grid order: every one of them in one
        transaction for the pool drain, the next one for the serial drain."""
        if pooled:
            leases = self.queue.claim(self.unresolved)
        else:
            lease = self.queue.claim_next(self.unresolved)
            leases = [lease] if lease is not None else []
        self.stats.claimed += len(leases)
        self.stats.reclaimed += sum(lease.reclaimed for lease in leases)
        return {lease.key: lease for lease in leases}

    def run(self) -> WorkerStats:
        pooled = self.jobs > 1 and len(self.unresolved) > 1
        idle_logged = False
        while self.unresolved and self._budget_left():
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
            if self.cb.on_requeued is not None:
                self.cb.on_requeued(len(keys))
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
    on_done=None,
    on_failed=None,
    on_retrying=None,
    on_requeued=None,
    on_foreign=None,
    clock: Callable[[], float] = time.time,
) -> WorkerStats:
    """Drain ``spec``'s runnable jobs from ``store`` as one worker.

    ``keys`` restricts the drain to a subset of the grid (the
    orchestrator's ``--limit`` path); ``jobs`` fans execution over a
    local process pool while claims/heartbeats/commits stay in this
    process.  ``hard_kill`` marks a top-level ``campaign work`` process:
    chaos ``leasekill`` faults exit hard (leaving the lease to expire)
    instead of raising.  ``wait_for_peers=False`` returns as soon as
    every remaining job is leased to a live peer instead of polling
    until they settle.  ``max_jobs`` bounds how many jobs this call
    resolves locally (tests and smoke runs).
    """
    drain = _Drain(
        spec,
        store,
        keys=keys,
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
        callbacks=_Callbacks(
            on_done=on_done,
            on_failed=on_failed,
            on_retrying=on_retrying,
            on_requeued=on_requeued,
            on_foreign=on_foreign,
        ),
        clock=clock,
    )
    return drain.run()
