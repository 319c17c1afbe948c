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
(``retries`` attempts, exactly the old orchestrator semantics); pool
generations, no-progress timeouts, respawns and the serial fallback are
ported intact from the pre-queue orchestrator for ``jobs > 1``.
"""

from __future__ import annotations

import logging
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..config import baseline_system
from ..guard.chaos import ChaosPlan
from ..metrics.summary import WorkloadResult
from ..obs.config import TraceConfig
from ..obs.metrics import metrics_from_env
from ..sim import pool
from ..sim.pool import POOL_INCIDENT_LIMIT, SimJob, terminate_pool
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


def _sim_job(job: CampaignJob, trace: TraceConfig, cache_dir: str | None) -> SimJob:
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

    def _retrying(self, key: str, attempt: int) -> None:
        self.stats.retried += 1
        self.store.record_progress(key, attempt, None, "retrying")
        if self.cb.on_retrying is not None:
            self.cb.on_retrying(self.by_key[key], attempt)

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
        sim = _sim_job(job, self.trace, self.cache_dir)
        frozen = self.chaos is not None and self.chaos.freeze_heartbeats(lease.key)
        if frozen:
            logger.warning(
                "chaos: freezing heartbeats for %s on %s",
                lease.key[:12],
                self.queue.worker_id,
            )
        lease_box = [lease]
        tick = self._heartbeat_tick(lease_box, frozen)
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
                if attempt >= self.retries:
                    self._give_up(lease_box[0], exc, attempt)
                    return
                self._retrying(lease.key, attempt)
                time.sleep(min(self.backoff_s * (2**attempt), _MAX_BACKOFF_S))
                # The lease may be near expiry after the backoff; a fenced
                # renewal here means the job is no longer ours to retry.
                renewed = self.queue.heartbeat(lease_box[0])
                if renewed is None:
                    self.stats.lost += 1
                    return
                lease_box[0] = renewed
            else:
                self._commit(lease_box[0], result, wall, attempt, worker_pid)
                return

    # -- serial drain ---------------------------------------------------------
    def _drain_serial(self) -> None:
        idle_logged = False
        while self.unresolved and self._budget_left():
            self._reclaim()
            self._settle_foreign()
            if not self.unresolved:
                break
            lease = self.queue.claim_next(self.unresolved)
            if lease is not None:
                idle_logged = False
                self.stats.claimed += 1
                self._run_leased(lease)
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
                return
            if not idle_logged:
                idle_logged = True
                logger.info(
                    "worker %s: waiting on %d jobs leased to peers",
                    self.queue.worker_id,
                    len(self.unresolved),
                )
            time.sleep(self.poll_s)

    # -- pool drain (ported generational machinery) ---------------------------
    def _claim_all(self) -> dict[str, Lease]:
        leases = self.queue.claim(self.unresolved)
        self.stats.claimed += len(leases)
        return {lease.key: lease for lease in leases}

    def _renew_held(self, held: dict[str, Lease], frozen: set[str]) -> list[str]:
        """Renew every held lease; returns keys fenced out (lost)."""
        lost: list[str] = []
        for key, lease in list(held.items()):
            if key in frozen:
                continue
            renewed = self.queue.heartbeat(lease)
            if renewed is None:
                lost.append(key)
                del held[key]
            else:
                held[key] = renewed
        return lost

    def _drain_pool(self) -> None:
        while self.unresolved and self._budget_left():
            self._reclaim()
            self._settle_foreign()
            if not self.unresolved:
                break
            held = self._claim_all()
            if not held:
                if not self.wait_for_peers:
                    self.stats.left_leased += len(self.unresolved)
                    return
                time.sleep(self.poll_s)
                continue
            frozen: set[str] = set()
            if self.chaos is not None:
                for key in held:
                    if self.chaos.freeze_heartbeats(key):
                        frozen.add(key)
                        logger.warning(
                            "chaos: freezing heartbeats for %s on %s",
                            key[:12],
                            self.queue.worker_id,
                        )
            self._pool_generations(held, frozen)

    def _pool_generations(self, held: dict[str, Lease], frozen: set[str]) -> None:
        """Run the held jobs over pool generations with incident recovery
        — the pre-queue orchestrator's machinery, minus result commits
        (those go through the fenced queue) plus lease renewal."""
        remaining: list[tuple[str, int]] = [(key, 0) for key in held]
        incidents = 0
        while remaining:
            if incidents >= POOL_INCIDENT_LIMIT:
                pool.POOL_STATS["serial_fallbacks"] += 1
                logger.warning(
                    "worker pool failed %d times; running %d unfinished jobs "
                    "serially",
                    incidents,
                    len(remaining),
                )
                for key, _attempt in remaining:
                    lease = held.pop(key, None)
                    if lease is None:
                        continue
                    self._run_leased(lease)
                return
            executor = ProcessPoolExecutor(
                max_workers=min(self.jobs, len(remaining))
            )
            inflight: dict[Future, tuple[str, int, float]] = {}
            requeue: list[tuple[str, int]] = []
            broken: str | None = None

            def submit(key: str, attempt: int) -> bool:
                job = self.by_key[key]
                try:
                    future = executor.submit(
                        pool.run_job_timed,
                        _sim_job(job, self.trace, self.cache_dir),
                    )
                except BrokenProcessPool:
                    requeue.append((key, attempt))
                    return False
                inflight[future] = (key, attempt, time.perf_counter())
                return True

            try:
                for position, (key, attempt) in enumerate(remaining):
                    if not submit(key, attempt):
                        requeue.extend(remaining[position + 1 :])
                        broken = "pool broken at submit"
                        break
                next_beat = time.monotonic() + self.heartbeat_s
                progress_deadline = (
                    time.monotonic() + self.job_timeout_s
                    if self.job_timeout_s is not None
                    else None
                )
                while inflight and broken is None:
                    now = time.monotonic()
                    timeout = next_beat - now
                    if progress_deadline is not None:
                        timeout = min(timeout, progress_deadline - now)
                    finished, _pending = wait(
                        inflight,
                        timeout=max(0.01, timeout),
                        return_when=FIRST_COMPLETED,
                    )
                    now = time.monotonic()
                    if now >= next_beat:
                        for key in self._renew_held(held, frozen):
                            logger.warning(
                                "worker %s: lease on %s reclaimed mid-run",
                                self.queue.worker_id,
                                key[:12],
                            )
                        next_beat = now + self.heartbeat_s
                    if not finished:
                        if (
                            progress_deadline is not None
                            and now >= progress_deadline
                        ):
                            pool.POOL_STATS["timeouts"] += 1
                            broken = (
                                f"no job finished within "
                                f"{self.job_timeout_s:g}s (pool presumed hung)"
                            )
                            break
                        continue
                    if progress_deadline is not None:
                        progress_deadline = now + self.job_timeout_s
                    for future in finished:
                        key, attempt, _started = inflight.pop(future)
                        try:
                            result, wall, worker_pid = future.result()
                        except BrokenProcessPool:
                            requeue.append((key, attempt))
                            broken = "worker died"
                        except Exception as exc:
                            lease = held.get(key)
                            if lease is None:
                                self.stats.lost += 1
                                continue
                            if attempt >= self.retries:
                                self._give_up(lease, exc, attempt)
                                held.pop(key, None)
                                continue
                            self._retrying(key, attempt)
                            time.sleep(
                                min(
                                    self.backoff_s * (2**attempt),
                                    _MAX_BACKOFF_S,
                                )
                            )
                            renewed = self.queue.heartbeat(lease)
                            if renewed is None:
                                self.stats.lost += 1
                                held.pop(key, None)
                                continue
                            held[key] = renewed
                            submit(key, attempt + 1)
                        else:
                            lease = held.pop(key, None)
                            if lease is None:
                                self.stats.lost += 1
                                continue
                            self._commit(lease, result, wall, attempt, worker_pid)
            except KeyboardInterrupt:
                terminate_pool(executor)
                for lease in held.values():
                    self.queue.release(lease)
                logger.error(
                    "campaign interrupted: %d results committed, %d jobs "
                    "dropped (resume with `repro campaign resume`)",
                    self.stats.completed,
                    len(inflight),
                )
                raise
            except BaseException:
                terminate_pool(executor)
                raise
            if broken is None and not requeue:
                executor.shutdown()
                return
            terminate_pool(executor)
            incidents += 1
            pool.POOL_STATS["respawns"] += 1
            remaining = requeue + [
                (key, attempt) for key, attempt, _started in inflight.values()
            ]
            # Drop anything whose lease we lost while the pool was broken.
            remaining = [entry for entry in remaining if entry[0] in held]
            self.stats.requeued += len(remaining)
            if self.cb.on_requeued is not None:
                self.cb.on_requeued(len(remaining))
            logger.warning(
                "worker pool incident (%s); respawning pool for %d unfinished "
                "jobs",
                broken or "submit failure",
                len(remaining),
            )

    # -- entry ----------------------------------------------------------------
    def run(self) -> WorkerStats:
        if self.jobs <= 1 or len(self.unresolved) <= 1:
            self._drain_serial()
        else:
            self._drain_pool()
        return self.stats


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
