"""Process-parallel experiment engine.

Every paper figure is an aggregate over *independent* (workload ×
scheduler) simulations, so experiment throughput scales with cores: this
module fans :class:`SimJob` descriptions out over a
:class:`~concurrent.futures.ProcessPoolExecutor` and merges results
deterministically.

Determinism contract: a job description pins everything a simulation
depends on (system configuration, workload, scheduler name + kwargs,
seed, instruction count), every simulation is a pure function of its job
(seeded RNGs, no wall-clock or ``hash()`` dependence), and results are
returned in submission order — so parallel output is bit-identical to
serial output regardless of worker count or completion order.

Worker processes keep one :class:`~repro.sim.runner.ExperimentRunner`
per distinct (config, instructions, seed, cache_dir) so trace and
alone-run caches are reused across the jobs a worker services; the
persistent on-disk cache (:mod:`repro.sim.diskcache`) shares alone-run
baselines and generated traces across workers and across repeated runs.

The worker count comes from ``--jobs N`` on the CLI, the ``REPRO_JOBS``
environment variable, or the ``jobs=`` argument; the default of 1 keeps
the serial path byte-for-byte unchanged.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    as_completed,
    wait,
)
from contextlib import contextmanager
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Sequence

from ..config import SystemConfig
from ..envknobs import read_int, read_optional_float
from ..guard.chaos import ChaosInjectedError, chaos_from_env
from ..obs.config import TraceConfig
from .diskcache import GLOBAL_STATS, DiskCache, content_key
from .verify import backend_from_env

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult
    from .runner import ExperimentRunner

__all__ = [
    "JOB_STATS",
    "POOL_INCIDENT_LIMIT",
    "POOL_STATS",
    "SimJob",
    "default_job_timeout",
    "default_jobs",
    "run_job",
    "run_job_timed",
    "run_jobs",
    "sim_progress",
    "terminate_pool",
    "warm_baselines",
]

logger = logging.getLogger(__name__)

# Count of simulations actually executed by this process (serial path and
# pool workers each count their own).  The campaign resume tests read this
# to prove that a resumed run re-simulates only the missing jobs.
JOB_STATS = {"executed": 0}

# Operational counters of this process's pool management (submitting side:
# respawns after incidents, no-progress timeouts, falls back to serial).
# Folded into the metrics plane by
# :func:`repro.obs.metrics.collect_process_metrics`.
POOL_STATS = {"respawns": 0, "serial_fallbacks": 0, "timeouts": 0}

# After this many pool incidents (worker deaths, no-progress timeouts) the
# engine stops respawning pools and runs the survivors serially.
POOL_INCIDENT_LIMIT = 2


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    return read_int("REPRO_JOBS", 1, floor=1)


def default_job_timeout() -> float | None:
    """Per-job no-progress timeout in seconds from ``REPRO_JOB_TIMEOUT_S``
    (``None`` = no timeout).  Applied to pool and campaign workers: if no
    job completes within the window the pool is presumed hung, its workers
    are terminated, and the unfinished jobs are retried."""
    return read_optional_float("REPRO_JOB_TIMEOUT_S", floor=0.1)


@dataclass(frozen=True)
class SimJob:
    """A picklable description of one independent simulation.

    ``scheduler`` is a factory name (see :mod:`repro.sim.factory`), not a
    scheduler instance, so the job can cross a process boundary and the
    worker builds fresh, unshared scheduler state.
    """

    config: SystemConfig
    workload: tuple[str, ...]
    scheduler: str
    scheduler_kwargs: dict[str, Any] = field(default_factory=dict)
    instructions: int = 0
    seed: int = 0
    cache_dir: str | None = None  # None disables the on-disk cache
    # Observability settings travel with the job so pool workers write the
    # same per-job trace files a serial run would (None = tracing off).
    trace: TraceConfig | None = None
    # Simulation backend ("python", "fast" or "verify"): pinned by the
    # submitting runner so serial and pooled execution agree even when a
    # worker's environment differs; None resolves REPRO_BACKEND.
    backend: str | None = None
    # External trace wiring: sorted (alias, path) pairs for ``trace:``
    # workload entries, plus the address-decoder spec applied to them.
    # Tuples (not dicts) keep the job hashable and deterministic.
    trace_files: tuple[tuple[str, str], ...] = ()
    decoder: str = "dramsim2"

    def runner_key(self) -> str:
        """Content hash of everything that parameterizes the runner."""
        return content_key(
            [
                self.config,
                self.instructions,
                self.seed,
                self.cache_dir,
                self.trace,
                self.backend,
                self.trace_files,
                self.decoder,
            ]
        )


# One runner per distinct job parameterization, per worker process:
# reusing a runner lets a worker share generated traces and alone-run
# baselines across all the jobs it services.
_WORKER_RUNNERS: dict[str, "ExperimentRunner"] = {}


def _new_runner(job: SimJob) -> "ExperimentRunner":
    from .runner import ExperimentRunner

    return ExperimentRunner(
        job.config,
        instructions=job.instructions or None,
        seed=job.seed,
        jobs=1,  # workers never fan out further
        cache_dir=job.cache_dir,
        # An unset trace field means "off", not "resolve from env":
        # the submitting runner already resolved the environment.
        trace=job.trace if job.trace is not None else TraceConfig(),
        backend=job.backend,
        trace_files=dict(job.trace_files),
        decoder=job.decoder,
    )


def _runner_for(job: SimJob) -> "ExperimentRunner":
    key = job.runner_key()
    runner = _WORKER_RUNNERS.get(key)
    if runner is None:
        runner = _WORKER_RUNNERS[key] = _new_runner(job)
    return runner


def job_chaos_key(job: SimJob) -> str:
    """Stable fault-injection key for one job (what the job *simulates*,
    not how it is cached/traced, so serial and pooled runs agree)."""
    return content_key(
        [
            job.config,
            list(job.workload),
            job.scheduler,
            sorted(job.scheduler_kwargs.items()),
            job.instructions,
            job.seed,
        ]
    )


@contextmanager
def sim_progress(callback):
    """Install ``callback(events)`` as the simulator's long-run progress
    hook for the duration of the block, restoring the previous hook on
    exit.

    The hook fires at the simulator watchdog checkpoint (every
    ``_WATCHDOG_CHECK_EVENTS`` events, i.e. a few times per second of
    wall time), which is what campaign workers use to renew work-queue
    lease heartbeats *while* a long simulation runs — not just between
    jobs.  Exceptions raised by the callback propagate out of the
    simulation like any simulation error (the lease-lost abort path).
    """
    from . import system as _system

    previous = _system.PROGRESS_HOOK
    _system.PROGRESS_HOOK = callback
    try:
        yield
    finally:
        _system.PROGRESS_HOOK = previous


def preload_simulator(backend: str | None = None) -> None:
    """Import the simulator in a process about to fork a worker pool.

    Forked workers inherit every module loaded before the fork; without
    this, each worker would import the runner (and, on the fast and
    verify backends, the fast kernel) again on its first job.
    """
    from . import runner  # noqa: F401

    if (backend or backend_from_env()) != "python":
        from ..dram import fastctl  # noqa: F401


def run_job(job: SimJob) -> "WorkloadResult":
    """Execute one job (also the in-process serial fallback path)."""
    chaos = chaos_from_env()
    if chaos is not None:
        # Fault injection: a selected job kills/hangs its worker process
        # (or raises ChaosInjectedError when running in-process) — once.
        chaos.maybe_kill_worker(job_chaos_key(job))
    runner = _runner_for(job)
    JOB_STATS["executed"] += 1
    return runner.run_workload(
        list(job.workload), job.scheduler, **job.scheduler_kwargs
    )


def run_job_timed(job: SimJob) -> tuple["WorkloadResult", float, int]:
    """:func:`run_job` plus worker-measured wall time and worker pid.

    The picklable triple the campaign orchestrator submits so progress
    rows carry timings measured where the simulation actually ran (the
    parent's submit-to-result window includes queueing and pickling).
    """
    start = time.perf_counter()
    result = run_job(job)
    return result, time.perf_counter() - start, os.getpid()


def run_jobs(
    jobs: Sequence[SimJob],
    workers: int | None = None,
    job_timeout_s: float | None = None,
) -> list["WorkloadResult"]:
    """Run ``jobs``, fanning out over ``workers`` processes.

    Results are returned in submission order.  With ``workers <= 1`` (or
    a single job) everything runs in-process, bypassing the pool.

    The parallel path degrades gracefully: a broken pool (worker killed
    by the OS, the OOM killer, or chaos injection) or a no-progress
    timeout (``job_timeout_s`` / ``REPRO_JOB_TIMEOUT_S``) terminates the
    surviving workers, respawns a fresh pool, and retries only the
    unfinished jobs; after :data:`POOL_INCIDENT_LIMIT` incidents the
    survivors run serially.  Completed results are never lost, and
    determinism is preserved — retried jobs are pure functions of their
    description.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_jobs()
    if job_timeout_s is None:
        job_timeout_s = default_job_timeout()
    if workers <= 1 or len(jobs) <= 1:
        results = [run_job(job) for job in jobs]
        _log_cache_report()
        return results
    workers = min(workers, len(jobs))
    logger.info("running %d simulations over %d worker processes", len(jobs), workers)
    results = _run_pool(jobs, workers, job_timeout_s)
    _log_cache_report()
    return results


def _warm_alone(job: SimJob, benchmark: str) -> dict[str, int]:
    """Compute one alone-run baseline of ``job``'s parameterization into
    the disk cache; returns the task's disk-cache counter deltas."""
    runner = _runner_for(job)
    disk = runner.disk_cache
    assert disk is not None
    before = disk.stats()
    runner.alone(benchmark)
    return {name: count - before[name] for name, count in disk.stats().items()}


def warm_baselines(
    jobs: Sequence[SimJob],
    workers: int,
    runner: "ExperimentRunner | None" = None,
) -> None:
    """Compute the alone-run baselines ``jobs`` need into the disk cache,
    spread over ``workers`` processes, before the jobs themselves run.

    The jobs of a batch read the same single-core baselines; without
    this, each worker would recompute them.  Jobs with one
    parameterization share baselines.  This process checks the disk
    cache for each distinct one, through ``runner`` (the calling runner,
    whose parameterization every job shares) or else a fresh runner per
    parameterization, and sends only the missing ones to a short-lived
    pool, so a warm cache forks nothing.  Each task's cache counters are
    added to the checking runner's cache and to ``GLOBAL_STATS``.

    A baseline's own exception propagates unchanged.  A broken pool (a
    worker died) is logged and tolerated: the jobs then compute any
    baseline still missing under their own retry and incident handling.
    Jobs without a disk cache have nothing to share and are skipped.
    """
    groups: dict[tuple, tuple[SimJob, dict[str, None]]] = {}
    for job in jobs:
        if job.cache_dir is None:
            continue
        key = (
            job.config,
            job.instructions,
            job.seed,
            job.cache_dir,
            job.backend,
            job.trace_files,
            job.decoder,
        )
        groups.setdefault(key, (job, {}))[1].update(dict.fromkeys(job.workload))
    missing: list[tuple[SimJob, str, DiskCache]] = []
    for job, benchmarks in groups.values():
        checker = runner if runner is not None else _new_runner(job)
        disk = checker.disk_cache
        assert disk is not None
        missing.extend(
            (job, benchmark, disk)
            for benchmark in benchmarks
            if checker.cached_alone(benchmark) is None
        )
    if not missing:
        return
    logger.info(
        "computing %d alone baselines over %d worker processes",
        len(missing),
        min(workers, len(missing)),
    )
    preload_simulator(missing[0][0].backend)
    executor = ProcessPoolExecutor(max_workers=min(workers, len(missing)))
    try:
        futures = {
            executor.submit(_warm_alone, job, benchmark): disk
            for job, benchmark, disk in missing
        }
        for future in as_completed(futures):
            disk = futures[future]
            for name, delta in future.result().items():
                setattr(disk, name, getattr(disk, name) + delta)
                GLOBAL_STATS[name] += delta
    except BrokenProcessPool as exc:
        terminate_pool(executor)
        logger.warning(
            "baseline pool broke (%s); jobs compute missing baselines themselves",
            exc,
        )
        return
    except BaseException:
        terminate_pool(executor)
        raise
    executor.shutdown()


class _PoolIncident(Exception):
    """Internal: the worker pool broke or stopped making progress."""


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down without leaving orphaned workers: cancel queued
    work, terminate live processes, then release executor resources."""
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    for process in list(processes.values()):
        try:
            process.join(timeout=5.0)
        except Exception:  # pragma: no cover - defensive
            pass


def _run_pool(
    jobs: list[SimJob], workers: int, timeout_s: float | None
) -> list["WorkloadResult"]:
    results: dict[int, "WorkloadResult"] = {}
    remaining = list(range(len(jobs)))
    incidents = 0
    while remaining:
        try:
            _pool_pass(jobs, remaining, workers, timeout_s, results)
        except _PoolIncident as incident:
            incidents += 1
            if "presumed hung" in str(incident):
                POOL_STATS["timeouts"] += 1
            remaining = [i for i in remaining if i not in results]
            if incidents >= POOL_INCIDENT_LIMIT:
                POOL_STATS["serial_fallbacks"] += 1
                logger.warning(
                    "worker pool failed %d times (%s); running %d unfinished "
                    "jobs serially",
                    incidents,
                    incident,
                    len(remaining),
                )
                for index in remaining:
                    try:
                        results[index] = run_job(jobs[index])
                    except ChaosInjectedError:
                        # The injection marker fired before the raise, so
                        # one retry runs clean.
                        results[index] = run_job(jobs[index])
                remaining = []
            else:
                POOL_STATS["respawns"] += 1
                logger.warning(
                    "worker pool incident (%s); respawning pool for %d "
                    "unfinished jobs",
                    incident,
                    len(remaining),
                )
        else:
            remaining = [i for i in remaining if i not in results]
    return [results[i] for i in range(len(jobs))]


def _pool_pass(
    jobs: list[SimJob],
    indexes: list[int],
    workers: int,
    timeout_s: float | None,
    results: dict[int, "WorkloadResult"],
) -> None:
    """One pool lifetime: run ``indexes`` until done or the pool breaks.

    Completed results accumulate into ``results`` (so nothing finished is
    lost when the pool dies); a broken pool or a no-progress window
    raises :class:`_PoolIncident` after terminating every worker.
    """
    preload_simulator(jobs[indexes[0]].backend)
    pool = ProcessPoolExecutor(max_workers=min(workers, len(indexes)))
    try:
        futures = {pool.submit(run_job, jobs[i]): i for i in indexes}
        pending = set(futures)
        while pending:
            done, pending = wait(
                pending, timeout=timeout_s, return_when=FIRST_COMPLETED
            )
            if not done:
                raise _PoolIncident(
                    f"no simulation finished within {timeout_s:g}s; "
                    f"pool presumed hung"
                )
            for future in done:
                try:
                    results[futures[future]] = future.result()
                except BrokenProcessPool as exc:
                    raise _PoolIncident(f"worker died: {exc}") from None
        pool.shutdown()
    except _PoolIncident:
        terminate_pool(pool)
        raise
    except BrokenProcessPool as exc:
        # submit() on an already-broken pool raises directly.
        terminate_pool(pool)
        raise _PoolIncident(f"pool broken: {exc}") from None
    except KeyboardInterrupt:
        terminate_pool(pool)
        logger.error(
            "interrupted: %d/%d simulations completed (their artifacts "
            "are preserved in the disk cache)",
            len(results),
            len(jobs),
        )
        raise
    except BaseException:
        # A job's own exception (or anything unexpected): clean up the
        # workers, then let it propagate unchanged.
        terminate_pool(pool)
        raise


def _log_cache_report() -> None:
    """One-line disk-cache digest after a batch of jobs (submitting process
    only; worker-side hits stay in the workers)."""
    logger.info(
        "disk cache: %d hits, %d misses, %d writes, %d quarantined",
        GLOBAL_STATS["hits"],
        GLOBAL_STATS["misses"],
        GLOBAL_STATS["writes"],
        GLOBAL_STATS["quarantined"],
    )
