"""Process-parallel experiment engine.

Every paper figure is an aggregate over *independent* (workload ×
scheduler) simulations, so experiment throughput scales with cores: this
module fans :class:`SimJob` descriptions out over worker processes and
merges results deterministically.

:func:`run_tasks` is the one way a batch of tasks runs.  With one worker
or one task it runs them in this process, driving the caller's beat from
the simulator's progress hook.  Otherwise it owns a process pool's whole
lifetime: the simulator preload, one pool per generation (the
process-pool module is imported only when one starts), at most twice the
pool's size of tasks in flight, the wait loop with its no-progress
timeout and beat, teardown, respawn after an incident (a worker died, or
nothing finished in time), and the move to this process after
:data:`POOL_INCIDENT_LIMIT` incidents.  Either way every task's counts
land in the process registry (:data:`repro.obs.metrics.PROCESS`): a
pooled task carries the growth of its worker's counters home.  Its three
callers supply only what differs:

* :func:`run_jobs` (``ExperimentRunner.run_many``) collects results by
  index and retries an injected fault once;
* :func:`warm_baselines` computes alone baselines into the disk cache and
  gives up on the first incident, leaving the jobs to compute them;
* the campaign drain (:mod:`repro.campaign.worker`) commits each result
  through its fenced lease, retries failed jobs, and renews its leases on
  the beat.

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
environment variable, or the runner's ``jobs=`` argument; the default of
1 runs everything in this process.
"""

from __future__ import annotations

import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Callable, Hashable, Sequence

from ..config import SystemConfig
from ..envknobs import default_job_timeout, default_jobs
from ..guard.chaos import ChaosInjectedError, chaos_from_env
from ..obs.config import TraceConfig
from ..obs.metrics import PROCESS
from .diskcache import content_key
from .verify import backend_from_env

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor

    from ..metrics.summary import WorkloadResult
    from .runner import ExperimentRunner

__all__ = [
    "POOL_INCIDENT_LIMIT",
    "SimJob",
    "default_job_timeout",
    "default_jobs",
    "run_job",
    "run_job_timed",
    "run_jobs",
    "run_tasks",
    "sim_progress",
    "terminate_pool",
    "warm_baselines",
]

logger = logging.getLogger(__name__)

# After this many pool incidents (worker deaths, no-progress timeouts) the
# engine stops respawning pools and runs the survivors serially.
POOL_INCIDENT_LIMIT = 2


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
    wall time), which is how :func:`run_tasks` beats *while* a long
    simulation runs in this process — not just between tasks.
    Exceptions raised by the callback propagate out of the simulation
    like any simulation error.
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
    this, each worker would import the runner and the schedulers it loads
    (and, on the fast and verify backends, the fast kernel) again on its
    first job.
    """
    from . import runner  # noqa: F401

    if (backend or backend_from_env()) != "python":
        from ..dram import fastctl  # noqa: F401


def run_job(job: SimJob) -> "WorkloadResult":
    """Execute one job, in a pool worker or in this process."""
    chaos = chaos_from_env()
    if chaos is not None:
        # Fault injection: a selected job kills/hangs its worker process
        # (or raises ChaosInjectedError when running in-process) — once.
        chaos.maybe_kill_worker(job_chaos_key(job))
    runner = _runner_for(job)
    PROCESS.counter("pool.jobs_executed").inc()
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
    """Run ``jobs`` over ``workers`` processes (:func:`run_tasks`) and
    return their results in submission order.

    A broken pool or a no-progress timeout (``job_timeout_s`` /
    ``REPRO_JOB_TIMEOUT_S``) reruns only the unfinished jobs, in a new
    pool and finally in this process.  Completed results are never lost,
    and determinism is preserved — rerun jobs are pure functions of their
    description.  An injected fault raised in this process
    (:class:`ChaosInjectedError`) is retried once; any other exception a
    job raises propagates.
    """
    jobs = list(jobs)
    if workers is None:
        workers = default_jobs()
    if job_timeout_s is None:
        job_timeout_s = default_job_timeout()
    by_index: dict[int, "WorkloadResult"] = {}
    retried: set[int] = set()

    def retry_injected(index: int, error: Exception) -> bool:
        # The injection marker fired before the raise, so one retry runs
        # clean.
        if not isinstance(error, ChaosInjectedError) or index in retried:
            raise error
        retried.add(index)
        return True

    run_tasks(
        run_job,
        {index: (job,) for index, job in enumerate(jobs)},
        workers,
        on_result=by_index.__setitem__,
        on_error=retry_injected,
        timeout_s=job_timeout_s,
        backend=jobs[0].backend if jobs else None,
    )
    _log_cache_report()
    return [by_index[index] for index in range(len(jobs))]


def _warm_alone(job: SimJob, benchmark: str) -> None:
    """Compute one alone-run baseline of ``job``'s parameterization into
    the disk cache."""
    _runner_for(job).alone(benchmark)


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
    pool (one missing baseline runs in this process), so a warm cache
    forks nothing.  The workers' cache counts reach this process's
    registry with each task (see :func:`run_tasks`).

    A baseline's own exception propagates unchanged.  A broken pool (a
    worker died) is logged and tolerated: nothing is requeued, so there
    is no respawn and nothing runs in this process, and the jobs compute
    any baseline still missing under their own retry and incident
    handling.  Jobs without a disk cache have nothing to share and are
    skipped.
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
    missing: list[tuple[SimJob, str]] = []
    for job, benchmarks in groups.values():
        checker = runner if runner is not None else _new_runner(job)
        missing.extend(
            (job, benchmark)
            for benchmark in benchmarks
            if checker.cached_alone(benchmark) is None
        )
    if not missing:
        return
    logger.info("computing %d alone baselines", len(missing))

    def give_up(keys: list) -> list:
        logger.warning(
            "baseline pool broke; jobs compute %d missing baselines themselves",
            len(keys),
        )
        return []

    run_tasks(
        _warm_alone,
        dict(enumerate(missing)),
        workers,
        on_requeue=give_up,
        backend=missing[0][0].backend,
    )


def terminate_pool(pool: "ProcessPoolExecutor") -> None:
    """Tear a pool down without leaving orphaned workers: cancel queued
    work, terminate live processes, then release executor resources.

    Returns once every worker is reaped.  The executor's manager thread
    joins the same workers as it shuts down, and a join that loses that
    race returns before the winner has recorded the exit code, so each
    worker is polled until its exit code is set.
    """
    # shutdown() drops the executor's process table, so copy it first.
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - defensive
        pass
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    deadline = time.monotonic() + 5.0
    for process in processes:
        try:
            process.join(timeout=max(0.0, deadline - time.monotonic()))
            while process.exitcode is None and time.monotonic() < deadline:
                time.sleep(0.001)
        except Exception:  # pragma: no cover - defensive
            pass


def _discard(key: Hashable, value: Any) -> None:
    pass


def _reraise(key: Hashable, error: Exception) -> bool:
    raise error


def _counted(
    fn: Callable[..., Any], *args: Any
) -> tuple[Any, dict[str, int | float]]:
    """``fn(*args)`` in a pool worker, with the growth of the worker's
    registry counters during the call."""
    before = PROCESS.counts()
    value = fn(*args)
    return value, PROCESS.growth(before)


def run_tasks(
    fn: Callable[..., Any],
    tasks: dict[Hashable, tuple],
    workers: int,
    *,
    on_result: Callable[[Any, Any], None] = _discard,
    on_error: Callable[[Any, Exception], bool] = _reraise,
    on_requeue: Callable[[list], list] = list,
    timeout_s: float | None = None,
    beat: Callable[[], None] | None = None,
    beat_s: float = 0.0,
    backend: str | None = None,
) -> None:
    """Run ``fn(*tasks[key])`` for every key, in this process or over
    process-pool generations.

    This process receives each task's return value in
    ``on_result(key, value)`` (the default drops it) and each task's own
    exception in ``on_error(key, error)``, which returns True to run the
    task again (the default re-raises).  ``beat()``, when given, runs
    every ``beat_s`` seconds while the tasks run.

    With ``workers <= 1`` or a single task, the tasks run one after
    another in this process, and ``beat`` is driven by the simulator's
    progress hook (:func:`sim_progress`) and between tasks.  No process
    pool is imported or started.

    Otherwise each generation is one pool of ``min(workers, unfinished)``
    processes with at most twice that many tasks submitted at a time: the
    next key goes in as a task finishes, so the parent's memory and the
    cost of each wait do not grow with the batch.  Each task runs in its
    worker through one wrapper that returns the task's value together
    with the growth of the worker's registry counters
    (:data:`repro.obs.metrics.PROCESS`) during the task; this process
    adds that growth to its own registry before ``on_result`` sees the
    value, so pooled tasks are counted like in-process ones.  The counts
    of a task that raises, and of a task whose worker dies, are lost.

    An incident — a broken pool at submit or at result, or no task
    finishing within ``timeout_s`` — terminates the generation and passes
    its unfinished keys through ``on_requeue``, which returns those still
    wanted.  A new pool runs them, and after :data:`POOL_INCIDENT_LIMIT`
    incidents they run in this process instead.

    Any other exception, ``KeyboardInterrupt`` included, terminates the
    workers and propagates.
    """

    def run_here(keys: list) -> None:
        """Run ``keys`` one after another in this process."""
        next_beat = time.monotonic() + beat_s

        def tick(_events: int = 0) -> None:
            nonlocal next_beat
            now = time.monotonic()
            if beat is not None and now >= next_beat:
                beat()
                next_beat = now + beat_s

        with sim_progress(tick) if beat is not None else nullcontext():
            for key in keys:
                while True:
                    try:
                        value = fn(*tasks[key])
                    except Exception as exc:
                        if not on_error(key, exc):
                            break
                    else:
                        on_result(key, value)
                        break
                tick()

    def generation(keys: list) -> tuple[str | None, list]:
        """One pool lifetime: the incident, if any, and the keys left."""
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        size = min(workers, len(keys))
        executor = ProcessPoolExecutor(max_workers=size)
        unfinished = dict.fromkeys(keys)
        unsubmitted = iter(keys)
        inflight: dict[Future, Hashable] = {}

        def submit(key: Hashable) -> bool:
            try:
                inflight[executor.submit(_counted, fn, *tasks[key])] = key
            except BrokenProcessPool:
                return False
            return True

        def top_up() -> bool:
            """Submit keys until ``2 * size`` tasks are in flight."""
            return all(map(submit, islice(unsubmitted, 2 * size - len(inflight))))

        try:
            reason = None if top_up() else "pool broken at submit"
            now = time.monotonic()
            deadline = now + timeout_s if timeout_s is not None else None
            next_beat = now + beat_s if beat is not None else None
            while inflight and reason is None:
                now = time.monotonic()
                bounds = [at - now for at in (deadline, next_beat) if at is not None]
                done, _ = wait(
                    inflight,
                    timeout=max(0.01, min(bounds)) if bounds else None,
                    return_when=FIRST_COMPLETED,
                )
                now = time.monotonic()
                if next_beat is not None and now >= next_beat:
                    beat()
                    next_beat = now + beat_s
                if not done:
                    if deadline is not None and now >= deadline:
                        PROCESS.counter("pool.timeouts").inc()
                        reason = f"no task finished within {timeout_s:g}s"
                    continue
                if deadline is not None:
                    deadline = now + timeout_s
                for future in done:
                    key = inflight.pop(future)
                    try:
                        value, growth = future.result()
                    except BrokenProcessPool as exc:
                        reason = f"worker died: {exc}"
                    except Exception as exc:
                        if not on_error(key, exc):
                            del unfinished[key]
                        elif not submit(key):
                            reason = "pool broken at submit"
                    else:
                        del unfinished[key]
                        PROCESS.merge({"counters": growth})
                        on_result(key, value)
                if reason is None and not top_up():
                    reason = "pool broken at submit"
        except BaseException as exc:
            terminate_pool(executor)
            if isinstance(exc, KeyboardInterrupt):
                logger.error(
                    "interrupted: worker pool torn down, %d of %d tasks unfinished",
                    len(unfinished),
                    len(keys),
                )
            raise
        if reason is None:
            executor.shutdown()
        else:
            terminate_pool(executor)
        return reason, list(unfinished)

    pending = list(tasks)
    if workers <= 1 or len(pending) <= 1:
        run_here(pending)
        return
    preload_simulator(backend)
    logger.info(
        "running %d tasks over %d worker processes",
        len(pending),
        min(workers, len(pending)),
    )
    incidents = 0
    while pending and incidents < POOL_INCIDENT_LIMIT:
        if incidents:
            PROCESS.counter("pool.respawns").inc()
        reason, unfinished = generation(pending)
        if reason is None:
            return
        incidents += 1
        pending = on_requeue(unfinished)
        logger.warning(
            "worker pool incident (%s); %d unfinished tasks requeued",
            reason,
            len(pending),
        )
    if pending:
        PROCESS.counter("pool.serial_fallbacks").inc()
        logger.warning(
            "worker pool failed %d times; running %d unfinished tasks in "
            "this process",
            incidents,
            len(pending),
        )
        run_here(pending)


def _log_cache_report() -> None:
    """One-line disk-cache digest after a batch of jobs (this process's
    counts, pooled tasks' included)."""
    counts = PROCESS.counts()
    logger.info(
        "disk cache: %d hits, %d misses, %d writes, %d quarantined",
        counts["cache.hits"],
        counts["cache.misses"],
        counts["cache.writes"],
        counts["cache.quarantined"],
    )
