"""Experiment runner: alone-run baselines and shared workload runs.

Reproducing the paper's metrics requires, for every benchmark, an
*alone-run* baseline (the thread running by itself on the same memory
system) and a *shared run* of the full workload.  The runner generates
calibrated traces, caches alone-run baselines per (benchmark, system
configuration), and packages results as
:class:`~repro.metrics.summary.WorkloadResult`.

Caching operates at two levels: an in-process memoization of traces and
alone baselines (as before), backed by a persistent on-disk cache
(:mod:`repro.sim.diskcache`) keyed by content hashes of (benchmark,
configuration, seed, instruction count) so repeated suite runs — and
concurrent worker processes — skip recomputation.

Scaling: trace sizes honour the ``REPRO_SCALE`` environment variable
(a float multiplier over the default instruction count) so the full
benchmark suite can be sized to the machine at hand.  ``run_many`` (and
everything built on it — ``compare_schedulers``, the aggregate
experiments, the CLI) fans independent simulations out over worker
processes when ``jobs > 1`` (``--jobs`` / ``REPRO_JOBS``).
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, Sequence

from ..config import SystemConfig, baseline_system, default_instructions
from ..cpu.trace import Trace, TraceEntry, TraceIngestStats
from ..guard import guard_from_env
from ..metrics.summary import ThreadResult, WorkloadResult
from ..obs import JsonlSink, Telemetry, TraceConfig, Tracer
from ..schedulers.base import Scheduler
from ..traces.source import TraceFileRef, TraceRequestSource
from ..workloads.generator import TraceGenerator
from ..workloads.profiles import profile
from .diskcache import SIM_FINGERPRINT, DiskCache, cache_enabled, content_key
from .factory import make_scheduler
from .system import System
from .verify import BACKENDS, backend_from_env, compare_results, compare_systems

__all__ = [
    "AloneStats",
    "ExperimentRunner",
    "TRACE_PREFIX",
    "default_instructions",
]

# Workload entries with this prefix name an external trace file (by
# alias, sample-library name, or path) instead of a synthetic benchmark.
TRACE_PREFIX = "trace:"

# Sentinel distinguishing "not passed" (resolve from the environment)
# from an explicit ``cache_dir=None`` (disable the on-disk cache).
_DEFAULT_CACHE = object()


# Disk-cache record of a trace: ``name``, ``entries`` as ``[gap, address,
# is_write (0/1), depends_on]`` rows, and — for traces read from a file
# only — ``ingest`` as ``[requests_read, lines_skipped, truncated]``.
def _trace_payload(trace: Trace) -> dict[str, Any]:
    payload: dict[str, Any] = {
        "name": trace.name,
        "entries": [
            [e.gap, e.address, int(e.is_write), e.depends_on]
            for e in trace.entries
        ],
    }
    ingest = trace.ingest
    if ingest is not None:
        payload["ingest"] = [
            ingest.requests_read,
            ingest.lines_skipped,
            ingest.truncated,
        ]
    return payload


def _trace_from_payload(payload: dict[str, Any]) -> Trace:
    stats = payload.get("ingest")
    ingest = None
    if stats is not None:
        ingest = TraceIngestStats(
            requests_read=int(stats[0]),
            lines_skipped=int(stats[1]),
            truncated=bool(stats[2]),
        )
    return Trace(
        (TraceEntry(e[0], e[1], bool(e[2]), e[3]) for e in payload["entries"]),
        name=payload["name"],
        ingest=ingest,
    )


@dataclass(frozen=True)
class AloneStats:
    """Alone-run baseline of one benchmark on one system configuration."""

    benchmark: str
    ipc: float
    mcpi: float
    ast_per_req: float
    blp: float
    row_hit_rate: float
    loads: int
    cycles: int


class ExperimentRunner:
    """Runs workloads and computes paper metrics, caching alone baselines."""

    def __init__(
        self,
        config: SystemConfig | None = None,
        instructions: int | None = None,
        seed: int = 0,
        jobs: int | None = None,
        cache_dir: Any = _DEFAULT_CACHE,
        trace: TraceConfig | None = None,
        backend: str | None = None,
        trace_files: dict[str, str] | None = None,
        decoder: str = "dramsim2",
    ) -> None:
        self.config = config or baseline_system(4)
        self.instructions = instructions or default_instructions()
        self.seed = seed
        # Simulation backend: "python" (reference), "fast" (flat-array
        # kernel) or "verify" (both, asserting bit-identity on every
        # shared run).  None resolves REPRO_BACKEND / --backend.
        if backend is None:
            backend = backend_from_env()
        elif backend not in BACKENDS:
            raise ValueError(
                f"unknown simulation backend {backend!r} "
                f"(choose from {', '.join(BACKENDS)})"
            )
        self.backend = backend
        # None → resolve from REPRO_JOBS at run time (default 1 = serial).
        self.jobs = jobs
        # Observability: None → resolve from REPRO_TRACE* env vars; pass an
        # explicitly inactive TraceConfig() to force tracing off.
        resolved = trace if trace is not None else TraceConfig.from_env()
        self.trace = resolved if resolved is not None else TraceConfig()
        self.generator = TraceGenerator(mapping=self.config.dram.mapping())
        # External trace wiring: ``trace_files`` maps workload aliases
        # (``trace:<alias>`` entries) onto files; ``decoder`` names the
        # address bit-field layout (preset or ``field=bits,...`` spec)
        # applied to every trace in this runner.
        self.trace_files = dict(trace_files or {})
        self.decoder = decoder
        self._trace_refs: dict[str, TraceFileRef] = {}
        self._trace_cache: dict[tuple[str, int], Trace] = {}
        self._alone_cache: dict[str, AloneStats] = {}
        if cache_dir is _DEFAULT_CACHE:
            self._disk: DiskCache | None = DiskCache() if cache_enabled() else None
        elif cache_dir is None:
            self._disk = None
        else:
            self._disk = DiskCache(cache_dir)

    @property
    def disk_cache(self) -> DiskCache | None:
        """The persistent cache backing this runner (``None`` if disabled)."""
        return self._disk

    @property
    def cache_dir(self) -> str | None:
        return str(self._disk.root) if self._disk is not None else None

    # -- external trace files ----------------------------------------------------
    def resolve_trace(self, entry: str) -> TraceFileRef:
        """Resolve a ``trace:NAME`` workload entry to a content-pinned ref.

        ``NAME`` is tried as a ``trace_files`` alias, then a sample-library
        name (generated on demand), then a file path.  The ref pins the
        file by SHA-256 of its decompressed content, so everything keyed
        on it (job keys, cache entries, manifests) is path-independent.
        """
        name = entry[len(TRACE_PREFIX):] if entry.startswith(TRACE_PREFIX) else entry
        ref = self._trace_refs.get(name)
        if ref is not None:
            return ref
        if name in self.trace_files:
            path: str | Path = self.trace_files[name]
            if not Path(path).exists():
                raise FileNotFoundError(
                    f"trace alias {name!r} points at missing file {path}"
                )
        else:
            from ..traces.library import SAMPLE_TRACES, ensure_sample_trace

            if name in SAMPLE_TRACES:
                path = ensure_sample_trace(name)
            elif Path(name).exists():
                path = name
            else:
                known = sorted(set(self.trace_files) | set(SAMPLE_TRACES))
                raise ValueError(
                    f"unknown trace {name!r}: not a --trace-file alias, "
                    f"sample trace, or existing path (known: "
                    f"{', '.join(known)})"
                )
        ref = TraceFileRef.from_path(path, decoder=self.decoder)
        self._trace_refs[name] = ref
        return ref

    def canonical_workload(self, workload: Sequence[str]) -> list[str]:
        """Workload names for hashing: ``trace:`` entries become their
        content-addressed ``trace:<sha256>:<decoder>`` form (identity
        independent of aliases and file locations); synthetic benchmark
        names pass through unchanged, so pre-existing job keys are
        untouched."""
        return [
            self.resolve_trace(b).key() if b.startswith(TRACE_PREFIX) else b
            for b in workload
        ]

    def _trace_file_for(self, entry: str) -> Trace:
        """Materialize (and cache) the paced, decoded trace for one
        ``trace:`` workload entry, truncated to the instruction budget."""
        key = (entry, 0)
        trace = self._trace_cache.get(key)
        if trace is not None:
            return trace
        ref = self.resolve_trace(entry)
        disk_key = (
            content_key(
                [
                    SIM_FINGERPRINT,
                    "tracefile",
                    ref.sha256,
                    ref.decoder,
                    self.config.dram,
                    self.instructions,
                ]
            )
            if self._disk
            else ""
        )
        if self._disk is not None:
            cached = self._disk.get("trace", disk_key)
            if cached is not None:
                trace = _trace_from_payload(cached)
                self._trace_cache[key] = trace
                return trace
        name = entry[len(TRACE_PREFIX):] if entry.startswith(TRACE_PREFIX) else entry
        source = TraceRequestSource(
            ref.path,
            decoder=ref.decoder,
            mapping=self.config.dram.mapping(),
            name=name,
        )
        trace = source.materialize(max_instructions=self.instructions)
        if not trace.entries:
            raise ValueError(f"trace {name!r} ({ref.path}) has no records")
        if self._disk is not None:
            self._disk.put("trace", disk_key, _trace_payload(trace))
        self._trace_cache[key] = trace
        return trace

    # -- trace construction ------------------------------------------------------
    def _trace_key(self, benchmark: str, copy_index: int) -> str:
        # Traces depend on the profile and generator code (pinned by the
        # simulator fingerprint), the address mapping (from the DRAM
        # config), the instruction budget and the effective seed.
        return content_key(
            [
                SIM_FINGERPRINT,
                benchmark,
                self.config.dram,
                self.instructions,
                self.seed + 1000 * copy_index,
                self.generator.write_fraction,
            ]
        )

    def trace_for(self, benchmark: str, copy_index: int = 0) -> Trace:
        """Deterministic trace for ``benchmark``; distinct ``copy_index``
        values give statistically identical but decorrelated traces (for
        workloads with repeated benchmarks).

        ``trace:`` entries come from their file instead: copies of the
        same file are identical (a recorded stream has exactly one
        realization — decorrelation only applies to synthetic threads).
        """
        if benchmark.startswith(TRACE_PREFIX):
            return self._trace_file_for(benchmark)
        key = (benchmark, copy_index)
        trace = self._trace_cache.get(key)
        if trace is not None:
            return trace
        disk_key = self._trace_key(benchmark, copy_index) if self._disk else ""
        if self._disk is not None:
            cached = self._disk.get("trace", disk_key)
            if cached is not None:
                trace = _trace_from_payload(cached)
                self._trace_cache[key] = trace
                return trace
        trace = self.generator.generate(
            profile(benchmark),
            instructions=self.instructions,
            seed=self.seed + 1000 * copy_index,
        )
        if self._disk is not None:
            self._disk.put("trace", disk_key, _trace_payload(trace))
        self._trace_cache[key] = trace
        return trace

    def _workload_traces(self, workload: list[str]) -> list[Trace]:
        counts: dict[str, int] = {}
        traces = []
        for benchmark in workload:
            index = counts.get(benchmark, 0)
            counts[benchmark] = index + 1
            traces.append(self.trace_for(benchmark, index))
        return traces

    # -- alone baseline -----------------------------------------------------------
    def _alone_key(self, benchmark: str) -> str:
        # The alone run uses a single core on the same memory system, so
        # the key deliberately ignores ``num_cores``: 4- and 16-core
        # suites share alone baselines, exactly as the paper's metric
        # definition implies.
        name = (
            self.resolve_trace(benchmark).key()
            if benchmark.startswith(TRACE_PREFIX)
            else benchmark
        )
        return content_key(
            [
                SIM_FINGERPRINT,
                "alone",
                name,
                replace(self.config, num_cores=1),
                self.instructions,
                self.seed,
                self.generator.write_fraction,
            ]
        )

    def cached_alone(self, benchmark: str) -> AloneStats | None:
        """The alone-run baseline from memory or the disk cache, or
        ``None`` when it still has to be computed."""
        stats = self._alone_cache.get(benchmark)
        if stats is None and self._disk is not None:
            cached = self._disk.get("alone", self._alone_key(benchmark))
            if cached is not None:
                stats = self._alone_cache[benchmark] = AloneStats(**cached)
        return stats

    def alone(self, benchmark: str) -> AloneStats:
        """Alone-run statistics (cached in memory and on disk).

        JSON stores floats exactly (round-trip-safe), so a cached baseline
        is bit-identical to a freshly computed one — the parallel engine
        relies on this for serial/parallel equivalence.
        """
        stats = self.cached_alone(benchmark)
        if stats is not None:
            return stats
        trace = self.trace_for(benchmark, 0)
        # One core, but the *same* memory system as the shared runs
        # ("running alone on the same system", Section 7.1).  The alone
        # run uses the execution backend directly (bit-identity makes the
        # disk-cached baselines backend-agnostic); verify mode checks the
        # contract on shared runs, where contention exercises arbitration.
        config = replace(self.config, num_cores=1)
        system = System(
            config,
            make_scheduler("FR-FCFS", 1),
            [trace],
            repeat=False,
            guard=guard_from_env(),
            backend="fast" if self.backend == "fast" else "python",
        )
        system.run()
        core = system.cores[0]
        snap = core.snapshot
        assert snap is not None
        # Explicit lookup: a compute-only thread never touches DRAM, so it
        # has no stats record; stats_for returns a zeroed default instead
        # of silently fabricating one inside the stats dict.
        mem = system.controller.stats_for(0)
        stats = AloneStats(
            benchmark=benchmark,
            ipc=snap.ipc,
            mcpi=snap.mcpi,
            ast_per_req=snap.avg_stall_per_request,
            blp=mem.bank_level_parallelism,
            row_hit_rate=mem.row_hit_rate,
            loads=snap.loads,
            cycles=snap.cycles,
        )
        if self._disk is not None:
            self._disk.put("alone", self._alone_key(benchmark), asdict(stats))
        self._alone_cache[benchmark] = stats
        return stats

    # -- shared runs ------------------------------------------------------------
    def _job_key(
        self, workload: Sequence[str], scheduler_name: str, kwargs: dict
    ) -> str:
        """Stable content hash naming one simulation's trace files.

        The same simulation produces the same key whether it runs serially
        or inside a pool worker, so trace files land in the same place.
        """
        try:
            described = sorted(kwargs.items())
        except TypeError:  # pragma: no cover - exotic kwargs
            described = sorted((k, repr(v)) for k, v in kwargs.items())
        return content_key(
            [
                SIM_FINGERPRINT,
                self.config,
                self.canonical_workload(workload),
                scheduler_name,
                described,
                self.instructions,
                self.seed,
            ]
        )[:20]

    def run_workload(
        self,
        workload: list[str],
        scheduler: Scheduler | str,
        **scheduler_kwargs,
    ) -> WorkloadResult:
        """Run ``workload`` (one benchmark name per core) under a scheduler
        and return all paper metrics.

        When the runner's :class:`~repro.obs.config.TraceConfig` is active,
        the shared run is traced: structured events stream to a per-job
        JSONL file under ``trace.dir`` (plus a Perfetto-loadable Chrome
        trace when ``trace.perfetto``), and the periodic sampler's digest
        lands on ``WorkloadResult.telemetry``.  Alone-run baselines are
        never traced — they are cache-shared across workloads and must stay
        byte-identical regardless of observability settings.
        """
        if len(workload) != self.config.num_cores:
            raise ValueError(
                f"workload has {len(workload)} threads but the system has "
                f"{self.config.num_cores} cores"
            )
        if isinstance(scheduler, str):
            factory_name: str | None = scheduler
            scheduler_name = scheduler
            scheduler = make_scheduler(
                scheduler, self.config.num_cores, **scheduler_kwargs
            )
        else:
            factory_name = None
            scheduler_name = scheduler.name
        verify = self.backend == "verify"
        if verify and factory_name is None:
            raise ValueError(
                "verify backend needs a scheduler factory name (the shadow "
                "run must build fresh, unshared scheduler state); pass the "
                "scheduler as a string"
            )

        cfg = self.trace
        tracer: Tracer | None = None
        telemetry: Telemetry | None = None
        trace_path: Path | None = None
        if cfg.wants_events:
            safe_name = re.sub(r"[^A-Za-z0-9._-]+", "_", scheduler_name)
            job_key = self._job_key(workload, scheduler_name, scheduler_kwargs)
            trace_path = Path(cfg.dir) / f"{safe_name}-{job_key}.jsonl"
            tracer = Tracer([JsonlSink(trace_path)], events=cfg.events)
        if cfg.active:
            telemetry = Telemetry(
                cfg.sample_interval,
                probe=tracer.probe("sample") if tracer is not None else None,
            )

        traces = self._workload_traces(workload)
        system = System(
            self.config,
            scheduler,
            traces,
            repeat=True,
            tracer=tracer,
            telemetry=telemetry,
            # ``--guard`` / REPRO_GUARD: a fresh invariant checker per run
            # (the guard is stateful); None keeps every hook site free.
            guard=guard_from_env(),
            backend="python" if verify else self.backend,
        )
        if verify:
            # Verify mode compares the full command stream, so the
            # reference run records it (the shadow run records its own).
            system.controller.command_log = []
        try:
            sim_cycles = system.run()
        finally:
            if tracer is not None:
                tracer.close()
        # The JSONL sink opens lazily, so a run that emitted nothing (e.g.
        # a category filter selecting events this scheduler never produces)
        # leaves no file — and nothing to export.
        if (
            tracer is not None
            and cfg.perfetto
            and trace_path is not None
            and trace_path.exists()
        ):
            from ..obs import read_jsonl, write_chrome_trace

            write_chrome_trace(
                trace_path.with_suffix(".perfetto.json"),
                read_jsonl(trace_path),
            )

        result = self._collect_result(
            system, workload, scheduler_name, sim_cycles, telemetry
        )
        if verify:
            self._verify_shadow_run(
                system, result, workload, factory_name, scheduler_kwargs, traces
            )
        return result

    def _collect_result(
        self,
        system: System,
        workload: list[str],
        scheduler_name: str,
        sim_cycles: int,
        telemetry: Telemetry | None,
    ) -> WorkloadResult:
        """Package one finished system into a :class:`WorkloadResult`."""
        threads = []
        for thread_id, benchmark in enumerate(workload):
            core = system.cores[thread_id]
            snap = core.snapshot
            assert snap is not None
            mem = system.controller.stats_for(thread_id)
            base = self.alone(benchmark)
            ingest = getattr(core.trace, "ingest", None) or TraceIngestStats()
            threads.append(
                ThreadResult(
                    thread_id=thread_id,
                    benchmark=benchmark,
                    requests_read=ingest.requests_read,
                    lines_skipped=ingest.lines_skipped,
                    truncated=ingest.truncated,
                    ipc_shared=snap.ipc,
                    ipc_alone=base.ipc,
                    mcpi_shared=snap.mcpi,
                    mcpi_alone=base.mcpi,
                    ast_per_req=snap.avg_stall_per_request,
                    blp_shared=mem.bank_level_parallelism,
                    blp_alone=base.blp,
                    row_hit_rate=mem.row_hit_rate,
                    worst_latency=mem.latency_max,
                    row_hits=mem.row_hits,
                    row_conflicts=mem.row_conflicts,
                    latency_avg=mem.avg_latency,
                )
            )
        return WorkloadResult(
            scheduler=scheduler_name,
            workload=tuple(workload),
            threads=tuple(threads),
            sim_cycles=sim_cycles,
            telemetry=telemetry.summary() if telemetry is not None else None,
            events_processed=system.events_processed,
            events_elided=system.events_elided,
            min_rebuilds=system.min_rebuilds,
        )

    def _verify_shadow_run(
        self,
        reference: System,
        reference_result: WorkloadResult,
        workload: list[str],
        factory_name: str,
        scheduler_kwargs: dict,
        traces: list[Trace],
    ) -> None:
        """Verify mode: re-run on the fast backend and assert bit-identity.

        The shadow run shares the reference run's :class:`Trace` objects
        (traces are immutable) but builds fresh scheduler and guard state.
        It never records telemetry or event traces — observability output
        belongs to the reference run — and raises
        :class:`~repro.sim.verify.BackendMismatch` on any divergence in
        command stream, timing, statistics or final metrics.
        """
        shadow = System(
            self.config,
            make_scheduler(factory_name, self.config.num_cores, **scheduler_kwargs),
            traces,
            repeat=True,
            guard=guard_from_env(),
            backend="fast",
        )
        shadow.controller.command_log = []
        sim_cycles = shadow.run()
        compare_systems(reference, shadow)
        shadow_result = self._collect_result(
            shadow, workload, reference_result.scheduler, sim_cycles, None
        )
        compare_results(reference_result, shadow_result)

    # -- parallel fan-out ---------------------------------------------------------
    def effective_jobs(self, jobs: int | None = None) -> int:
        """Worker count: explicit argument, the runner's setting, then
        ``REPRO_JOBS`` (default 1 = serial)."""
        from .pool import default_jobs

        if jobs is not None:
            return max(1, jobs)
        if self.jobs is not None:
            return max(1, self.jobs)
        return default_jobs()

    def run_many(
        self,
        specs: Sequence[tuple[list[str], str, dict[str, Any]]],
        jobs: int | None = None,
    ) -> list[WorkloadResult]:
        """Run many ``(workload, scheduler name, scheduler kwargs)`` specs,
        fanning out over worker processes when ``jobs > 1``.

        Results come back in spec order and are bit-identical to running
        the same specs serially: every simulation is a pure function of
        its description, and alone-run baselines are warmed into the
        shared on-disk cache first so every worker reads the same values.
        The missing baselines run across the same ``jobs`` workers
        (:func:`~repro.sim.pool.warm_baselines`); a warm cache forks
        nothing for them.
        """
        specs = list(specs)
        workers = self.effective_jobs(jobs)
        if workers <= 1 or len(specs) <= 1:
            return [
                self.run_workload(list(workload), name, **kwargs)
                for workload, name, kwargs in specs
            ]

        from .pool import SimJob, run_jobs, warm_baselines

        sim_jobs = [
            SimJob(
                config=self.config,
                workload=tuple(workload),
                scheduler=name,
                scheduler_kwargs=dict(kwargs),
                instructions=self.instructions,
                seed=self.seed,
                cache_dir=self.cache_dir,
                trace=self.trace,
                backend=self.backend,
                trace_files=tuple(sorted(self.trace_files.items())),
                decoder=self.decoder,
            )
            for workload, name, kwargs in specs
        ]
        warm_baselines(sim_jobs, workers, runner=self)
        return run_jobs(sim_jobs, workers)

    def compare_schedulers(
        self,
        workload: list[str],
        schedulers: list[str] | None = None,
        scheduler_kwargs: dict[str, dict] | None = None,
        jobs: int | None = None,
    ) -> dict[str, WorkloadResult]:
        """Run ``workload`` under several schedulers (paper's five by
        default) and return results keyed by scheduler name.  Scheduler
        runs are independent, so they parallelize when ``jobs > 1``."""
        from .factory import SCHEDULER_NAMES

        names = schedulers or SCHEDULER_NAMES
        kwargs = scheduler_kwargs or {}
        results = self.run_many(
            [(list(workload), name, kwargs.get(name, {})) for name in names],
            jobs=jobs,
        )
        return dict(zip(names, results))
