"""Command-line interface: run any paper experiment by name.

Examples::

    python -m repro list
    python -m repro fig3
    python -m repro case-study fig5 --instructions 100000
    python -m repro aggregate --cores 4 --count 12
    python -m repro table4 --count 6
    python -m repro sweep marking-cap --count 4
    python -m repro priorities
    python -m repro characterize
    python -m repro campaign run examples/campaign_smoke.toml
    python -m repro campaign report examples/campaign_smoke.toml
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from .envknobs import EnvKnobError
from .events import SimulationError
from .workloads.mixes import UnknownMixError

# Each subcommand imports the experiment drivers, the runner and the
# campaign layers it runs inside its own handler, so a step that only
# reads the result store never loads the simulator.

# Short alias -> case-study name.  The names are the keys of
# ``repro.experiments.case_studies.CASE_STUDIES``, kept here so that
# building the parser does not import the runner.
_CASE_ALIASES = {
    "fig5": "fig5_case_study_1",
    "fig6": "fig6_case_study_2",
    "fig7": "fig7_case_study_3",
    "fig9": "fig9_8core_mix",
}

_EXPERIMENTS = """Available experiments (paper artifact -> command):
  Figure 3   python -m repro fig3
  Table 3    python -m repro characterize
  Figure 5   python -m repro case-study fig5
  Figure 6   python -m repro case-study fig6
  Figure 7   python -m repro case-study fig7
  Figure 8   python -m repro aggregate --cores 4
  Figure 9   python -m repro case-study fig9
  Figure 10  python -m repro aggregate --cores 16
  Table 4    python -m repro table4
  Figure 11  python -m repro sweep marking-cap
  Figure 12  python -m repro sweep batching
  Figure 13  python -m repro sweep ranking
  Figure 14  python -m repro priorities

Infrastructure:
  Campaigns  python -m repro campaign run|work|status|resume|watch|report|export SPEC
  Traces     python -m repro trace info|decode|gen|run
  Cache      python -m repro cache stats|prune|clear"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PAR-BS reproduction experiment runner"
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="instructions per thread (default: library default / REPRO_SCALE)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent simulations "
        "(default: REPRO_JOBS or 1)",
    )
    parser.add_argument(
        "--guard",
        nargs="?",
        const="strict",
        choices=("check", "strict"),
        default=None,
        metavar="MODE",
        help="enable runtime invariant checking: 'strict' (default) raises "
        "on the first violation, 'check' collects and logs them "
        "(exports REPRO_GUARD)",
    )
    parser.add_argument(
        "--backend",
        choices=("python", "fast", "verify"),
        default=None,
        help="simulation backend: 'fast' (default) runs the flat-array "
        "timing kernel, 'python' the reference object model (bit-identical "
        "results, several times slower), 'verify' runs python and fast "
        "side by side and asserts bit-for-bit agreement (exports "
        "REPRO_BACKEND)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress (once: INFO — pool fan-out, cache traffic; "
        "twice: DEBUG)",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="write per-simulation JSONL event traces into DIR "
        "(exports REPRO_TRACE)",
    )
    parser.add_argument(
        "--trace-events",
        metavar="CATS",
        default=None,
        help="comma-separated event categories to trace "
        "(request,dram,batch,sched,core,sample,campaign; default: all)",
    )
    parser.add_argument(
        "--sample-interval",
        type=int,
        metavar="CYCLES",
        default=None,
        help="periodic telemetry sample interval in cycles",
    )
    parser.add_argument(
        "--perfetto",
        action="store_true",
        help="also export each trace as Perfetto-loadable Chrome-trace JSON",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list all experiments")
    sub.add_parser("fig3", help="Figure 3: abstract within-batch model")
    sub.add_parser("characterize", help="Table 3: benchmark characterization")
    sub.add_parser("priorities", help="Figure 14: thread priorities")

    case = sub.add_parser("case-study", help="Figures 5/6/7/9")
    case.add_argument(
        "name", choices=sorted(_CASE_ALIASES) + sorted(_CASE_ALIASES.values())
    )

    agg = sub.add_parser("aggregate", help="Figures 8/10: workload averages")
    agg.add_argument("--cores", type=int, default=4, choices=(4, 8, 16))
    agg.add_argument("--count", type=int, default=None, help="random mixes")
    agg.add_argument("--samples", action="store_true", help="include named sample mixes")

    table = sub.add_parser("table4", help="Table 4: 4/8/16-core summary")
    table.add_argument("--count", type=int, default=None, help="mixes per system size")

    sweep = sub.add_parser("sweep", help="Figures 11/12/13: ablations")
    sweep.add_argument("kind", choices=("marking-cap", "batching", "ranking"))
    sweep.add_argument("--count", type=int, default=4, help="random mixes")

    campaign = sub.add_parser(
        "campaign", help="declarative resumable experiment campaigns"
    )
    csub = campaign.add_subparsers(dest="action", required=True)
    for action, desc in (
        ("run", "run every grid cell missing from the result store"),
        ("resume", "alias of run: completed cells are never re-simulated"),
    ):
        runp = csub.add_parser(action, help=desc)
        runp.add_argument("spec", help="campaign spec file (.toml or .json)")
        runp.add_argument("--db", default=None, help="result store path")
        runp.add_argument(
            "--limit",
            type=int,
            default=None,
            help="simulate at most N missing jobs this invocation",
        )
        runp.add_argument("--retries", type=int, default=2)
        runp.add_argument(
            "--chaos",
            metavar="SPEC",
            default=None,
            help="fault-injection plan, e.g. 'kill=0.3,corrupt=0.5,seed=7' "
            "(rates per fault kind; exports REPRO_CHAOS so pool workers "
            "share the plan)",
        )
        runp.add_argument(
            "--job-timeout",
            type=float,
            metavar="SECONDS",
            default=None,
            help="no-progress timeout for pool workers "
            "(default: REPRO_JOB_TIMEOUT_S)",
        )
        runp.add_argument(
            "--dry-run",
            action="store_true",
            help="print the expanded grid summary and exit",
        )
    workp = csub.add_parser(
        "work",
        help="drain jobs from a shared store as one distributed worker",
    )
    workp.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="campaign spec file (.toml or .json); omit with --fingerprint",
    )
    workp.add_argument("--db", default=None, help="shared result store path")
    workp.add_argument(
        "--fingerprint",
        metavar="FP",
        default=None,
        help="drain the already-registered campaign with this fingerprint "
        "(unique prefix accepted; spec comes from the store)",
    )
    workp.add_argument(
        "--jobs", type=int, default=1, help="local pool processes (default 1)"
    )
    workp.add_argument(
        "--lease",
        type=float,
        metavar="S",
        default=None,
        help="lease duration in seconds (default: REPRO_LEASE_S, 30)",
    )
    workp.add_argument(
        "--heartbeat",
        type=float,
        metavar="S",
        default=None,
        help="heartbeat renewal period (default: REPRO_HEARTBEAT_S, lease/3)",
    )
    workp.add_argument("--retries", type=int, default=2)
    workp.add_argument(
        "--poll",
        type=float,
        metavar="S",
        default=0.5,
        help="idle poll period while peers hold every remaining lease",
    )
    workp.add_argument(
        "--worker-id", default=None, help="queue identity (default: generated)"
    )
    workp.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="resolve at most N jobs, then exit",
    )
    workp.add_argument(
        "--no-wait",
        action="store_true",
        help="exit once every remaining job is leased to a live peer "
        "(default: wait for the campaign to settle)",
    )
    workp.add_argument(
        "--chaos",
        metavar="SPEC",
        default=None,
        help="fault-injection plan (adds leasekill=/hbfreeze= lease faults)",
    )
    workp.add_argument(
        "--job-timeout",
        type=float,
        metavar="SECONDS",
        default=None,
        help="no-progress timeout for pool workers "
        "(default: REPRO_JOB_TIMEOUT_S)",
    )
    watchp = csub.add_parser(
        "watch", help="live progress: counts, rate/ETA, merged metrics"
    )
    watchp.add_argument("spec")
    watchp.add_argument("--db", default=None)
    watchp.add_argument(
        "--once",
        action="store_true",
        help="print one snapshot and exit (default: refresh until done)",
    )
    watchp.add_argument(
        "--interval",
        type=float,
        metavar="S",
        default=5.0,
        help="refresh interval in seconds (default: 5)",
    )
    watchp.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="also write the merged metrics snapshot as JSON",
    )
    watchp.add_argument(
        "--metrics-prom",
        metavar="PATH",
        default=None,
        help="also write the merged metrics snapshot as Prometheus text",
    )
    statusp = csub.add_parser("status", help="job lifecycle counts")
    statusp.add_argument(
        "spec",
        nargs="?",
        default=None,
        help="spec file (omit to list every campaign in the store)",
    )
    statusp.add_argument("--db", default=None)
    reportp = csub.add_parser(
        "report", help="aggregate tables from the store (no simulation)"
    )
    reportp.add_argument("spec")
    reportp.add_argument("--db", default=None)
    reportp.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    reportp.add_argument("--out", default=None, help="write to file instead of stdout")
    exportp = csub.add_parser("export", help="raw per-job rows from the store")
    exportp.add_argument("spec")
    exportp.add_argument("--db", default=None)
    exportp.add_argument("--format", choices=("csv", "json"), default="csv")
    exportp.add_argument("--out", default=None, help="write to file instead of stdout")

    trace = sub.add_parser(
        "trace", help="trace files: inspect, decode, generate samples, run"
    )
    tsub = trace.add_subparsers(dest="action", required=True)
    infop = tsub.add_parser(
        "info", help="format, record counts and content hash per file"
    )
    infop.add_argument("files", nargs="+", metavar="FILE")
    decodep = tsub.add_parser(
        "decode", help="print decoded DRAM coordinates for the first records"
    )
    decodep.add_argument("file", metavar="FILE")
    decodep.add_argument(
        "--decoder",
        default="dramsim2",
        help="preset name or 'field=bits,...' layout spec (default: dramsim2)",
    )
    decodep.add_argument(
        "--limit", type=int, default=16, help="records to print (default: 16)"
    )
    genp = tsub.add_parser("gen", help="generate sample-library trace files")
    genp.add_argument(
        "names", nargs="*", metavar="NAME", help="sample names (default: all committed)"
    )
    genp.add_argument(
        "--all", action="store_true", help="include non-committed samples"
    )
    genp.add_argument(
        "--force", action="store_true", help="regenerate even when present"
    )
    tracerun = tsub.add_parser("run", help="simulate a traced workload mix")
    tracerun.add_argument(
        "threads",
        nargs="*",
        metavar="THREAD",
        help="workload entries: benchmark names or trace:NAME",
    )
    tracerun.add_argument(
        "--mix", default=None, metavar="NAME", help="registered mix name (e.g. tmix1)"
    )
    tracerun.add_argument("--scheduler", default="PAR-BS")
    tracerun.add_argument(
        "--trace-file",
        action="append",
        default=[],
        metavar="ALIAS=PATH",
        help="bind a trace alias to a file (repeatable)",
    )
    tracerun.add_argument(
        "--decoder",
        default="dramsim2",
        help="address layout for all trace files (preset or 'field=bits,...')",
    )

    cache = sub.add_parser("cache", help="simulation disk-cache maintenance")
    cachesub = cache.add_subparsers(dest="action", required=True)
    cachesub.add_parser("stats", help="entry counts and sizes per kind")
    prunep = cachesub.add_parser(
        "prune", help="LRU-prune the cache down to a size bound"
    )
    prunep.add_argument(
        "--max-mb",
        type=float,
        default=None,
        help="size bound in MB (default: REPRO_CACHE_MAX_MB)",
    )
    cachesub.add_parser("clear", help="delete every cache entry")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    instructions = args.instructions
    if args.verbose:
        # Make the library's logger.info lines (pool fan-out, cache hits,
        # cache report) visible; -vv turns on DEBUG.
        logging.basicConfig(
            level=logging.DEBUG if args.verbose > 1 else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
    if args.jobs is not None:
        # Every runner (including ones constructed deep inside experiment
        # helpers) resolves its default worker count from REPRO_JOBS, so
        # exporting it here reaches all subcommands uniformly.
        os.environ["REPRO_JOBS"] = str(max(1, args.jobs))
    if args.guard is not None:
        # Every System resolves its guard from REPRO_GUARD (pool workers
        # included), so the flag reaches all subcommands uniformly.
        os.environ["REPRO_GUARD"] = args.guard
    if args.backend is not None:
        # Every runner resolves its backend from REPRO_BACKEND (pool
        # workers included), so the flag reaches all subcommands uniformly.
        os.environ["REPRO_BACKEND"] = args.backend
    # Observability flags export the REPRO_TRACE* environment variables so
    # every runner constructed inside experiment helpers — and every pool
    # worker — resolves the same TraceConfig (the --jobs/REPRO_JOBS pattern).
    if args.trace is not None:
        os.environ["REPRO_TRACE"] = args.trace
    if args.trace_events is not None:
        os.environ["REPRO_TRACE_EVENTS"] = args.trace_events
    if args.sample_interval is not None:
        os.environ["REPRO_SAMPLE_INTERVAL"] = str(args.sample_interval)
    if args.perfetto:
        os.environ["REPRO_TRACE_PERFETTO"] = "1"

    try:
        status = _dispatch(args, instructions)
    except (EnvKnobError, UnknownMixError) as exc:
        # Configuration mistakes (bad knob value, mix-name typo): the
        # message already says what was wrong and what is valid.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        # Structured failures from the simulator and the guard layer
        # (InvariantViolation, SimulationStalled): the message already
        # carries cycle/bank/request context or the stall diagnostic dump.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # Cache statistics no longer interleave with experiment output here:
    # they flow through the metrics registry (collect_process_metrics) into
    # campaign reports and `campaign watch`; `-v` still logs the pool's
    # one-line cache report at INFO.
    return status


def _dispatch(args: argparse.Namespace, instructions: int | None) -> int:
    if args.command == "list":
        print(_EXPERIMENTS)
        return 0
    if args.command == "fig3":
        from .experiments.abstract_fig3 import run_fig3

        print(run_fig3().report())
        return 0
    if args.command == "characterize":
        from .experiments.characterization import run_characterization

        print(run_characterization(instructions=instructions).report())
        return 0
    if args.command == "priorities":
        from .experiments.priorities import run_opportunistic, run_weighted_lbm

        print(run_weighted_lbm(instructions=instructions).report())
        print()
        print(run_opportunistic(instructions=instructions).report())
        return 0
    if args.command == "case-study":
        from .experiments.case_studies import run_case_study

        name = _CASE_ALIASES.get(args.name, args.name)
        print(run_case_study(name, instructions=instructions).report())
        return 0
    if args.command == "aggregate":
        from .experiments.aggregate import run_aggregate

        result = run_aggregate(
            args.cores,
            count=args.count,
            instructions=instructions,
            include_sample_mixes=args.samples,
        )
        print(result.report())
        return 0
    if args.command == "table4":
        from .experiments.summary import run_table4

        counts = None
        if args.count is not None:
            counts = {4: args.count, 8: args.count, 16: args.count}
        print(run_table4(counts=counts, instructions=instructions).report())
        return 0
    if args.command == "sweep":
        from .experiments.ablations import (
            batching_choice_sweep,
            marking_cap_sweep,
            ranking_scheme_sweep,
        )

        if args.kind == "marking-cap":
            result = marking_cap_sweep(count=args.count, instructions=instructions)
            print(result.report("Figure 11: Marking-Cap sweep"))
        elif args.kind == "batching":
            result = batching_choice_sweep(
                count=args.count, instructions=instructions
            )
            print(result.report("Figure 12: batching choice"))
        else:
            result = ranking_scheme_sweep(count=args.count, instructions=instructions)
            print(result.report("Figure 13: within-batch ranking"))
        return 0
    if args.command == "campaign":
        return _dispatch_campaign(args, instructions)
    if args.command == "trace":
        return _dispatch_trace(args, instructions)
    if args.command == "cache":
        return _dispatch_cache(args)
    return 1  # pragma: no cover


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _dispatch_campaign(args: argparse.Namespace, instructions: int | None) -> int:
    from .campaign.spec import load_spec
    from .campaign.store import ResultStore

    if args.action == "status" and args.spec is None:
        with ResultStore(args.db) as store:
            rows = store.campaigns()
            if not rows:
                print("no campaigns in store")
                return 0
            for row in rows:
                print(
                    f"{row['name']}  {row['fingerprint'][:12]}  "
                    f"{row['done']}/{row['total']} done, "
                    f"{row['failed']} failed  "
                    f"({row['instructions']} instructions)"
                )
        return 0

    if args.action == "work":
        return _campaign_work(args)

    spec = load_spec(args.spec)
    if instructions is not None:
        # --instructions overrides the spec file's value (same precedence
        # as every other subcommand).
        from .campaign.spec import spec_from_dict

        spec = spec_from_dict({**spec.to_dict(), "instructions": instructions})

    if args.action in ("run", "resume"):
        if args.dry_run:
            print(spec.describe())
            return 0
        from .campaign.orchestrator import run_campaign

        chaos = None
        if args.chaos is not None:
            from .guard.chaos import ChaosPlan

            chaos = ChaosPlan.parse(args.chaos)
        probe = None
        tracer = None
        trace_dir = os.environ.get("REPRO_TRACE")
        if trace_dir:
            from pathlib import Path

            from .obs.config import TraceConfig
            from .obs.trace import JsonlSink, Tracer

            cfg = TraceConfig.from_env() or TraceConfig()
            Path(trace_dir).mkdir(parents=True, exist_ok=True)
            tracer = Tracer(
                [JsonlSink(Path(trace_dir) / f"campaign-{spec.name}.jsonl")],
                events=cfg.events,
            )
            probe = tracer.probe("campaign")
        try:
            with ResultStore(args.db) as store:
                stats = run_campaign(
                    spec,
                    store,
                    limit=args.limit,
                    retries=args.retries,
                    probe=probe,
                    chaos=chaos,
                    job_timeout_s=args.job_timeout,
                )
        finally:
            if tracer is not None:
                tracer.close()
        print(stats.summary_line(spec.name))
        return 1 if stats.failed else 0
    if args.action == "watch":
        return _campaign_watch(spec, args)
    from .campaign.report import campaign_report, export_text, status_report

    with ResultStore(args.db) as store:
        if args.action == "status":
            print(status_report(spec, store))
        elif args.action == "report":
            _emit(campaign_report(spec, store, fmt=args.format), args.out)
        elif args.action == "export":
            _emit(export_text(spec, store, fmt=args.format), args.out)
    return 0


def _campaign_work(args: argparse.Namespace) -> int:
    """``campaign work``: one distributed worker draining a shared store.

    Unlike ``campaign run`` (which registers the grid and owns the whole
    drain), ``work`` is a peer: N invocations against the same ``--db``
    split the campaign's jobs through the lease queue, heartbeat while
    simulating, and reclaim leases from peers that died.  The spec comes
    from a file or — for workers that only have the store — from the
    registered campaign row via ``--fingerprint``.
    """
    from .campaign.spec import load_spec
    from .campaign.store import ResultStore
    from .campaign.worker import drain_campaign

    if (args.spec is None) == (args.fingerprint is None):
        print(
            "campaign work: pass a spec file or --fingerprint (not both)",
            file=sys.stderr,
        )
        return 2
    chaos = None
    if args.chaos is not None:
        from .guard.chaos import ChaosPlan

        chaos = ChaosPlan.parse(args.chaos)
    with ResultStore(args.db) as store:
        if args.fingerprint is not None:
            try:
                spec = store.spec_for(args.fingerprint)
            except KeyError as exc:
                print(f"campaign work: {exc}", file=sys.stderr)
                return 2
        else:
            spec = load_spec(args.spec)
        stats = drain_campaign(
            spec,
            store,
            worker_id=args.worker_id,
            jobs=args.jobs,
            lease_s=args.lease,
            heartbeat_s=args.heartbeat,
            poll_s=args.poll,
            retries=args.retries,
            job_timeout_s=args.job_timeout,
            chaos=chaos,
            hard_kill=True,
            wait_for_peers=not args.no_wait,
            max_jobs=args.max_jobs,
        )
    print(
        f"worker {stats.worker_id}: claimed={stats.claimed} "
        f"completed={stats.completed} failed={stats.failed} "
        f"retried={stats.retried} requeued={stats.requeued} "
        f"reclaimed={stats.reclaimed} fenced={stats.fenced} "
        f"lost={stats.lost} foreign_done={stats.foreign_done}"
    )
    return 1 if stats.failed else 0


def _campaign_watch(spec, args: argparse.Namespace) -> int:
    """``campaign watch``: snapshot (or follow) campaign progress."""
    import time as _time

    from .campaign.store import ResultStore
    from .campaign.watch import merged_metrics, watch_counts, watch_report
    from .obs.export import write_snapshot

    while True:
        # A fresh connection per snapshot: watch is a reader racing a
        # writer; WAL mode makes that safe, and reconnecting keeps each
        # snapshot consistent.
        with ResultStore(args.db) as store:
            counts = watch_counts(spec, store)
            print(watch_report(spec, store, counts=counts))
            if args.metrics_json or args.metrics_prom:
                snapshot = merged_metrics(spec, store, counts).snapshot()
                if args.metrics_json:
                    write_snapshot(args.metrics_json, snapshot)
                    print(f"wrote {args.metrics_json}")
                if args.metrics_prom:
                    write_snapshot(args.metrics_prom, snapshot)
                    print(f"wrote {args.metrics_prom}")
        if args.once or not counts["pending"]:
            return 0
        _time.sleep(max(0.1, args.interval))
        print()


def _parse_trace_file_args(entries: list[str]) -> dict[str, str]:
    """``--trace-file ALIAS=PATH`` flags as an alias -> path dict."""
    files: dict[str, str] = {}
    for entry in entries:
        alias, sep, path = entry.partition("=")
        if not sep or not alias or not path:
            raise ValueError(
                f"--trace-file expects ALIAS=PATH, got {entry!r}"
            )
        files[alias] = path
    return files


def _dispatch_trace(args: argparse.Namespace, instructions: int | None) -> int:
    from .traces import (
        SAMPLE_TRACES,
        IngestStats,
        ensure_sample_trace,
        open_trace,
        parse_decoder,
        sample_trace_path,
        trace_content_sha256,
    )

    if args.action == "info":
        for path in args.files:
            stats = IngestStats()
            reads = writes = 0
            for record in open_trace(path, stats=stats):
                if record.is_write:
                    writes += 1
                else:
                    reads += 1
            print(
                f"{path}: format={stats.format} lines={stats.lines_read} "
                f"records={stats.records} (reads={reads} writes={writes}) "
                f"skipped={stats.lines_skipped}"
            )
            print(f"  sha256={trace_content_sha256(path)}")
        return 0
    if args.action == "decode":
        decoder = parse_decoder(args.decoder)
        print(f"decoder: {decoder.spec()}")
        shown = 0
        for record in open_trace(args.file):
            if shown >= args.limit:
                print("  ...")
                break
            d = decoder.decode(record.address)
            rw = "W" if record.is_write else "R"
            print(
                f"  {record.address:#012x} {rw} cycle={record.cycle} -> "
                f"ch={d.channel} rank={d.rank} bank={d.bank} "
                f"row={d.row} col={d.column}"
            )
            shown += 1
        return 0
    if args.action == "gen":
        names = list(args.names)
        if not names:
            names = [
                n for n, s in SAMPLE_TRACES.items() if s.committed or args.all
            ]
        for name in names:
            if name not in SAMPLE_TRACES:
                print(
                    f"error: unknown sample trace {name!r} "
                    f"(known: {', '.join(sorted(SAMPLE_TRACES))})",
                    file=sys.stderr,
                )
                return 2
            path = sample_trace_path(name)
            if args.force and path.exists():
                path.unlink()
            path = ensure_sample_trace(name)
            print(f"{name}: {path}")
        return 0
    if args.action == "run":
        from .config import baseline_system
        from .sim.runner import ExperimentRunner
        from .workloads.mixes import get_mix

        if args.mix and args.threads:
            print("error: pass --mix or THREAD arguments, not both", file=sys.stderr)
            return 2
        workload = get_mix(args.mix) if args.mix else list(args.threads)
        if not workload:
            print(
                "error: nothing to run: pass --mix NAME or THREAD entries",
                file=sys.stderr,
            )
            return 2
        try:
            trace_files = _parse_trace_file_args(args.trace_file)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        runner = ExperimentRunner(
            baseline_system(len(workload)),
            instructions=instructions,
            trace_files=trace_files,
            decoder=args.decoder,
        )
        result = runner.run_workload(workload, args.scheduler)
        print(result.describe())
        return 0
    return 1  # pragma: no cover


def _dispatch_cache(args: argparse.Namespace) -> int:
    from .sim.diskcache import DiskCache, default_cache_dir, max_cache_mb

    cache = DiskCache()
    if args.action == "stats":
        usage = cache.usage()
        total_n = sum(n for n, _b in usage.values())
        total_b = sum(b for _n, b in usage.values())
        print(f"cache dir: {default_cache_dir()}")
        bound = max_cache_mb()
        print(f"size bound: {'unbounded' if bound is None else f'{bound:g} MB'}")
        for kind in sorted(usage):
            n, b = usage[kind]
            print(f"  {kind}: {n} entries, {b / 1e6:.2f} MB")
        print(f"  total: {total_n} entries, {total_b / 1e6:.2f} MB")
        return 0
    if args.action == "prune":
        limit = args.max_mb if args.max_mb is not None else cache.max_mb
        if limit is None:
            print(
                "error: no size bound: pass --max-mb or set REPRO_CACHE_MAX_MB",
                file=sys.stderr,
            )
            return 2
        removed, freed = cache.prune(max_mb=limit)
        print(f"pruned {removed} entries, {freed / 1e6:.2f} MB freed")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries")
        return 0
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
