"""End-to-end benchmark of the PAR-BS reproduction: what a user waits for.

One run measures one workload for ``--seconds`` seconds, repeating it in
fresh processes and reporting medians::

    python3 perfbench/run.py --workload cold-4core --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` alternates untraced and traced
repetitions and prints the per-layer metrics, timed by ``spans.py`` from
outside the program, plus the tracing overhead.  Every repetition's
outputs are checked: against the committed digest in ``golden.json`` at
the default seed, and against the run's first repetition at any other
seed.  The last line of standard output is one JSON object; the lines
before it are a human-readable table with quartiles.  See README.md for
why each workload exists and which layers it loads.

``--write-golden`` runs one repetition at the default seed and records
its digest and counts in ``golden.json``; use it only for a change that
is meant to alter simulated results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
# TraceGenerator.generate rejects shorter traces at run time, after a
# campaign has registered its grid; refuse such sizes before launching.
MIN_INSTRUCTIONS = 1000
# Every process a run starts is killed once the run has lasted this long,
# so that a hung step still ends the run in time to report the failure.
RUN_LIMIT_S = 170.0
# Counts that only a change to the simulated model may move.  The other
# sim.* counts (events processed/elided, cached-minimum rebuilds)
# describe how the backend got there and are reported, not gated.
MODEL_COUNTS = ("sim.cycles", "sim.events_logical", "sim.row_hits", "sim.row_conflicts")

SCHEDULERS = ("FCFS", "FR-FCFS", "NFQ", "STFM", "PAR-BS")


# The 28 benchmarks of the paper's Table 3 in four strata of seven by
# memory intensity (MPKI), heaviest first.  A 4-core shared run lasts
# until its slowest thread finishes, so how the heavy threads are spread
# over the mixes sets the work of a run; drawing one thread per stratum
# into every mix keeps that work level from seed to seed.
STRATA = (
    ("mcf", "matlab", "leslie3d", "libquantum", "soplex", "lbm", "milc"),
    ("GemsFDTD", "sphinx3", "xalancbmk", "omnetpp", "xml-parser", "cactusADM", "astar"),
    ("hmmer", "bzip2", "h264ref", "gromacs", "gobmk", "dealII", "sjeng"),
    ("gcc", "namd", "wrf", "calculix", "tonto", "perlbench", "povray"),
)


def _stratified(seed: int, count: int) -> dict[str, Any]:
    """``count`` distinct 4-core mixes drawn from ``seed``, each with one
    thread of every stratum.  Every block of seven mixes uses each of the
    28 benchmarks once."""
    rng = random.Random(seed)
    mixes: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()
    while len(mixes) < count:
        for mix in zip(*(rng.sample(stratum, len(stratum)) for stratum in STRATA)):
            if mix not in seen and len(mixes) < count:
                seen.add(mix)
                mixes.append(list(mix))
    return {"mix_count": 0, "mixes": mixes}


def _partition(seed: int, pool: tuple[str, ...], cores: int) -> dict[str, Any]:
    """A seeded shuffle of ``pool`` cut into mixes of ``cores`` threads:
    every seed simulates the same threads in different company."""
    pool = list(pool)
    random.Random(seed).shuffle(pool)
    return {"mix_count": 0, "mixes": [pool[i : i + cores] for i in range(0, len(pool), cores)]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    instructions: int
    backend: str
    jobs: int
    cores: int = 4
    schedulers: tuple[str, ...] = ()
    # seed -> the spec's mix fields; None for the direct-python workload
    mixes: Callable[[int], dict[str, Any]] | None = None
    warm_cache: bool = False  # one untimed pass fills the disk cache
    resume: bool = False  # a second `campaign run` that must simulate nothing
    export: bool = False

    def __post_init__(self) -> None:
        if self.instructions < MIN_INSTRUCTIONS:
            raise ValueError(
                f"workload {self.name}: {self.instructions} instructions is "
                f"below the runner's minimum of {MIN_INSTRUCTIONS}"
            )

    @property
    def campaign(self) -> bool:
        return self.mixes is not None

    def spec(self, seed: int) -> dict[str, Any]:
        assert self.mixes is not None
        return {
            "name": self.name,
            "schedulers": list(self.schedulers),
            "num_cores": [self.cores],
            "seeds": [0],
            "instructions": self.instructions,
            **self.mixes(seed),
        }

    def flags(self) -> list[str]:
        return ["--backend", self.backend, "--jobs", str(self.jobs)]

    def steps(self, spec: Path, out: Path, seed: int) -> list[tuple[list[str], str | None]]:
        """The timed sequence: (program arguments, text its output must
        contain).  Campaign steps are ``python -m repro`` arguments."""
        if not self.campaign:
            return [(self._direct(seed) + ["--out", str(out)], None)]
        run = self.flags() + ["campaign", "run", str(spec)]
        steps: list[tuple[list[str], str | None]] = [(run, " failed=0 ")]
        if self.resume:
            steps.append((run, " ran=0 "))
        steps.append((["campaign", "report", str(spec)], None))
        if self.export:
            steps.append((["campaign", "export", str(spec), "--out", str(out)], None))
        return steps

    def setup(self, spec: Path, seed: int) -> list[str]:
        """Everything before the first simulation, as its own process."""
        if not self.campaign:
            return self._direct(seed) + ["--setup-only"]
        return self.flags() + ["campaign", "run", str(spec), "--limit", "0"]

    def _direct(self, seed: int) -> list[str]:
        return [
            "direct", "--seed", str(seed), "--instructions", str(self.instructions),
            "--jobs", str(self.jobs), "--backend", self.backend,
        ]


def workloads() -> dict[str, Workload]:
    defined = [
        Workload(
            "cold-4core",
            "a fresh 4-core campaign: traces, alone baselines and shared runs "
            "all computed, on the fast backend",
            instructions=40_000,
            backend="fast",
            jobs=2,
            schedulers=("FR-FCFS", "PAR-BS"),
            mixes=lambda seed: _stratified(seed, 7),
        ),
        Workload(
            "warm-16core",
            "five schedulers on two 16-core mixes with a warm disk cache, so "
            "shared simulation dominates",
            instructions=10_000,
            backend="fast",
            jobs=1,
            cores=16,
            schedulers=SCHEDULERS,
            mixes=lambda seed: _partition(seed, sum(STRATA, STRATA[0][:4]), 16),
            warm_cache=True,
        ),
        Workload(
            "tiny-grid",
            "400 minimum-size jobs, so the campaign layer (spec, store, queue, "
            "report) carries a large share",
            instructions=MIN_INSTRUCTIONS,
            backend="fast",
            jobs=2,
            schedulers=SCHEDULERS,
            mixes=lambda seed: _stratified(seed, 80),
            resume=True,
            export=True,
        ),
        Workload(
            "direct-python",
            "compare_schedulers over four traced mixes on the python reference "
            "backend: the direct pool path",
            instructions=20_000,
            backend="python",
            jobs=2,
        ),
    ]
    return {w.name: w for w in defined}


# -- processes -----------------------------------------------------------------


def isolated_env(cache: Path, db: Path) -> dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, plus a
    private disk cache and result store."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache)
    env["REPRO_CAMPAIGN_DB"] = str(db)
    return env


def program(args: list[str], trace_dir: Path | None, run_id: str) -> list[str]:
    """Command line for one step: the repro CLI or direct.py, optionally
    under the span tracer."""
    if trace_dir is not None:
        return [sys.executable, str(BENCH / "spans.py"), str(trace_dir), run_id, "--", *args]
    if args[:1] == ["direct"]:
        return [sys.executable, str(BENCH / "direct.py"), *args[1:]]
    return [sys.executable, "-m", "repro", *args]


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def launch(
    argv: list[str], env: dict[str, str], log: Path, deadline: float
) -> tuple[float, int, float]:
    """Run one fresh process to completion: (wall seconds, exit code,
    peak RSS in MB of the process and the children it waited for).

    The process leads its own process group; if it is still running at
    ``deadline`` (a ``time.monotonic()`` value) it is killed with the
    whole group, and anything left in the group after it exits is
    killed too.
    """
    with log.open("ab") as out:
        start = time.monotonic()
        proc = subprocess.Popen(
            argv, env=env, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - start), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    _kill_group(proc.pid)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


# -- one repetition ------------------------------------------------------------


@dataclass
class Rep:
    wall_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    summary: dict[str, Any]
    setup_s: float | None = None
    layers: dict[str, dict[str, Any]] | None = None
    cache_bytes: int = 0


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _tail(log: Path, lines: int = 15) -> str:
    try:
        return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def run_rep(
    wl: Workload,
    seed: int,
    run_dir: Path,
    spec: Path | None,
    warm_cache: Path | None,
    *,
    traced: bool,
    index: int,
    deadline: float,
) -> Rep:
    rep_dir = Path(tempfile.mkdtemp(prefix=f"rep{index}-", dir=run_dir))
    setup_s = None
    if not traced:
        log = rep_dir / "setup.log"
        setup_env = isolated_env(rep_dir / "setup-cache", rep_dir / "setup.sqlite")
        setup_s, code, _ = launch(
            program(wl.setup(spec, seed), None, ""), setup_env, log, deadline
        )
        if code != 0:
            print(f"[{wl.name}] set-up exited {code}:\n{_tail(log)}", file=sys.stderr)
    cache = warm_cache or rep_dir / "cache"
    env = isolated_env(cache, rep_dir / "store.sqlite")
    out = rep_dir / "out.json" if not wl.campaign else rep_dir / "export.csv"
    trace_dir = rep_dir / "spans" if traced else None
    step_failures = 0
    peak = 0.0
    start = time.monotonic()
    for number, (args, expect) in enumerate(wl.steps(spec, out, seed)):
        step_log = rep_dir / f"step{number}.log"
        run_id = f"{wl.name}:{seed}:{index}:{number}"
        _, code, rss = launch(program(args, trace_dir, run_id), env, step_log, deadline)
        peak = max(peak, rss)
        text = step_log.read_text(errors="replace")
        if code != 0 or (expect is not None and expect not in text):
            step_failures += 1
            print(
                f"[{wl.name}] step {' '.join(args)} exited {code}"
                f"{'' if expect is None else f' (expected {expect.strip()!r})'}:\n"
                f"{_tail(step_log)}",
                file=sys.stderr,
            )
    wall = time.monotonic() - start
    summary = _read_outputs(wl, spec, out, env, rep_dir, deadline)
    failed_jobs = summary.get("failed", 0) + max(
        0, summary.get("jobs", 0) - summary.get("done", 0) - summary.get("failed", 0)
    )
    rep = Rep(
        wall_s=wall,
        peak_rss_mb=peak,
        attempted=max(1, summary.get("jobs", 0)),
        failed=failed_jobs + step_failures,
        summary=summary,
        setup_s=setup_s,
    )
    if traced:
        rep.layers = spans.summarize(spans.load(trace_dir))
        rep.cache_bytes = _dir_bytes(cache)
    return rep


def _read_outputs(
    wl: Workload,
    spec: Path | None,
    out: Path,
    env: dict[str, str],
    rep_dir: Path,
    deadline: float,
) -> dict[str, Any]:
    """The repetition's check fields (digest, job counts, sim counts)."""
    if wl.campaign:
        log = rep_dir / "check.log"
        argv = [sys.executable, str(BENCH / "check.py"), str(spec), env["REPRO_CAMPAIGN_DB"]]
        _, code, _ = launch(argv, env, log, deadline)
        if code != 0:
            print(f"[{wl.name}] check.py exited {code}:\n{_tail(log)}", file=sys.stderr)
            return {}
        out = log
    try:
        return json.loads(out.read_text().splitlines()[-1])
    except (OSError, ValueError, IndexError):
        return {}


def check_rep(rep: Rep, reference: dict[str, Any] | None, name: str) -> int:
    """Mismatches between ``rep`` and the reference outputs (0 or more),
    reported on stderr."""
    summary = rep.summary
    if not summary:
        return 1
    if reference is None:
        return 0
    mismatches = 0
    if summary.get("digest") != reference.get("digest"):
        print(
            f"[{name}] output digest {summary.get('digest')} != {reference.get('digest')}",
            file=sys.stderr,
        )
        mismatches += 1
    ours, theirs = summary.get("counts", {}), reference.get("counts", {})
    for count in sorted(set(ours) | set(theirs)):
        if ours.get(count) == theirs.get(count):
            continue
        gated = count in MODEL_COUNTS
        print(
            f"[{name}] {count} = {ours.get(count)}, reference {theirs.get(count)}"
            f"{'' if gated else ' (implementation count: reported, not gated)'}",
            file=sys.stderr,
        )
        mismatches += gated
    return mismatches


# -- metrics -------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _tail_value(values: list[float]) -> float:
    """The value with ten samples above it (the ``1 - 10/n`` quantile,
    p90 or higher) once there are 100 samples; the maximum before that."""
    ordered = sorted(values)
    return ordered[-11] if len(ordered) >= 100 else ordered[-1]


# Spans reported as .calls, .busy_s and .self_s: every wrapped entry
# point plus each step's main(); the blocking pool wait is reported as
# pool.wait_s alone.
SPAN_NAMES = tuple(
    name for _, _, name, _ in spans.LAYER_CALLS if name != "pool.wait"
) + ("process",)

# Per-layer metrics: name -> (unit, better).  BENCHMARK.json lists the
# same names, units and directions.
LAYER_METRICS: dict[str, tuple[str, str]] = {
    **{
        f"{span}.{field}": (unit, "lower")
        for span in SPAN_NAMES
        for field, unit in (("calls", "count"), ("busy_s", "s"), ("self_s", "s"))
    },
    "traces.requests_read": ("count", "lower"),
    "runner.alone.computed": ("count", "lower"),
    "runner.alone.hit_ratio": ("fraction", "higher"),
    "runner.alone.share": ("fraction", "lower"),
    "system.events_per_s": ("1/s", "higher"),
    "system.events_logical": ("count", "lower"),
    "system.events_processed": ("count", "lower"),
    "system.events_elided": ("count", "higher"),
    "system.min_rebuilds": ("count", "lower"),
    "system.sim_cycles": ("count", "lower"),
    "diskcache.get.hits": ("count", "higher"),
    "diskcache.get.hit_ratio": ("fraction", "higher"),
    "diskcache.bytes": ("bytes", "lower"),
    "pool.job_s.p50": ("s", "lower"),
    "pool.job_s.tail": ("s", "lower"),
    "pool.wait_s": ("s", "lower"),
    "store.commit_retries": ("count", "lower"),
    "queue.claimed": ("count", "higher"),
    "queue.fenced": ("count", "lower"),
    "worker.claimed": ("count", "higher"),
    "worker.completed": ("count", "higher"),
    "worker.failed": ("count", "lower"),
    "worker.retried": ("count", "lower"),
    "campaign.share": ("fraction", "lower"),
    "process.outside_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "fail_ratio": ("fraction", "lower"),
}

END_TO_END: dict[str, tuple[str, str]] = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

CAMPAIGN_LAYERS = (
    "campaign.run", "worker.drain", "spec.expand", "store.register", "store.statuses",
    "queue.claim_next", "queue.complete", "queue.heartbeat", "report.render", "report.export",
)


def layer_values(rep: Rep) -> dict[str, float]:
    """Every per-layer metric of one traced repetition."""
    layers = rep.layers or {}

    def get(name: str) -> dict[str, Any]:
        return layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                 "durations": [], "counts": {}, "with_sim": 0})

    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        for field in ("calls", "busy_s", "self_s"):
            values[f"{name}.{field}"] = get(name)[field]
    wall = rep.wall_s
    materialize, alone, system = get("traces.materialize"), get("runner.alone"), get("system.run")
    dget, job, drain = get("diskcache.get"), get("pool.job"), get("worker.drain")
    process = get("process")
    values["traces.requests_read"] = materialize["counts"].get("requests_read", 0)
    values["runner.alone.computed"] = alone["with_sim"]
    values["runner.alone.hit_ratio"] = (
        1.0 - alone["with_sim"] / alone["calls"] if alone["calls"] else 0.0
    )
    values["runner.alone.share"] = alone["busy_s"] / wall
    for count in (
        "events_logical", "events_processed", "events_elided", "min_rebuilds", "sim_cycles"
    ):
        values[f"system.{count}"] = system["counts"].get(count, 0)
    values["system.events_per_s"] = (
        system["counts"].get("events_logical", 0) / system["busy_s"] if system["busy_s"] else 0.0
    )
    values["diskcache.get.hits"] = dget["counts"].get("hits", 0)
    values["diskcache.get.hit_ratio"] = (
        dget["counts"].get("hits", 0) / dget["calls"] if dget["calls"] else 0.0
    )
    values["diskcache.bytes"] = rep.cache_bytes
    values["pool.job_s.p50"] = statistics.median(job["durations"]) if job["durations"] else 0.0
    values["pool.job_s.tail"] = _tail_value(job["durations"]) if job["durations"] else 0.0
    values["pool.wait_s"] = get("pool.wait")["busy_s"]
    values["store.commit_retries"] = process["counts"].get("commit_retries", 0)
    values["queue.claimed"] = get("queue.claim_next")["counts"].get("claimed", 0)
    values["queue.fenced"] = process["counts"].get("fenced", 0)
    for field in ("claimed", "completed", "failed", "retried"):
        values[f"worker.{field}"] = drain["counts"].get(field, 0)
    values["campaign.share"] = sum(get(name)["self_s"] for name in CAMPAIGN_LAYERS) / wall
    values["process.outside_s"] = max(0.0, wall - process["busy_s"])
    values["trace.wall_s"] = wall
    values["trace.spans"] = sum(entry["calls"] for entry in layers.values())
    return values


# -- a run ---------------------------------------------------------------------


def load_golden() -> dict[str, Any]:
    try:
        return json.loads(GOLDEN.read_text())
    except FileNotFoundError:
        return {}


def prepare(
    wl: Workload, seed: int, run_dir: Path, deadline: float
) -> tuple[Path | None, Path | None]:
    """Untimed preparation: the spec file and, for a warm-cache workload,
    the filled disk cache."""
    spec = None
    if wl.campaign:
        spec = run_dir / f"{wl.name}.json"
        spec.write_text(json.dumps(wl.spec(seed), indent=1))
    # Import once so byte-compiled files and the page cache are as warm
    # as on a user's second invocation.
    warm_env = isolated_env(run_dir / "import-cache", run_dir / "import.sqlite")
    launch(
        [sys.executable, "-c", "import repro.__main__, repro.campaign"],
        warm_env, run_dir / "warmup.log", deadline,
    )
    warm_cache = None
    if wl.warm_cache:
        # One scheduler over the same mixes computes every trace and
        # alone baseline the timed runs will read; the store is discarded.
        warm_spec = run_dir / "warm-spec.json"
        warm_spec.write_text(json.dumps({**wl.spec(seed), "schedulers": ["FCFS"]}))
        warm_cache = run_dir / "warm-cache"
        env = isolated_env(warm_cache, run_dir / "warm.sqlite")
        log = run_dir / "warm.log"
        argv = program(wl.flags() + ["campaign", "run", str(warm_spec)], None, "")
        _, code, _ = launch(argv, env, log, deadline)
        if code != 0:
            print(f"[{wl.name}] warming pass exited {code}:\n{_tail(log)}", file=sys.stderr)
    return spec, warm_cache


def measure(
    wl: Workload, seed: int, seconds: float, trace: bool, run_dir: Path, deadline: float
) -> dict[str, Any]:
    spec, warm_cache = prepare(wl, seed, run_dir, deadline)
    golden = load_golden().get(wl.name) if seed == DEFAULT_SEED else None
    reference = golden
    untraced: list[Rep] = []
    traced: list[Rep] = []
    attempted = failed = 0
    start = time.monotonic()
    costs: list[float] = []
    for index in itertools.count():
        rep_start = time.monotonic()
        # The traced run alternates untraced and traced repetitions so
        # the overhead compares like with like.
        is_traced = trace and index > 0 and len(traced) < len(untraced)
        rep = run_rep(wl, seed, run_dir, spec, warm_cache, traced=is_traced, index=index,
                      deadline=deadline)
        if reference is None and rep.summary:
            reference = rep.summary
        attempted += rep.attempted
        failed += rep.failed + check_rep(rep, reference, wl.name)
        # The first repetition of a run measured 10-20% slower than the
        # rest on cold-4core and direct-python; it is checked like the
        # others but not timed.
        if index > 0:
            (traced if is_traced else untraced).append(rep)
        costs.append(time.monotonic() - rep_start)
        enough = untraced and (traced or not trace)
        if enough and time.monotonic() - start + statistics.median(costs) > seconds:
            break
        if time.monotonic() >= deadline:
            break
    return {
        "untraced": untraced,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "golden": golden is not None,
    }


def report(wl: Workload, seed: int, result: dict[str, Any], trace: bool) -> dict[str, Any]:
    untraced: list[Rep] = result["untraced"]
    series: dict[str, list[float]] = {
        "wall_s": [r.wall_s for r in untraced],
        "setup_s": [r.setup_s for r in untraced if r.setup_s is not None],
        "peak_rss_mb": [r.peak_rss_mb for r in untraced],
    }
    units = dict(END_TO_END)
    if trace:
        traced: list[Rep] = result["traced"]
        per_rep = [layer_values(r) for r in traced]
        series = {
            name: [values[name] for values in per_rep]
            for name in LAYER_METRICS
            if name in per_rep[0]
        }
        untraced_wall = statistics.median(r.wall_s for r in untraced)
        series["trace.untraced_wall_s"] = [untraced_wall]
        series["trace.overhead_s"] = [statistics.median(r.wall_s for r in traced) - untraced_wall]
        series["fail_ratio"] = [result["failed"] / result["attempted"]]
        units = LAYER_METRICS
    check = "golden digest" if result["golden"] else "run-to-run identity"
    traced_note = f", {len(result['traced'])} traced" if trace else ""
    print(f"# {wl.name}  seed={seed}  repetitions={len(untraced)} untraced"
          f"{traced_note}  check={check}")
    print(f"# {'metric':<28} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12}  n")
    metrics = {}
    for name in units:
        values = series.get(name)
        if not values:
            continue
        q1, median, q3 = _quartiles(values)
        print(
            f"  {name:<28} {units[name][0]:<8} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
            f"  {len(values)}"
        )
        if name in END_TO_END and not trace:
            each = " ".join(f"{v:.4g}" for v in values)
            print(f"#   {name} per repetition: {each}", file=sys.stderr)
        metrics[name] = {"value": median, "unit": units[name][0]}
    return metrics


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'} not found)", file=sys.stderr)
        return 2
    args = parse_args(argv)
    wl = workloads()[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if args.write_golden:
            return write_golden(wl, run_dir, deadline)
        result = measure(wl, args.seed, args.seconds, bool(args.trace), run_dir, deadline)
        if not result["untraced"] or (args.trace and not result["traced"]):
            print(f"error: no repetition finished within {RUN_LIMIT_S:g} s", file=sys.stderr)
            return 1
        metrics = report(wl, args.seed, result, bool(args.trace))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def write_golden(wl: Workload, run_dir: Path, deadline: float) -> int:
    spec, warm_cache = prepare(wl, DEFAULT_SEED, run_dir, deadline)
    rep = run_rep(wl, DEFAULT_SEED, run_dir, spec, warm_cache, traced=False, index=0,
                  deadline=deadline)
    if rep.failed or not rep.summary:
        print(f"[{wl.name}] repetition failed; golden.json not written", file=sys.stderr)
        return 1
    golden = load_golden()
    golden[wl.name] = {
        "seed": DEFAULT_SEED,
        **{key: rep.summary[key] for key in ("digest", "jobs", "counts")},
    }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"[{wl.name}] golden digest {rep.summary['digest']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
