"""Span tracer for the benchmark's traced run, applied from outside ``src/``.

The traced run starts each step of a workload through this file instead
of ``python -m repro``.  Before handing control to the program it wraps
the public entry points of every layer (see ``LAYER_CALLS``) so that each
call records one span: name, start, end, the span that was open when it
was made (its parent), the process id and the run id.  Spans stay in
memory and are written out once, as JSON lines, when the process ends.

Pool workers are forked from a traced process, so they inherit the
wrappers.  A forked worker starts with an empty span list whose parent is
the span that was open in the submitting process at fork time; it writes
its spans each time its outermost span closes, because pool workers are
ended by the pool rather than returning through this file.

Usage (the benchmark builds these command lines)::

    python3 perfbench/spans.py OUT_DIR RUN_ID -- [repro CLI arguments]
    python3 perfbench/spans.py OUT_DIR RUN_ID -- direct [direct.py arguments]

:func:`load` and :func:`summarize` read the files back; they do not
import the program.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable


class Recorder:
    """Spans of one process, kept in memory until :meth:`flush`."""

    def __init__(self, out_dir: Path, run_id: str) -> None:
        self.out_dir = out_dir
        self.run_id = run_id
        self.owner = os.getpid()
        self.pid = self.owner
        self.spans: list[dict[str, Any]] = []
        self.stack: list[str] = []
        self.serial = 0
        self.fork_parent: str | None = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.fork_parent = self.stack[-1] if self.stack else self.fork_parent
        self.pid = os.getpid()
        self.spans = []
        self.stack = []
        self.serial = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Callable[[tuple, Any], dict[str, Any]] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call.  ``counts(args, result)``
        adds counts read from the call's arguments and return value."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{self.pid}.{self.serial}"
            self.serial += 1
            parent = self.stack[-1] if self.stack else self.fork_parent
            self.stack.append(span_id)
            start = time.monotonic()
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.monotonic()
                self.stack.pop()
                span = {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "pid": self.pid,
                    "run": self.run_id,
                }
                if not ok:
                    span["error"] = True
                elif counts is not None:
                    span["counts"] = counts(args, result)
                self.spans.append(span)
                if not self.stack and self.pid != self.owner:
                    self.flush()

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with path.open("a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        self.spans = []


def _system_counts(args: tuple, cycles: int) -> dict[str, int]:
    system = args[0]
    return {
        "sim_cycles": cycles,
        "events_logical": system.events_logical,
        "events_processed": system.events_processed,
        "events_elided": system.events_elided,
        "min_rebuilds": system.min_rebuilds,
    }


def _worker_counts(args: tuple, stats) -> dict[str, int]:
    return {
        field: getattr(stats, field)
        for field in ("claimed", "completed", "failed", "retried", "fenced")
    }


# (module, attribute, span name, counts): module-level functions are
# rebound in every ``repro`` module that imported them by name; a
# ``Class.method`` attribute is rebound on the class.
LAYER_CALLS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("repro.workloads.generator", "TraceGenerator.generate", "workloads.generate", None),
    (
        "repro.traces.source",
        "TraceRequestSource.materialize",
        "traces.materialize",
        lambda args, trace: {"requests_read": trace.ingest.requests_read},
    ),
    ("repro.sim.runner", "ExperimentRunner.alone", "runner.alone", None),
    ("repro.sim.runner", "ExperimentRunner.run_workload", "runner.shared", None),
    ("repro.sim.runner", "ExperimentRunner.compare_schedulers", "runner.compare", None),
    ("repro.sim.system", "System.run", "system.run", _system_counts),
    (
        "repro.sim.diskcache",
        "DiskCache.get",
        "diskcache.get",
        lambda args, value: {"hits": int(value is not None)},
    ),
    ("repro.sim.diskcache", "DiskCache.put", "diskcache.put", None),
    ("repro.sim.pool", "run_jobs", "pool.run_jobs", None),
    ("repro.sim.pool", "run_job", "pool.job", None),
    ("concurrent.futures", "wait", "pool.wait", None),
    ("repro.campaign.spec", "CampaignSpec.expand", "spec.expand", None),
    ("repro.campaign.store", "ResultStore.register", "store.register", None),
    ("repro.campaign.store", "ResultStore.statuses", "store.statuses", None),
    (
        "repro.campaign.queue",
        "LeaseQueue.claim_next",
        "queue.claim_next",
        lambda args, lease: {"claimed": int(lease is not None)},
    ),
    ("repro.campaign.queue", "LeaseQueue.complete", "queue.complete", None),
    ("repro.campaign.queue", "LeaseQueue.heartbeat", "queue.heartbeat", None),
    ("repro.campaign.orchestrator", "run_campaign", "campaign.run", None),
    ("repro.campaign.worker", "drain_campaign", "worker.drain", _worker_counts),
    ("repro.campaign.report", "campaign_report", "report.render", None),
    ("repro.campaign.report", "export_text", "report.export", None),
)


def install(recorder: Recorder) -> None:
    """Wrap every entry point in :data:`LAYER_CALLS`."""
    import importlib

    # Import everything that binds the wrapped functions by name first,
    # so the rebinding below reaches each copy.
    for module in ("repro.__main__", "repro.campaign", "repro.sim.pool"):
        importlib.import_module(module)
    for module_name, attr, name, counts in LAYER_CALLS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, method, recorder.wrap(name, getattr(cls, method), counts))
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, counts)
        for loaded in list(sys.modules.values()):
            owner = getattr(loaded, "__name__", "")
            if (owner == "repro" or owner.startswith("repro.")) and getattr(
                loaded, attr, None
            ) is original:
                setattr(loaded, attr, wrapped)


def _process_counts() -> dict[str, int]:
    """Operational counters the store and queue keep per process."""
    from repro.campaign import QUEUE_STATS, STORE_STATS

    return {
        "commit_retries": STORE_STATS["commit_retries"],
        "fenced": QUEUE_STATS["leases_fenced"],
    }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(
            "usage: spans.py OUT_DIR RUN_ID -- [repro args | direct args]",
            file=sys.stderr,
        )
        return 2
    out_dir, run_id, program = Path(argv[0]), argv[1], argv[3:]
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(out_dir, run_id)
    install(recorder)
    if program[:1] == ["direct"]:
        import direct

        entry, args = direct.main, program[1:]
    else:
        from repro.__main__ import main as entry

        args = program
    process = recorder.wrap("process", entry, lambda a, rc: _process_counts())
    try:
        status = process(args)
    finally:
        recorder.flush()
    return status


# -- reading spans back --------------------------------------------------------


def load(out_dir: Path) -> list[dict[str, Any]]:
    """Every span written under ``out_dir`` (all processes)."""
    spans: list[dict[str, Any]] = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        with path.open() as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def summarize(spans: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Per span name: ``calls``, ``busy_s`` (summed durations), ``self_s``
    (durations minus the part of each span its children cover), the
    list of ``durations``, summed ``counts``, and ``with_sim`` — calls
    that had a ``system.run`` child (a computed alone baseline)."""
    children: dict[str, list[dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    out: dict[str, dict[str, Any]] = {}
    for span in spans:
        entry = out.setdefault(
            span["name"],
            {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": [],
             "counts": {}, "with_sim": 0},
        )
        start, end = span["start"], span["end"]
        kids = children.get(span["id"], [])
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += (end - start) - _covered(
            ((k["start"], k["end"]) for k in kids), start, end
        )
        entry["durations"].append(end - start)
        entry["with_sim"] += any(k["name"] == "system.run" for k in kids)
        for key, value in span.get("counts", {}).items():
            entry["counts"][key] = entry["counts"].get(key, 0) + value
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
