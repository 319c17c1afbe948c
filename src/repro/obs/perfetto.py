"""Chrome trace-event (Perfetto-loadable) export of a structured trace.

Converts a stream of :mod:`repro.obs.trace` events into the Chrome
trace-event JSON format, which both https://ui.perfetto.dev and
``chrome://tracing`` open directly.  The memory system is mapped onto
tracks so a full PAR-BS batch lifecycle is visually inspectable:

* **pid 1 "cores"** — one track per hardware thread: request wait
  (enqueue→issue) and service (issue→complete) slices, plus commit-stall
  slices from the core model;
* **pid 2 "DRAM banks"** — one track per (channel, bank): the serviced
  request as a slice, with instant markers for the PRE/ACT/RD/WR command
  sequence;
* **pid 3 "scheduler"** — batch lifetimes as slices (args carry the
  per-thread marked counts and the Max-Total ranking), epoch bumps and
  index rebuilds as instants;
* **pid 4 "counters"** — counter tracks from the periodic sampler (queue
  occupancy, marked requests, per-thread outstanding, row-hit rate).

Timestamps are microseconds (``ts = cycles / cycles_per_us``; 4 GHz cores
→ 4000 cycles/µs).  Events may arrive in emission order rather than time
order — the viewers sort internally, so no pre-sort is needed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

__all__ = ["chrome_trace", "write_chrome_trace"]

# Default cycles-per-microsecond at the paper's 4 GHz core clock.
CYCLES_PER_US = 4000.0

PID_CORES = 1
PID_BANKS = 2
PID_SCHED = 3
PID_COUNTERS = 4


def _bank_tid(channel: int, bank: int) -> int:
    # Flat, stable track id per (channel, bank); 64 banks/channel is far
    # above any configuration in the suite.
    return channel * 64 + bank


def chrome_trace(
    events: Iterable[dict], cycles_per_us: float = CYCLES_PER_US
) -> dict:
    """Convert trace-bus events into a Chrome trace-event JSON object."""
    out: list[dict] = []
    named: set[tuple[int, int]] = set()

    def name_track(pid: int, tid: int, name: str) -> None:
        if (pid, tid) in named:
            return
        named.add((pid, tid))
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": {"name": name},
            }
        )

    for pid, name in (
        (PID_CORES, "cores"),
        (PID_BANKS, "DRAM banks"),
        (PID_SCHED, "scheduler"),
        (PID_COUNTERS, "counters"),
    ):
        out.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )

    def ts(cycles: int) -> float:
        return cycles / cycles_per_us

    def slice_event(pid, tid, name, start, end, args=None) -> dict:
        event = {
            "name": name,
            "cat": "repro",
            "ph": "X",
            "ts": ts(start),
            "dur": max(0.0, ts(end) - ts(start)),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        return event

    def instant(pid, tid, name, t, args=None) -> dict:
        event = {
            "name": name,
            "cat": "repro",
            "ph": "i",
            "s": "t",
            "ts": ts(t),
            "pid": pid,
            "tid": tid,
        }
        if args:
            event["args"] = args
        return event

    def counter(name, t, values: dict) -> dict:
        return {
            "name": name,
            "ph": "C",
            "ts": ts(t),
            "pid": PID_COUNTERS,
            "tid": 0,
            "args": values,
        }

    enqueued: dict[int, dict] = {}  # req -> enqueue event
    issued: dict[int, dict] = {}  # req -> issue event
    stalled: dict[int, int] = {}  # thread -> stall start cycle
    batch_open: dict[int, dict] = {}  # batch index -> formed event

    for event in events:
        ev = event["ev"]
        t = event["t"]
        if ev == "request.enqueue":
            enqueued[event["req"]] = event
            name_track(PID_CORES, event["thread"], f"thread {event['thread']}")
        elif ev == "request.issue":
            issued[event["req"]] = event
            start = enqueued.pop(event["req"], None)
            if start is not None:
                out.append(
                    slice_event(
                        PID_CORES,
                        event["thread"],
                        f"wait b{event['bank']}",
                        start["t"],
                        t,
                        {"row": event["row"], "result": event["result"]},
                    )
                )
        elif ev == "request.complete":
            issue = issued.pop(event["req"], None)
            if issue is not None:
                tid = _bank_tid(issue["ch"], issue["bank"])
                name_track(PID_BANKS, tid, f"ch{issue['ch']} bank{issue['bank']}")
                name_track(PID_CORES, event["thread"], f"thread {event['thread']}")
                args = {
                    "req": event["req"],
                    "thread": event["thread"],
                    "row": issue["row"],
                    "result": issue["result"],
                    "latency_cycles": event["latency"],
                }
                out.append(
                    slice_event(
                        PID_BANKS,
                        tid,
                        f"t{event['thread']} row{issue['row']} {issue['result']}",
                        issue["t"],
                        t,
                        args,
                    )
                )
                out.append(
                    slice_event(
                        PID_CORES,
                        event["thread"],
                        f"dram b{issue['bank']}",
                        issue["t"],
                        t,
                        args,
                    )
                )
        elif ev == "dram.cmd":
            tid = _bank_tid(event["ch"], event["bank"])
            name_track(PID_BANKS, tid, f"ch{event['ch']} bank{event['bank']}")
            out.append(
                instant(
                    PID_BANKS,
                    tid,
                    event["cmd"],
                    t,
                    {k: v for k, v in event.items() if k not in ("t", "ev")},
                )
            )
        elif ev == "dram.drain":
            out.append(counter("write_drain", t, {"on": event["on"]}))
        elif ev == "batch.formed":
            batch_open[event["index"]] = event
            name_track(PID_SCHED, 0, "batches")
            out.append(
                instant(
                    PID_SCHED,
                    0,
                    f"batch {event['index']} formed",
                    t,
                    {
                        "marked": event["marked"],
                        "per_thread": event["per_thread"],
                        "ranks": event.get("ranks", {}),
                        "backlog": event.get("backlog", {}),
                    },
                )
            )
            out.append(counter("batch_marked", t, {"marked": event["marked"]}))
        elif ev == "batch.completed":
            formed = batch_open.pop(event["index"], None)
            name_track(PID_SCHED, 0, "batches")
            if formed is not None:
                out.append(
                    slice_event(
                        PID_SCHED,
                        0,
                        f"batch {event['index']}",
                        formed["t"],
                        t,
                        {
                            "marked": formed["marked"],
                            "per_thread": formed["per_thread"],
                            "ranks": formed.get("ranks", {}),
                            "duration_cycles": event["duration"],
                        },
                    )
                )
            out.append(counter("batch_marked", t, {"marked": 0}))
        elif ev == "sched.epoch":
            name_track(PID_SCHED, 1, "epochs")
            out.append(instant(PID_SCHED, 1, f"epoch {event['epoch']}", t))
        elif ev == "sched.rqindex_rebuild":
            name_track(PID_SCHED, 2, "rqindex rebuilds")
            out.append(
                instant(
                    PID_SCHED,
                    2,
                    f"rebuild ch{event['ch']} b{event['bank']}",
                    t,
                    {"epoch": event["epoch"], "size": event["size"]},
                )
            )
        elif ev == "core.stall":
            stalled[event["thread"]] = t
            name_track(PID_CORES, event["thread"], f"thread {event['thread']}")
        elif ev == "core.unstall":
            start_t = stalled.pop(event["thread"], None)
            if start_t is not None:
                out.append(
                    slice_event(PID_CORES, event["thread"], "stall", start_t, t)
                )
        elif ev == "sample.tick":
            out.append(
                counter(
                    "queue occupancy",
                    t,
                    {
                        "reads": event["queue_reads"],
                        "writes": event["queue_writes"],
                    },
                )
            )
            out.append(
                counter(
                    "row-hit rate", t, {"rate": round(event["row_hit_rate"], 4)}
                )
            )
            if "marked" in event:
                out.append(counter("marked (sampled)", t, {"marked": event["marked"]}))
            for thread_id, (pending, in_service) in sorted(
                event.get("threads", {}).items()
            ):
                out.append(
                    counter(
                        f"t{thread_id} outstanding",
                        t,
                        {"buffered": pending, "in_service": in_service},
                    )
                )

    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str | Path,
    events: Iterable[dict],
    cycles_per_us: float = CYCLES_PER_US,
) -> Path:
    """Write ``events`` as a Chrome/Perfetto trace JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        trace = chrome_trace(events, cycles_per_us)
        fh.write(json.dumps(trace, separators=(",", ":")))
        fh.write("\n")
    return path
