"""Tests for the observability layer (:mod:`repro.obs`).

Layers:

* unit tests for the trace bus (probe filtering, sinks, JSONL round
  trips), the latency histogram math, and the periodic event-queue task;
* controller-level tests for the write-drain flip events;
* end-to-end traced PAR-BS runs asserting the acceptance criterion: the
  ``batch.formed`` event stream matches the live batcher/scheduler state
  (per-thread marked counts, Max-Total ranking), epoch bumps and index
  rebuilds appear, and tracing changes nothing about the simulation;
* Perfetto/Chrome-trace export structure.
"""

import json

import pytest

from repro.config import baseline_system
from repro.events import EventQueue
from repro.obs import (
    CATEGORIES,
    JsonlSink,
    LatencyHistogram,
    RingBufferSink,
    Telemetry,
    TraceConfig,
    Tracer,
    chrome_trace,
    read_jsonl,
    write_chrome_trace,
)
from repro.sim.factory import make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System

WORKLOAD = ["libquantum", "mcf", "GemsFDTD", "xalancbmk"]
INSTRUCTIONS = 5_000


# ------------------------------------------------------------- trace bus


def test_probe_filtering_returns_none_for_disabled_categories():
    tracer = Tracer([RingBufferSink()], events=("batch", "sched"))
    assert tracer.probe("request") is None
    assert tracer.probe("batch") is not None
    assert tracer.probe("sched") is not None


def test_unknown_categories_rejected():
    with pytest.raises(ValueError, match="unknown trace event categor"):
        Tracer([RingBufferSink()], events=("batch", "typo"))
    tracer = Tracer([RingBufferSink()])
    with pytest.raises(ValueError):
        tracer.probe("nonsense")


def test_probe_emits_to_all_sinks_with_stable_field_order():
    ring_a, ring_b = RingBufferSink(), RingBufferSink()
    tracer = Tracer([ring_a, ring_b])
    probe = tracer.probe("dram")
    probe.emit(7, "dram.cmd", cmd="ACT", ch=0, bank=3)
    assert list(ring_a) == [{"t": 7, "ev": "dram.cmd", "cmd": "ACT", "ch": 0, "bank": 3}]
    assert list(ring_b) == list(ring_a)
    # Insertion order is pinned: t, ev, then fields in emit order.
    assert list(ring_a.events[0]) == ["t", "ev", "cmd", "ch", "bank"]


def test_ring_buffer_capacity_and_of_type():
    ring = RingBufferSink(capacity=2)
    for i in range(5):
        ring.emit({"t": i, "ev": "core.stall" if i % 2 else "core.unstall"})
    assert len(ring) == 2
    assert ring.emitted == 5
    assert [e["t"] for e in ring] == [3, 4]
    assert [e["t"] for e in ring.of_type("core.stall")] == [3]
    assert len(ring.of_type("core")) == 2


def test_jsonl_sink_round_trip(tmp_path):
    path = tmp_path / "sub" / "trace.jsonl"
    sink = JsonlSink(path)
    events = [
        {"t": 0, "ev": "request.enqueue", "req": 0, "thread": 1},
        {"t": 5, "ev": "request.complete", "req": 0, "latency": 5},
    ]
    for event in events:
        sink.emit(event)
    sink.close()
    assert read_jsonl(path) == events
    # Compact separators, one object per line.
    text = path.read_text()
    assert text == (
        '{"t":0,"ev":"request.enqueue","req":0,"thread":1}\n'
        '{"t":5,"ev":"request.complete","req":0,"latency":5}\n'
    )


def test_jsonl_sink_lazy_open_leaves_nothing_for_empty_runs(tmp_path):
    path = tmp_path / "empty.jsonl"
    sink = JsonlSink(path)
    sink.close()
    assert not path.exists()


# ------------------------------------------------------- latency histogram


def test_latency_histogram_quantiles_and_max():
    hist = LatencyHistogram()
    for value in [1, 2, 3, 100, 200, 300, 400, 500, 1000, 5000]:
        hist.record(value)
    assert hist.count == 10
    assert hist.max == 5000
    assert hist.total == sum([1, 2, 3, 100, 200, 300, 400, 500, 1000, 5000])
    # p50 falls in the bucket holding 100..255 → upper edge 255.
    assert hist.percentile(0.50) == 255
    # The top quantiles are clamped to the exact maximum.
    assert hist.percentile(1.0) == 5000
    summary = hist.summary()
    assert summary["count"] == 10
    assert summary["p95"] <= summary["p99"] <= summary["max"] == 5000


def test_latency_histogram_empty_and_zero():
    hist = LatencyHistogram()
    assert hist.percentile(0.5) == 0
    assert hist.mean == 0.0
    hist.record(0)
    assert hist.percentile(0.99) == 0
    assert hist.max == 0
    with pytest.raises(ValueError):
        hist.percentile(0.0)


def test_latency_histogram_quantile_upper_bound_property():
    # The reported quantile never underestimates the true quantile and
    # overestimates by less than 2x (power-of-two buckets).
    values = [3, 7, 12, 64, 65, 120, 999, 1024, 4097]
    hist = LatencyHistogram()
    for v in values:
        hist.record(v)
    for p in (0.5, 0.9, 0.95, 0.99):
        exact = sorted(values)[min(len(values) - 1, int(p * len(values)))]
        reported = hist.percentile(p)
        assert reported >= exact * 0.5
        assert reported <= hist.max


# ---------------------------------------------------------- periodic task


def test_schedule_every_fires_and_cancels():
    queue = EventQueue()
    ticks = []
    task = queue.schedule_every(10, lambda: ticks.append(queue.now))
    stop = []
    queue.schedule(35, lambda: stop.append(task.cancel()) and None)
    # Drive manually: run until the heap drains (cancel makes that happen).
    while queue.step():
        pass
    assert ticks == [10, 20, 30]
    assert task.fired == 3
    assert task.cancelled


def test_schedule_every_rejects_bad_interval():
    with pytest.raises(ValueError):
        EventQueue().schedule_every(0, lambda: None)


# --------------------------------------------------------------- config


def test_trace_config_from_env_roundtrip():
    assert TraceConfig.from_env({}) is None
    cfg = TraceConfig.from_env(
        {
            "REPRO_TRACE": "/tmp/tr",
            "REPRO_TRACE_EVENTS": "batch, sched",
            "REPRO_SAMPLE_INTERVAL": "500",
            "REPRO_TRACE_PERFETTO": "1",
        }
    )
    assert cfg == TraceConfig(
        dir="/tmp/tr", events=("batch", "sched"), sample_interval=500, perfetto=True
    )
    assert cfg.active and cfg.wants_events
    sampler_only = TraceConfig.from_env({"REPRO_SAMPLE_INTERVAL": "100"})
    assert sampler_only.active and not sampler_only.wants_events
    assert not TraceConfig().active


def test_trace_config_validates_interval():
    with pytest.raises(ValueError):
        TraceConfig(sample_interval=0)


# ------------------------------------------------- end-to-end traced runs


def _traced_system(
    ring, events=None, sample_interval=None, scheduler=None, backend="python"
):
    config = baseline_system(len(WORKLOAD))
    runner = ExperimentRunner(
        config, instructions=INSTRUCTIONS, seed=0, cache_dir=None
    )
    traces = [runner.trace_for(b) for b in WORKLOAD]
    tracer = Tracer([ring], events=events)
    telemetry = (
        Telemetry(sample_interval, probe=tracer.probe("sample"))
        if sample_interval
        else None
    )
    scheduler = scheduler or make_scheduler("PAR-BS", len(WORKLOAD))
    system = System(
        config, scheduler, traces, tracer=tracer, telemetry=telemetry,
        backend=backend,
    )
    return system, scheduler, telemetry


def test_parbs_batch_events_match_live_batcher_state():
    """Acceptance: every ``batch.formed`` event's per-thread marked counts
    and ranking equal the batcher/scheduler state at formation time."""
    ring = RingBufferSink()
    system, scheduler, _ = _traced_system(ring)
    batcher = scheduler.batcher

    live = []
    original = batcher.on_new_batch

    def recording_hook(marked, now):
        original(marked, now)
        if marked:
            per_thread = {}
            for request in marked:
                per_thread[request.thread_id] = per_thread.get(request.thread_id, 0) + 1
            live.append(
                {
                    "index": batcher.batch_index,
                    "marked": len(marked),
                    "per_thread": per_thread,
                    "ranks": dict(scheduler._ranks),
                }
            )

    batcher.on_new_batch = recording_hook
    system.run()

    formed = ring.of_type("batch.formed")
    assert len(formed) == batcher.batches_formed == len(live)
    assert sum(e["marked"] for e in formed) == batcher.marked_cum
    for event, expected in zip(formed, live):
        assert event["index"] == expected["index"]
        assert event["marked"] == expected["marked"]
        assert event["per_thread"] == dict(sorted(expected["per_thread"].items()))
        assert event["ranks"] == dict(sorted(expected["ranks"].items()))
        assert sum(event["per_thread"].values()) == event["marked"]
        # Marking-Cap: at most cap marks per thread per bank; baseline has
        # cap 5 and 8 banks.
        cap = batcher.marking_cap * system.config.dram.num_banks
        assert all(n <= cap for n in event["per_thread"].values())

    completed = ring.of_type("batch.completed")
    assert completed, "batches completed during the run"
    for event in completed:
        assert event["duration"] >= 0


def test_parbs_traced_run_emits_all_categories():
    # The fast backend: only its packed-key kernel repacks keys, so only it
    # emits ``sched.rqindex_rebuild``.
    ring = RingBufferSink()
    system, scheduler, telemetry = _traced_system(
        ring, sample_interval=1000, backend="fast"
    )
    system.run()

    kinds = {e["ev"] for e in ring}
    assert {
        "request.enqueue",
        "request.issue",
        "request.complete",
        "dram.cmd",
        "batch.formed",
        "batch.completed",
        "sched.epoch",
        "sched.rqindex_rebuild",
        "core.stall",
        "core.unstall",
        "sample.tick",
    } <= kinds

    # Epoch events mirror the scheduler's epoch counter one-for-one.
    assert len(ring.of_type("sched.epoch")) == scheduler.index_epoch

    # Request lifecycle: completes pair with enqueues via run-relative ids.
    enqueued = {e["req"] for e in ring.of_type("request.enqueue")}
    issued = [e for e in ring.of_type("request.issue")]
    completed = [e for e in ring.of_type("request.complete")]
    assert {e["req"] for e in issued} <= enqueued
    assert {e["req"] for e in completed} <= enqueued
    assert min(enqueued) == 0  # run-relative, not process-global

    controller = system.controller
    assert len(enqueued) == controller.total_reads + controller.total_writes

    # Issue events carry the row result; DRAM commands carry the hit flag.
    assert {e["result"] for e in issued} <= {"hit", "closed", "conflict"}
    cas = [e for e in ring.of_type("dram.cmd") if e["cmd"] in ("RD", "WR")]
    assert len(cas) == len(issued)
    assert sum(e["row_hit"] for e in cas) == sum(
        s.row_hits for s in controller.thread_stats.values()
    )

    # Stall/unstall edges alternate per thread.
    for thread_id in range(len(WORKLOAD)):
        edges = [
            e["ev"]
            for e in ring.of_type("core")
            if e["thread"] == thread_id
        ]
        for first, second in zip(edges, edges[1:]):
            assert first != second, "stall edges must alternate"

    # The telemetry recorder sampled and collected latencies.
    assert telemetry is not None
    assert telemetry.samples
    total_completes = len(completed)
    assert sum(h.count for h in telemetry.histograms.values()) == total_completes
    summary = telemetry.summary()
    assert summary.bus["transfers"] > 0
    assert summary.latency  # per-thread digests present
    for digest in summary.latency.values():
        assert digest["p50"] <= digest["p95"] <= digest["p99"] <= digest["max"]


def test_tracing_does_not_change_the_simulation():
    """Probes observe; they must never perturb timing or statistics."""

    def run(traced):
        config = baseline_system(len(WORKLOAD))
        runner = ExperimentRunner(
            config, instructions=INSTRUCTIONS, seed=0, cache_dir=None
        )
        traces = [runner.trace_for(b) for b in WORKLOAD]
        tracer = Tracer([RingBufferSink()]) if traced else None
        telemetry = Telemetry(500) if traced else None
        system = System(
            config,
            make_scheduler("PAR-BS", len(WORKLOAD)),
            traces,
            tracer=tracer,
            telemetry=telemetry,
        )
        system.run()
        state = {
            "cycles": system.queue.now,
            "events": system.events_processed,
        }
        for thread_id, s in sorted(system.controller.thread_stats.items()):
            state[thread_id] = (
                s.reads, s.writes, s.row_hits, s.row_conflicts,
                s.latency_sum, s.latency_max, s.blp_integral, s.busy_time,
            )
        for core in system.cores:
            state[f"core{core.thread_id}"] = (
                core.finish_time, core.stall_cycles, core.loads_issued,
                core.stores_issued, core.instructions_retired,
            )
        return state

    untraced = run(traced=False)
    traced = run(traced=True)
    # The sampler adds its own events to the queue; everything else —
    # timing and every statistic — must be identical.
    untraced.pop("events")
    traced.pop("events")
    assert traced == untraced


def test_write_drain_flip_events():
    """Drive a bare controller across the drain watermarks and check the
    ``dram.drain`` edge events (exactly one per mode flip, with the
    occupancy that triggered it)."""
    from repro.config import DramConfig
    from repro.dram.controller import MemoryController
    from repro.dram.request import MemoryRequest, RequestType
    from repro.schedulers.frfcfs import FrFcfsScheduler

    ring = RingBufferSink()
    tracer = Tracer([ring], events=("dram",))
    queue = EventQueue()
    config = DramConfig(write_drain_high=3, write_drain_low=1)
    controller = MemoryController(
        queue, config, FrFcfsScheduler(), 1, tracer=tracer
    )
    for i in range(6):
        controller.enqueue(
            MemoryRequest(
                thread_id=0, address=0, channel=0, bank=0, row=i,
                type=RequestType.WRITE,
            )
        )
    assert controller.draining_writes  # 6 > high watermark
    queue.run()
    assert controller.write_occupancy == 0
    assert not controller.draining_writes
    flips = ring.of_type("dram.drain")
    states = [e["on"] for e in flips]
    # One on-flip when occupancy crossed high, one off-flip at low; the
    # edge guards must not re-emit while already in the mode.
    assert states == [1, 0]
    assert flips[0]["writes"] == 4  # first enqueue above high=3
    assert flips[1]["writes"] == config.write_drain_low


def test_category_filtering_end_to_end():
    ring = RingBufferSink()
    system, _, _ = _traced_system(ring, events=("batch",))
    system.run()
    assert ring.events, "batch events recorded"
    assert {e["ev"].split(".")[0] for e in ring} == {"batch"}


# ------------------------------------------------------------ perfetto


def test_chrome_trace_structure():
    ring = RingBufferSink()
    system, _, _ = _traced_system(ring, sample_interval=2000)
    system.run()
    doc = chrome_trace(ring)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    phases = {e["ph"] for e in events}
    assert {"M", "X", "i", "C"} <= phases
    # Process metadata names all four track groups.
    names = {
        e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert names == {"cores", "DRAM banks", "scheduler", "counters"}
    # Batch slices exist and carry the ranking args.
    batch_slices = [
        e for e in events if e["ph"] == "X" and e["name"].startswith("batch ")
    ]
    assert batch_slices
    assert all("per_thread" in e["args"] for e in batch_slices)
    # Slices have non-negative durations and µs timestamps.
    for e in events:
        if e["ph"] == "X":
            assert e["dur"] >= 0
    # The whole document serializes to JSON (Perfetto-loadable).
    json.dumps(doc)


def test_write_chrome_trace_survives_jsonl_round_trip(tmp_path):
    """The exporter must accept events re-read from JSONL (string keys)."""
    ring = RingBufferSink()
    system, _, _ = _traced_system(ring, sample_interval=2000)
    system.run()
    jsonl = tmp_path / "run.jsonl"
    sink = JsonlSink(jsonl)
    for event in ring:
        sink.emit(event)
    sink.close()
    out = write_chrome_trace(tmp_path / "run.perfetto.json", read_jsonl(jsonl))
    with out.open() as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]
    direct = chrome_trace(ring)
    assert len(doc["traceEvents"]) == len(direct["traceEvents"])


def test_all_categories_constant_matches_tracer():
    # Every probe the simulator requests must be a declared category.
    tracer = Tracer([RingBufferSink()])
    for category in CATEGORIES:
        assert tracer.probe(category) is not None
