"""Edge-case tests for the analytical core model."""

from repro.config import CoreConfig
from repro.cpu.core import Core
from repro.cpu.trace import Trace, TraceEntry
from repro.events import EventQueue


class Port:
    def __init__(self, queue, latency=100):
        self.queue = queue
        self.latency = latency
        self.issues = []

    def access(self, thread_id, address, is_write, on_complete):
        self.issues.append((self.queue.now, address, is_write))
        if on_complete is not None:
            self.queue.schedule_in(self.latency, on_complete)


def run(entries, repeat=False, latency=100, config=None):
    queue = EventQueue()
    port = Port(queue, latency)
    core = Core(0, Trace(entries), queue, port, config or CoreConfig(), repeat=repeat)
    core.start()
    queue.run(max_events=500_000)
    return core, port, queue


def test_empty_trace_finishes_immediately():
    core, _, _ = run([])
    assert core.finished is True
    assert core.snapshot.instructions == 0


def test_repeat_restarts_the_trace():
    entries = [TraceEntry(5, i * 64) for i in range(3)]
    queue = EventQueue()
    port = Port(queue)
    core = Core(0, Trace(entries), queue, port, CoreConfig(), repeat=True)
    core.start()
    # Run long enough for several passes.
    queue.run(until=5_000)
    assert core.loads_issued > 3  # kept generating after the first pass
    assert core.snapshot.loads == 3  # snapshot frozen at first completion


def test_dependent_write_parked_until_parent():
    entries = [
        TraceEntry(0, 0),
        TraceEntry(0, 64, is_write=True, depends_on=0),
    ]
    core, port, _ = run(entries)
    write_issue = next(t for t, _a, w in port.issues if w)
    read_issue = next(t for t, _a, w in port.issues if not w)
    assert write_issue >= read_issue + 100


def test_dependency_on_completed_parent_is_immediate():
    # Parent at index 0 completes long before the child dispatches.
    entries = [TraceEntry(0, 0), TraceEntry(3000, 64, depends_on=0)]
    core, port, _ = run(entries)
    issue_gap = port.issues[1][0] - port.issues[0][0]
    # The child issues when dispatched (~1000 cycles later), not 100+1000.
    assert issue_gap >= 1000
    assert core.snapshot.loads == 2


def test_dependency_chain_across_walkers_is_independent():
    # Two interleaved chains: A0 <- A1, B0 <- B1; A and B independent.
    entries = [
        TraceEntry(0, 0),  # A0
        TraceEntry(0, 1 << 20),  # B0
        TraceEntry(0, 64, depends_on=0),  # A1
        TraceEntry(0, (1 << 20) + 64, depends_on=1),  # B1
    ]
    core, port, _ = run(entries)
    a1 = next(t for t, a, _ in port.issues if a == 64)
    b1 = next(t for t, a, _ in port.issues if a == (1 << 20) + 64)
    # Both chains progressed in parallel: second links issue close together.
    assert abs(a1 - b1) < 50


def test_snapshot_cycles_monotonic_with_latency():
    entries = [TraceEntry(10, i * 64, depends_on=(i - 1 if i else None)) for i in range(10)]
    fast, _, _ = run(entries, latency=50)
    slow, _, _ = run(entries, latency=500)
    assert slow.snapshot.cycles > fast.snapshot.cycles
    assert slow.snapshot.stall_cycles > fast.snapshot.stall_cycles


def test_width_one_core_is_slower():
    entries = [TraceEntry(299, 0)]
    wide, _, _ = run(entries, latency=0, config=CoreConfig(width=3))
    narrow, _, _ = run(entries, latency=0, config=CoreConfig(width=1))
    assert narrow.snapshot.cycles > wide.snapshot.cycles


def test_gap_zero_back_to_back_loads():
    entries = [TraceEntry(0, i * 64) for i in range(6)]
    core, port, _ = run(entries)
    assert core.snapshot.loads == 6
    # All independent and window-fitting: issued in one burst.
    assert max(t for t, _, _ in port.issues) < 100


def test_instructions_accounting_with_repeat():
    entries = [TraceEntry(9, 0)]
    queue = EventQueue()
    port = Port(queue)
    core = Core(0, Trace(entries), queue, port, CoreConfig(), repeat=True)
    core.start()
    queue.run(until=10_000)
    # Each pass is 10 instructions; retired counts passes cumulatively.
    assert core.instructions_retired >= 20
    assert core.instructions_retired % 1 == 0
