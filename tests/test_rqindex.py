"""Tests for the controller's request buffers and arbitration equivalence.

Three layers:

* unit tests for :class:`~repro.dram.buffers.BankReads` /
  :class:`~repro.dram.buffers.WriteFifo` membership mechanics;
* controller-level tests for the wake bookkeeping;
* the golden equivalence harness: every scheduler the paper evaluates
  (plus the PAR-BS within-batch/batching ablations) run end-to-end on a
  seeded 4-core workload on the python backend, which arbitrates with each
  policy's ``select`` scan, and on the fast backend, which answers from
  packed keys; the two must produce bit-identical simulations.  The same
  comparison must catch a policy whose ``select`` contradicts its
  ``pack_key``.
"""

import pytest

from repro.config import DramConfig, baseline_system
from repro.core.parbs import ParBsScheduler
from repro.dram.buffers import BankReads, WriteFifo
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.events import EventQueue
from repro.obs import Tracer
from repro.obs.trace import RingBufferSink
from repro.schedulers.frfcfs import FrFcfsScheduler
from repro.sim.factory import make_scheduler
from repro.sim.runner import ExperimentRunner
from repro.sim.system import System
from repro.sim.verify import BackendMismatch, compare_systems


def read(thread=0, bank=0, row=0, arrival=0):
    r = MemoryRequest(thread_id=thread, address=0, channel=0, bank=bank, row=row)
    r.arrival_time = arrival
    return r


def write(thread=0, bank=0, row=0, arrival=0):
    r = MemoryRequest(
        thread_id=thread,
        address=0,
        channel=0,
        bank=bank,
        row=row,
        type=RequestType.WRITE,
    )
    r.arrival_time = arrival
    return r


# -------------------------------------------------------------- BankReads


def test_membership_tracks_rows_threads_and_size():
    index = BankReads()
    a, b, c = read(thread=0, row=1), read(thread=1, row=1), read(thread=0, row=2)
    for r in (a, b, c):
        index.add(r)
    assert index.size == 3
    assert sorted(index.rows) == [1, 2]
    assert index.thread_counts == {0: 2, 1: 1}
    assert sorted(r.request_id for r in index.requests()) == sorted(
        r.request_id for r in (a, b, c)
    )

    index.remove(a)  # swap-pop inside row 1's bucket
    assert index.size == 2
    assert index.rows[1] == [b]
    assert b.buf_pos == 0 and a.buf_pos == -1
    assert index.thread_counts == {0: 1, 1: 1}

    index.remove(c)  # last request of row 2: bucket disappears
    assert sorted(index.rows) == [1]
    assert index.thread_counts == {1: 1}


# ------------------------------------------------------------- WriteFifo


def test_write_fifo_drains_oldest_first_with_lazy_deletion():
    fifo = WriteFifo()
    first = write(arrival=0)
    second = write(arrival=5)
    fifo.push(second)
    fifo.push(first)
    assert fifo.size == 2
    assert fifo.peek() is first
    fifo.remove(first)
    assert fifo.peek() is second
    assert list(fifo.requests()) == [second]
    fifo.remove(second)
    assert fifo.size == 0
    with pytest.raises(IndexError):
        fifo.peek()


# ------------------------------------------------- controller wake logic


def make_controller():
    queue = EventQueue()
    controller = MemoryController(queue, DramConfig(), FrFcfsScheduler(), 4)
    return queue, controller


def test_superseded_wake_neither_issues_nor_leaks():
    queue, controller = make_controller()
    key = (0, 0)
    r = read(row=3)
    controller.enqueue(r)  # schedules the real wake at t=0
    # Inject a duplicate wake event for the same bank, imitating a stale
    # leftover from a superseded reschedule.
    queue.schedule(0, lambda: controller._wake(key), priority=1)
    queue.run()
    assert controller.channels[0].banks[0].accesses == 1  # no double issue
    assert controller._bank_wake == {}  # no stale bookkeeping left behind


def test_earlier_wake_supersedes_later_one():
    queue, controller = make_controller()
    key = (0, 0)
    controller._schedule_wake(key, 10)
    controller._schedule_wake(key, 5)
    assert controller._bank_wake[key] == 5
    queue.run()  # both events fire; the t=10 leftover must be a no-op
    assert controller._bank_wake == {}


# ------------------------------------------------- golden equivalence


WORKLOAD = ("libquantum", "mcf", "GemsFDTD", "xalancbmk")
INSTRUCTIONS = 5_000

VARIANTS = {
    "FCFS": lambda: make_scheduler("FCFS", 4),
    "FR-FCFS": lambda: make_scheduler("FR-FCFS", 4),
    "NFQ": lambda: make_scheduler("NFQ", 4),
    "STFM": lambda: make_scheduler("STFM", 4),
    "PAR-BS": lambda: make_scheduler("PAR-BS", 4),
    "PAR-BS-within-frfcfs": lambda: ParBsScheduler(4, within_batch="frfcfs"),
    "PAR-BS-within-fcfs": lambda: ParBsScheduler(4, within_batch="fcfs"),
    "PAR-BS-eslot": lambda: ParBsScheduler(4, batching="eslot"),
    "PAR-BS-nocap": lambda: ParBsScheduler(4, marking_cap=None),
}


def run_variant(make, backend, tracer=None):
    config = baseline_system(len(WORKLOAD))
    runner = ExperimentRunner(
        config, instructions=INSTRUCTIONS, seed=0, cache_dir=None
    )
    traces = [runner.trace_for(b) for b in WORKLOAD]
    system = System(config, make(), traces, backend=backend, tracer=tracer)
    system.controller.command_log = []
    system.run()
    return system


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_index_arbitration_matches_scan_bit_for_bit(name):
    """The fast backend's packed-key decisions reproduce the python
    backend's ``select`` scans: command stream, cycles, logical events,
    final bank state, per-thread and per-core statistics."""
    make = VARIANTS[name]
    compare_systems(run_variant(make, "python"), run_variant(make, "fast"))


class LyingFrFcfs(FrFcfsScheduler):
    """Scan policy contradicting its own packed key: newest-first."""

    def select(self, candidates, bank, now):
        return max(candidates, key=lambda r: r.request_id)


def test_verify_mode_detects_divergence():
    make = LyingFrFcfs
    with pytest.raises(BackendMismatch, match="diverge"):
        compare_systems(run_variant(make, "python"), run_variant(make, "fast"))


def test_verify_mode_passes_for_consistent_scheduler():
    runner = ExperimentRunner(
        baseline_system(len(WORKLOAD)),
        instructions=INSTRUCTIONS,
        seed=0,
        cache_dir=None,
        backend="verify",
    )
    # Raises BackendMismatch on any divergence between the two backends.
    result = runner.run_workload(list(WORKLOAD), "FR-FCFS")
    assert result.events_logical > 0


def test_verify_mode_full_run_parbs():
    """Both backends side by side for a whole traced PAR-BS simulation: the
    python reference's event stream equals the fast backend's once the fast
    kernel's own key-repack events are set aside."""
    make = VARIANTS["PAR-BS"]
    streams = {}
    for backend in ("python", "fast"):
        ring = RingBufferSink()
        run_variant(make, backend, tracer=Tracer([ring]))
        streams[backend] = list(ring)
    rebuilds = [e for e in streams["fast"] if e["ev"] == "sched.rqindex_rebuild"]
    assert rebuilds
    assert not any(e["ev"] == "sched.rqindex_rebuild" for e in streams["python"])
    assert streams["python"] == [
        e for e in streams["fast"] if e["ev"] != "sched.rqindex_rebuild"
    ]
