"""Unit tests for the request batching engine (PAR-BS core component)."""

import pytest

from repro.config import DramConfig
from repro.core.batcher import OPPORTUNISTIC, FullBatcher, StaticBatcher
from repro.core.parbs import ParBsScheduler
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest, RequestType
from repro.events import EventQueue


def setup(scheduler):
    queue = EventQueue()
    controller = MemoryController(queue, DramConfig(), scheduler, 4)
    return queue, controller


def read(thread=0, bank=0, row=0):
    return MemoryRequest(thread_id=thread, address=0, channel=0, bank=bank, row=row)


def write(thread=0, bank=0, row=0):
    return MemoryRequest(
        thread_id=thread, address=0, channel=0, bank=bank, row=row,
        type=RequestType.WRITE,
    )


def test_marking_cap_validation():
    with pytest.raises(ValueError):
        FullBatcher(marking_cap=0)


def test_first_arrival_forms_batch_and_marks():
    scheduler = ParBsScheduler(4)
    queue, controller = setup(scheduler)
    r = read()
    controller.enqueue(r)
    assert r.marked is True
    assert scheduler.batcher.total_marked == 1
    assert scheduler.batcher.batches_formed == 1


def test_requests_arriving_mid_batch_are_unmarked():
    scheduler = ParBsScheduler(4)
    queue, controller = setup(scheduler)
    controller.enqueue(read(bank=0, row=1))
    late = read(bank=0, row=2)
    controller.enqueue(late)
    assert late.marked is False


def test_marking_cap_limits_per_thread_per_bank():
    scheduler = ParBsScheduler(4, marking_cap=2)
    queue, controller = setup(scheduler)
    batcher = scheduler.batcher
    # Preload the queue before the batch forms: trick by enqueueing writes
    # first (writes don't trigger batching), then many reads at once via a
    # drained batch.  Simpler: enqueue reads from a fresh controller whose
    # first read forms the batch containing only itself, then complete it
    # with more reads queued.
    first = read(thread=0, bank=0, row=1)
    controller.enqueue(first)
    extra = [read(thread=0, bank=0, row=i + 2) for i in range(4)]
    for r in extra:
        controller.enqueue(r)
    assert batcher.total_marked == 1  # only the first was marked
    queue.run()
    # When the first batch drained, a new batch formed with cap=2.
    assert all(r.completion_time is not None for r in extra)


def test_batch_reforms_when_all_marked_complete():
    scheduler = ParBsScheduler(4)
    queue, controller = setup(scheduler)
    controller.enqueue(read(thread=0, bank=0, row=1))
    controller.enqueue(read(thread=1, bank=1, row=2))
    queue.run()
    # Both marked in batch 1 (second joined batch? No: batch forms on first
    # arrival; the second request arrived while marked outstanding).
    assert scheduler.batcher.total_marked == 0
    assert scheduler.batcher.batches_formed >= 1


def test_writes_never_marked():
    scheduler = ParBsScheduler(4)
    queue, controller = setup(scheduler)
    w = write()
    controller.enqueue(w)
    assert w.marked is False
    assert scheduler.batcher.total_marked == 0


def test_priority_based_marking_every_other_batch():
    batcher = FullBatcher(priorities={5: 2})
    batcher.batch_index = 1
    assert batcher._thread_markable(5) is False  # batch 1: 1 % 2 != 0
    batcher.batch_index = 2
    assert batcher._thread_markable(5) is True


def test_opportunistic_threads_never_markable():
    batcher = FullBatcher(priorities={3: OPPORTUNISTIC})
    for index in range(1, 10):
        batcher.batch_index = index
        assert batcher._thread_markable(3) is False


def test_priority_one_marked_every_batch():
    batcher = FullBatcher()
    for index in range(1, 5):
        batcher.batch_index = index
        assert batcher._thread_markable(0) is True


def test_eslot_late_arrival_joins_batch_with_room():
    scheduler = ParBsScheduler(4, batching="eslot", marking_cap=5)
    queue, controller = setup(scheduler)
    controller.enqueue(read(thread=0, bank=0, row=1))
    late = read(thread=0, bank=0, row=2)
    controller.enqueue(late)
    assert late.marked is True  # thread 0 used 1 of 5 slots in bank 0


def test_eslot_respects_cap():
    scheduler = ParBsScheduler(4, batching="eslot", marking_cap=2)
    queue, controller = setup(scheduler)
    reqs = [read(thread=0, bank=0, row=i) for i in range(4)]
    for r in reqs:
        controller.enqueue(r)
    assert [r.marked for r in reqs] == [True, True, False, False]


def test_static_batching_requires_duration():
    with pytest.raises(ValueError):
        ParBsScheduler(4, batching="static")


def test_static_batching_marks_periodically():
    scheduler = ParBsScheduler(4, batching="static", batch_duration=1000)
    queue, controller = setup(scheduler)
    controller.enqueue(read(thread=0, bank=0, row=1))
    queue.run(until=10_000)
    assert scheduler.batcher.batches_formed >= 1


def test_static_batcher_duration_validation():
    with pytest.raises(ValueError):
        StaticBatcher(batch_duration=0)


def test_unknown_batching_rejected():
    with pytest.raises(ValueError):
        ParBsScheduler(4, batching="magic")


def test_starvation_freedom_under_aggressor():
    """A single victim request among a flood of aggressor requests must be
    serviced within a bounded number of batches (here: it simply completes
    while the flood continues)."""
    scheduler = ParBsScheduler(2, marking_cap=3)
    queue, controller = setup(scheduler)

    victim_done = []
    victim = read(thread=1, bank=0, row=99)
    victim.on_complete = lambda r: victim_done.append(queue.now)

    # Aggressor: refills bank 0 with row hits forever (up to 200 requests).
    issued = [0]

    def refill(_req=None):
        if issued[0] >= 200:
            return
        issued[0] += 1
        r = read(thread=0, bank=0, row=1)
        r.on_complete = refill
        controller.enqueue(r)

    for _ in range(8):
        refill()
    controller.enqueue(victim)
    queue.run(max_events=100_000)
    assert victim_done, "victim request starved"
    # The victim cannot be deferred behind the entire flood.
    assert victim_done[0] < 50_000


def test_batch_duration_statistics():
    scheduler = ParBsScheduler(4)
    queue, controller = setup(scheduler)
    for i in range(6):
        controller.enqueue(read(thread=i % 2, bank=i % 4, row=i))
    queue.run()
    assert scheduler.batcher.avg_batch_duration > 0
