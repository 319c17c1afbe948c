"""Unit tests for the PAR-BS scheduler's prioritization rules."""

import pytest

from repro.config import DramConfig
from repro.core.batcher import OPPORTUNISTIC
from repro.core.parbs import ParBsScheduler
from repro.dram.controller import MemoryController
from repro.dram.request import MemoryRequest
from repro.dram.buffers import BankReads
from repro.events import EventQueue


def setup(**kwargs):
    queue = EventQueue()
    scheduler = ParBsScheduler(4, **kwargs)
    controller = MemoryController(queue, DramConfig(), scheduler, 4)
    return queue, controller, scheduler


def req(thread=0, bank=0, row=0, arrival=0, marked=False, priority=1):
    r = MemoryRequest(thread_id=thread, address=0, channel=0, bank=bank, row=row)
    r.arrival_time = arrival
    r.marked = marked
    r.priority_level = priority
    return r


def test_marked_beats_unmarked_row_hit():
    queue, controller, s = setup()
    controller.channels[0].banks[0].open_row = 7
    marked_conflict = req(row=1, marked=True, arrival=10)
    unmarked_hit = req(row=7, marked=False, arrival=0)
    assert s.select([unmarked_hit, marked_conflict], (0, 0), 20) is marked_conflict


def test_row_hit_beats_rank_within_batch():
    queue, controller, s = setup()
    controller.channels[0].banks[0].open_row = 7
    s._ranks = {0: 1, 1: 0}  # thread 1 ranked higher
    hit_low_rank = req(thread=0, row=7, marked=True)
    conflict_high_rank = req(thread=1, row=2, marked=True)
    assert s.select([conflict_high_rank, hit_low_rank], (0, 0), 0) is hit_low_rank


def test_rank_decides_between_equal_row_state():
    queue, controller, s = setup()
    s._ranks = {0: 1, 1: 0}
    a = req(thread=0, row=1, marked=True, arrival=0)
    b = req(thread=1, row=2, marked=True, arrival=5)
    assert s.select([a, b], (0, 0), 10) is b  # higher rank wins despite age


def test_age_breaks_final_ties():
    queue, controller, s = setup()
    s._ranks = {0: 0}
    older = req(thread=0, row=1, marked=True, arrival=0)
    younger = req(thread=0, row=2, marked=True, arrival=5)
    assert s.select([younger, older], (0, 0), 10) is older


def test_priority_rule_sits_between_marked_and_row_hit():
    queue, controller, s = setup()
    controller.channels[0].banks[0].open_row = 7
    high_pri_conflict = req(thread=0, row=1, marked=True, priority=1)
    low_pri_hit = req(thread=1, row=7, marked=True, priority=2)
    assert s.select([low_pri_hit, high_pri_conflict], (0, 0), 0) is high_pri_conflict


def test_opportunistic_requests_lose_to_everyone():
    queue, controller, s = setup()
    normal_unmarked = req(thread=0, row=1, priority=1, arrival=50)
    opportunistic = req(thread=1, row=2, priority=OPPORTUNISTIC, arrival=0)
    assert s.select([opportunistic, normal_unmarked], (0, 0), 60) is normal_unmarked


def test_within_batch_frfcfs_ignores_rank():
    queue, controller, s = setup(within_batch="frfcfs")
    assert s.ranking is None
    s._ranks = {}
    controller.channels[0].banks[0].open_row = 7
    hit = req(thread=0, row=7, marked=True, arrival=9)
    old = req(thread=1, row=1, marked=True, arrival=0)
    assert s.select([old, hit], (0, 0), 10) is hit


def test_within_batch_fcfs_ignores_row_state():
    queue, controller, s = setup(within_batch="fcfs")
    controller.channels[0].banks[0].open_row = 7
    hit = req(thread=0, row=7, marked=True, arrival=9)
    old = req(thread=1, row=1, marked=True, arrival=0)
    assert s.select([hit, old], (0, 0), 10) is old


def test_invalid_within_batch_rejected():
    with pytest.raises(ValueError):
        ParBsScheduler(4, within_batch="lifo")


def test_name_reflects_configuration():
    assert "max-total" in ParBsScheduler(4).name
    assert "frfcfs" in ParBsScheduler(4, within_batch="frfcfs").name
    assert "eslot" in ParBsScheduler(4, batching="eslot").name


def test_priorities_stamped_on_requests():
    queue, controller, s = setup(priorities={2: 8})
    r = MemoryRequest(thread_id=2, address=0, channel=0, bank=0, row=0)
    controller.enqueue(r)
    assert r.priority_level == 8


def bank_index(*requests):
    index = BankReads()
    for r in requests:
        index.add(r)
    return index


def test_ranking_computed_over_full_backlog():
    queue, controller, s = setup()
    # Thread 0 spreads over banks; thread 1 piles into one bank.
    controller._reads[(0, 0)] = bank_index(req(thread=0, bank=0, row=0))
    controller._reads[(0, 1)] = bank_index(req(thread=0, bank=1, row=1))
    controller._reads[(0, 5)] = bank_index(
        *[req(thread=1, bank=5, row=i) for i in range(3)]
    )
    s._on_new_batch([])
    assert sorted(s._ranks) == [0, 1, 2, 3]
    assert s.rank_of(0) < s.rank_of(1)  # lower max-bank-load ranks higher
    # Threads with no backlog are the shortest jobs of all.
    assert s.rank_of(2) < s.rank_of(0)
    assert s.rank_of(3) < s.rank_of(0)


def test_end_to_end_completion():
    queue, controller, s = setup()
    done = []
    for i in range(20):
        r = req(thread=i % 4, bank=i % 8, row=i)
        r.on_complete = lambda _r: done.append(1)
        controller.enqueue(r)
    queue.run()
    assert len(done) == 20
    assert s.batcher.total_marked == 0
