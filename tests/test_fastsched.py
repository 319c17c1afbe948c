"""Fuzz and golden tests for the packed-key arbitration kernel.

:class:`~repro.dram.fastsched.FastBankSched` answers the fast backend's
read decisions from packed integer keys and cached minima.  Every decision
must equal the one the policy's own reference scan,
:meth:`~repro.schedulers.base.Scheduler.select`, makes over the same
buffered requests with the same open row — the python backend arbitrates
with exactly that scan, and the backends must produce the same command
stream.  Three layers pin this:

- a randomized differential fuzz that drives the kernel through hundreds
  of mixed enqueue/complete/priority-change operations per policy, and
  after every op compares :meth:`~repro.schedulers.base.Scheduler.
  select_indexed` with ``select`` for every possible open row (this is
  what exercises the stale-key-array corners: pushes skipped after an
  epoch bump, removals against stale parallel arrays, minima rebuilds);
- a check that a fast-backend simulation of each policy makes every
  contended decision through that same ``select_indexed``, on cached
  minima equal to a fresh rebuild;
- golden command-stream equivalence over full simulations — every
  scheduler x {4, 8} cores x 2 seeds through the ``test_fastsim``
  harness, comparing the issued DRAM command log entry by entry.
"""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.config import baseline_system
from repro.dram.fastctl import FastMemoryController
from repro.dram.fastsched import FastBankSched
from repro.dram.request import MemoryRequest
from repro.events import EventQueue
from repro.sim.factory import SCHEDULER_NAMES, make_scheduler
from repro.sim.system import System
from repro.sim.verify import compare_systems

from tests.test_fastsim import _run, _traces

NUM_THREADS = 4
ROWS = 4
FUZZ_OPS = 600
BANK = (0, 0)


def _attached_scheduler(name: str):
    """A scheduler attached to a real controller (NFQ/STFM need the bank
    geometry and timing model resolved before they stamp or key requests,
    and every ``select`` reads the bank's open row through it)."""
    config = baseline_system(NUM_THREADS)
    controller = FastMemoryController(
        EventQueue(), config.dram, make_scheduler(name, NUM_THREADS),
        num_threads=NUM_THREADS,
    )
    return controller.scheduler


def _request(scheduler, rng: random.Random, now: int) -> MemoryRequest:
    """A buffered read stamped the way the policy's enqueue hook would."""
    request = MemoryRequest(
        thread_id=rng.randrange(NUM_THREADS),
        address=rng.randrange(1 << 20) * 64,
        channel=BANK[0],
        bank=BANK[1],
        row=rng.randrange(ROWS),
        arrival_time=now,
    )
    name = scheduler.name
    if name == "NFQ":
        scheduler.on_enqueue(request, now)  # stamps the virtual finish time
    elif name.startswith("PAR-BS"):
        request.marked = rng.random() < 0.5
        request.priority_level = rng.choice((1, 1, 2))
    return request


def _mutate_priority_state(scheduler, rng: random.Random, live, now: int) -> None:
    """Change the global priority state the way the policy would.  Keys
    packed for the old state must be lazily repacked, never consulted
    stale."""
    name = scheduler.name
    if name.startswith("PAR-BS"):
        # Batch boundary: marking status and the rank table change together.
        for request in live:
            if rng.random() < 0.4:
                request.marked = not request.marked
        ranks = list(range(NUM_THREADS))
        rng.shuffle(ranks)
        scheduler._rank_by_tid = ranks
        scheduler._ranks = dict(enumerate(ranks))
        scheduler.bump_index_epoch(now)
    elif name == "STFM":
        # New slowdown estimates; ``refresh_index`` bumps the epoch at the
        # next decision if they flip fair mode or the slowest thread.
        fair = rng.random() < 0.5
        for tid in range(NUM_THREADS):
            shared = float(rng.randrange(100, 1000))
            scheduler._t_shared[tid] = shared
            scheduler._t_interference[tid] = (
                shared * rng.random() * 0.6 if fair else 0.0
            )
            scheduler._sd_dirty[tid] = True
        scheduler._sd_any_dirty = True
    else:
        if name == "NFQ":
            # Move the open row's age across the inversion budget.
            scheduler._row_open_since[BANK] = now - rng.randrange(
                2 * scheduler._inv_thresh
            )
        scheduler.bump_index_epoch(now)


def _assert_decisions_match(kernel: FastBankSched, scheduler, live, now: int):
    # Membership is exact at all times.
    assert kernel.size == len(live)
    assert kernel.thread_counts == Counter(r.thread_id for r in live)
    assert sorted(r.request_id for r in kernel.requests()) == sorted(
        r.request_id for r in live
    )
    if not live:
        return
    bank = scheduler.controller.channels[BANK[0]].banks[BANK[1]]
    for open_row in (None, *range(ROWS)):
        bank.open_row = open_row
        expected = scheduler.select(list(kernel.requests()), BANK, now)
        chosen = scheduler.select_indexed(kernel, BANK, now, open_row)
        assert chosen is expected, (open_row, chosen, expected)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
def test_kernel_fuzz_matches_rqindex(scheduler_name, seed):
    """Differential fuzz: the packed-key kernel's decision equals the
    policy's ``select`` scan over the same buffered requests, for every
    open row, after every one of ``FUZZ_OPS`` random operations."""
    scheduler = _attached_scheduler(scheduler_name)
    rng = random.Random(seed * 1000 + 7)
    kernel = FastBankSched()
    live: list[MemoryRequest] = []
    now = 0
    for _ in range(FUZZ_OPS):
        now += rng.randrange(1, 5)
        op = rng.random()
        if op < 0.5 or not live:
            request = _request(scheduler, rng, now)
            kernel.add(request)
            kernel.push(request, scheduler)
            live.append(request)
        elif op < 0.85:
            kernel.remove(live.pop(rng.randrange(len(live))))
        else:
            _mutate_priority_state(scheduler, rng, live, now)
        _assert_decisions_match(kernel, scheduler, live, now)
    # The run must have exercised repacks and cached-minimum rebuilds.
    assert scheduler.index_epoch > 0
    assert kernel.min_rebuilds > 0


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
def test_kernel_stale_array_removal(scheduler_name):
    """Directed corner: epoch bump, then an insert (push skipped on the
    stale arrays), then removal of a pre-bump request — the kernel must
    drop the desynchronized key array rather than swap-pop the wrong slot."""
    scheduler = _attached_scheduler(scheduler_name)
    rng = random.Random(99)
    kernel = FastBankSched()
    live = []
    for _ in range(6):
        request = _request(scheduler, rng, 1)
        kernel.add(request)
        kernel.push(request, scheduler)
        live.append(request)
    _assert_decisions_match(kernel, scheduler, live, 1)
    scheduler.bump_index_epoch(2)
    request = _request(scheduler, rng, 2)
    kernel.add(request)
    kernel.push(request, scheduler)  # push skipped: stale epoch
    live.append(request)
    kernel.remove(live.pop(2))  # stale-array drop path
    _assert_decisions_match(kernel, scheduler, live, 2)


def _minima(kernel: FastBankSched):
    """The kernel's key arrays and cached minima, requests by identity."""
    best = kernel.best
    return (
        kernel.keys,
        {row: (k, id(r)) for row, (k, r) in kernel.row_best.items()},
        None if best is None else (best[0], id(best[1])),
    )


@pytest.mark.parametrize("scheduler_name", SCHEDULER_NAMES)
def test_simulation_decides_through_select_indexed(scheduler_name, monkeypatch):
    """A fast-backend run makes every contended packed decision with the
    policy's ``select_indexed`` — the method the fuzz above checks — and
    issues what it returned.  At each decision the bank's key arrays and
    cached minima equal a fresh ``ensure()`` rebuild from membership."""
    system = System(
        baseline_system(NUM_THREADS),
        make_scheduler(scheduler_name, NUM_THREADS),
        list(_traces(NUM_THREADS, 0)),
        repeat=True,
        backend="fast",
    )
    policy = system.controller.scheduler
    select_indexed = policy.select_indexed
    remove = FastBankSched.remove
    picks: dict[int, MemoryRequest] = {}
    decisions = 0

    def checked_select(index, bank, now, open_row):
        chosen = select_indexed(index, bank, now, open_row)
        fresh = FastBankSched()
        fresh.rows = index.rows
        fresh.ensure(policy)
        assert _minima(index) == _minima(fresh), (bank, now)
        picks[id(index)] = chosen
        return chosen

    def checked_remove(index, request):
        nonlocal decisions
        if index.size > 1:
            # Reads leave a bank only when issued; with company in the
            # bank, the pick was contended and must be the indexed one.
            assert picks.pop(id(index)) is request
            decisions += 1
        remove(index, request)

    monkeypatch.setattr(policy, "select_indexed", checked_select)
    monkeypatch.setattr(FastBankSched, "remove", checked_remove)
    system.run()
    assert decisions > 100
    assert not picks  # every decision was issued


# -- golden command streams -----------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("cores", [4, 8])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_command_stream_golden(scheduler, cores, seed):
    """The packed-key kernel issues the exact same DRAM command stream as
    the python backend's ``select`` scans — entry by entry: (cycle, request id,
    thread, channel, bank, row, direction)."""
    reference = _run("python", scheduler, cores, seed)
    fast = _run("fast", scheduler, cores, seed)
    assert len(reference.controller.command_log) > 100
    assert fast.controller.command_log == reference.controller.command_log


# -- scan-only policies ---------------------------------------------------------
def _load_example(name: str):
    path = Path(__file__).resolve().parents[1] / "examples" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("cores", [4, 8])
def test_scan_only_policy_bit_identical(cores):
    """A policy without ``pack_key`` — the round-robin example — runs on the
    fast backend's scan branch, calling its ``select`` exactly where the
    python backend does, and reproduces the python run bit for bit."""
    policy = _load_example("custom_scheduler").ThreadRoundRobinScheduler
    assert policy.pack_key is None
    runs = []
    for backend in ("python", "fast"):
        system = System(
            baseline_system(cores),
            policy(cores),
            list(_traces(cores, 0)),
            backend=backend,
        )
        system.controller.command_log = []
        system.run()
        runs.append(system)
    compare_systems(*runs)
