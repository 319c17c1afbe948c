"""Shared fixtures for the reproduction benchmarks.

Each ``bench_*`` module regenerates one table or figure of the paper and
prints a paper-vs-measured report.  Scales are sized for a laptop; raise
them to tighten statistics:

* ``REPRO_BENCH_INSTRUCTIONS`` — instructions per thread (default 100 000;
  the paper simulates 150 M).
* ``REPRO_WORKLOADS`` — random mixes per aggregate experiment (paper: 100
  4-core / 16 8-core / 12 16-core).

Alone-run baselines are cached per core count across all benchmarks in the
session, and persistently on disk across sessions (``REPRO_CACHE_DIR``;
``REPRO_CACHE=0`` disables).  Set ``REPRO_JOBS=N`` to fan independent
simulations out over N worker processes.
"""

from __future__ import annotations

import pytest

from repro.config import baseline_system
from repro.envknobs import read_int, read_optional_int
from repro.obs.metrics import PROCESS
from repro.sim.pool import default_jobs
from repro.sim.runner import ExperimentRunner


def bench_instructions() -> int:
    return read_int("REPRO_BENCH_INSTRUCTIONS", 100_000, floor=20_000)


def bench_workloads(num_cores: int) -> int:
    env = read_optional_int("REPRO_WORKLOADS", floor=1)
    if env is not None:
        return env
    return {4: 8, 8: 3, 16: 2}[num_cores]


@pytest.fixture(scope="session")
def runner4() -> ExperimentRunner:
    return ExperimentRunner(
        baseline_system(4), instructions=bench_instructions(), jobs=default_jobs()
    )


@pytest.fixture(scope="session")
def runner8() -> ExperimentRunner:
    return ExperimentRunner(
        baseline_system(8), instructions=bench_instructions(), jobs=default_jobs()
    )


def pytest_terminal_summary(terminalreporter) -> None:
    """Report how much work the persistent simulation cache saved."""
    counts = PROCESS.counts()
    hits, misses, writes = (
        counts[f"cache.{name}"] for name in ("hits", "misses", "writes")
    )
    if hits or misses or writes:
        terminalreporter.write_line(
            f"repro disk cache: {hits} hits, {misses} misses, {writes} writes"
        )


def run_once(benchmark, func):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
