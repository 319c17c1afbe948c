"""Probe-or-None metrics registry: counters, gauges, histograms.

The trace bus (:mod:`repro.obs.trace`) answers "what happened, in
order"; this module answers "how much, how often, how long" for the
*operational* layers built around the simulator — pool incidents, cache
traffic, store commit retries, guard violations, chaos injections, and
the fast backend's elision/rebuild counters.  The discipline is the same
as every other observability hook in the repo:

* **probe-or-None** — :func:`metrics_from_env` returns the process
  registry when ``REPRO_METRICS`` enables it (the default) and exactly
  ``None`` otherwise, so a disabled site pays one ``is not None`` test
  and nothing else.  Nothing in the simulator's per-event hot path
  touches the registry at all: instrumentation lives at run and job
  boundaries (a job committed, a pool respawned, a cache entry pruned).
* **mergeable** — a :class:`MetricsRegistry` pickles, and
  :meth:`MetricsRegistry.merge` combines registries or snapshots
  order-independently (counters sum, gauges keep the max, histograms add
  bucket-wise), so serial and ``--jobs N`` executions of the same work
  merge to identical *deterministic* metrics — the same bit-identity
  contract the trace bus keeps for per-job trace files.
* **two kinds of truth** — :func:`job_metrics` extracts the
  *deterministic* per-job counters from a finished
  :class:`~repro.metrics.summary.WorkloadResult` (logical events, elided
  wakes, min-rebuilds, cycles, row outcomes): pure functions of the job
  description, safe to compare byte-for-byte across serial/parallel
  runs.  :func:`collect_process_metrics` gathers the *operational*
  counters of this process (cache hits, respawns, retries): honest
  telemetry, never part of a determinism gate.

Snapshots export to JSON and Prometheus text via :mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
import sys
from math import frexp
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunMetrics",
    "collect_process_metrics",
    "job_metrics",
    "merge_job_metrics",
    "metrics_enabled",
    "metrics_from_env",
    "reset_metrics",
    "run_metrics",
]

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class Counter:
    """A monotonically increasing count (merge: sum)."""

    __slots__ = ("value",)

    def __init__(self, value: int | float = 0) -> None:
        self.value = value

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written level (merge: max — the only order-independent
    combination that still means something for high-water marks)."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0) -> None:
        self.value = value

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Log-bucketed (base-2) distribution of non-negative observations.

    Buckets are keyed by the power-of-two upper bound exponent: an
    observation ``v`` lands in the smallest bucket ``2**e >= v`` (zero
    and sub-1 values share bucket ``0``, i.e. upper bound ``2**0``).
    Same shape as the sampler's per-thread latency histograms, so one
    exporter renders both.  Merge is bucket-wise addition — exact and
    order-independent, unlike quantile digests.
    """

    __slots__ = ("buckets", "count", "total", "vmax")

    def __init__(self) -> None:
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.total = 0.0
        self.vmax = 0.0

    def observe(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"histogram observations must be >= 0 (got {value})")
        if value <= 1.0:
            exponent = 0
        else:
            mantissa, exponent = frexp(value)
            if mantissa == 0.5:  # exact power of two: 2**(e-1)
                exponent -= 1
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1
        self.count += 1
        self.total += value
        if value > self.vmax:
            self.vmax = value


class MetricsRegistry:
    """Named counters, gauges and histograms with mergeable snapshots.

    Instruments get-or-create their metric once per site
    (``registry.counter("pool.respawns").inc()``); the registry pickles
    across process boundaries, and :meth:`merge` folds another registry
    (or a :meth:`snapshot` dict) in without caring about order.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access ------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def __bool__(self) -> bool:
        return bool(self._counters or self._gauges or self._histograms)

    # -- snapshots ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable snapshot with deterministic key order."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: {
                    "count": h.count,
                    "sum": h.total,
                    "max": h.vmax,
                    "buckets": {
                        str(exp): h.buckets[exp] for exp in sorted(h.buckets)
                    },
                }
                for name, h in sorted(self._histograms.items())
            },
        }

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        registry = cls()
        registry.merge(data)
        return registry

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> "MetricsRegistry":
        """Fold ``other`` (a registry or a snapshot dict) into this one.

        Counters sum, gauges keep the maximum, histograms add bucket-wise
        (sum/count/max follow) — all order-independent, so merging worker
        registries in any completion order yields identical state.
        Returns ``self`` for chaining.
        """
        if isinstance(other, MetricsRegistry):
            other = other.snapshot()
        for name, value in other.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in other.get("gauges", {}).items():
            self.gauge(name).max(value)
        for name, data in other.get("histograms", {}).items():
            h = self.histogram(name)
            h.count += data["count"]
            h.total += data["sum"]
            if data["max"] > h.vmax:
                h.vmax = data["max"]
            for exp, n in data["buckets"].items():
                exp = int(exp)
                h.buckets[exp] = h.buckets.get(exp, 0) + n
        return self


# -- process-global registry (probe-or-None) --------------------------------

# The per-process operational registry.  It exists unconditionally (so
# toggling REPRO_METRICS between reads never loses counts) but is only
# *handed out* when the knob enables it — disabled sites hold None.
_REGISTRY = MetricsRegistry()


def metrics_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether ``REPRO_METRICS`` enables the registry (default: on).

    Operational metrics are boundary-cost only (nothing per simulated
    event), so unlike tracing they default on; set ``REPRO_METRICS=0``
    to compile every site down to ``None``.
    """
    env = os.environ if environ is None else environ
    raw = (env.get("REPRO_METRICS") or "").strip().lower()
    if raw == "" or raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    from ..envknobs import EnvKnobError

    raise EnvKnobError(
        f"REPRO_METRICS must be one of {', '.join(_TRUE + _FALSE)} (got {raw!r})"
    )


def metrics_from_env(environ: Mapping[str, str] | None = None) -> MetricsRegistry | None:
    """The process metrics registry, or exactly ``None`` when disabled.

    The probe-or-None contract of the trace bus and the guard: a site
    does ``reg = metrics_from_env()`` once per boundary event and pays a
    single ``is not None`` test when metrics are off.
    """
    return _REGISTRY if metrics_enabled(environ) else None


def reset_metrics() -> None:
    """Zero the process registry (test isolation)."""
    _REGISTRY._counters.clear()
    _REGISTRY._gauges.clear()
    _REGISTRY._histograms.clear()


# -- deterministic per-job metrics ------------------------------------------

def job_metrics(result: "WorkloadResult") -> dict[str, int]:
    """The deterministic simulation counters of one finished job.

    Every value is a pure function of the job description (seeded
    simulation, pinned backend), so per-job blobs — and any merge of
    them — are bit-identical between serial and ``--jobs N`` execution.
    This is what the campaign progress table stores and what
    ``campaign watch`` merges; wall-clock and cache traffic explicitly
    do *not* belong here.
    """
    return {
        "sim.cycles": result.sim_cycles,
        "sim.events_elided": result.events_elided,
        "sim.events_logical": result.events_logical,
        "sim.events_processed": result.events_processed,
        "sim.min_rebuilds": result.min_rebuilds,
        "sim.row_conflicts": result.total_row_conflicts,
        "sim.row_hits": result.total_row_hits,
    }


def merge_job_metrics(blobs: Iterable[Mapping[str, int]]) -> dict[str, int]:
    """Sum per-job metric blobs key-wise (order-independent)."""
    merged: dict[str, int] = {}
    for blob in blobs:
        for name, value in blob.items():
            merged[name] = merged.get(name, 0) + value
    return {name: merged[name] for name in sorted(merged)}


# -- operational collection --------------------------------------------------

def collect_process_metrics() -> MetricsRegistry:
    """This process's operational counters as one fresh registry.

    Pull-style collection: the pool, disk cache, guard and chaos layers
    keep their native plain-dict counters (zero overhead, no imports of
    this module), and this function folds them — together with whatever
    instruments pushed into the probe-or-None registry — into a single
    mergeable snapshot.  Imports are lazy so the obs package never drags
    the campaign stack in at import time, and the guard counters are read
    only from guard modules already loaded: they start empty, so a guard
    layer this process never imported counted nothing.
    """
    registry = MetricsRegistry()
    registry.merge(_REGISTRY)

    from ..sim.diskcache import GLOBAL_STATS

    for name in sorted(GLOBAL_STATS):
        registry.counter(f"cache.{name}").inc(GLOBAL_STATS[name])

    from ..sim.poolstats import JOB_STATS, POOL_STATS

    registry.counter("pool.jobs_executed").inc(JOB_STATS["executed"])
    for name in sorted(POOL_STATS):
        registry.counter(f"pool.{name}").inc(POOL_STATS[name])

    invariants = sys.modules.get("repro.guard.invariants")
    guard_stats = invariants.GUARD_STATS if invariants is not None else {}
    for kind in sorted(guard_stats):
        registry.counter(f"guard.violations.{kind}").inc(guard_stats[kind])

    chaos = sys.modules.get("repro.guard.chaos")
    chaos_stats = chaos.CHAOS_STATS if chaos is not None else {}
    for kind in sorted(chaos_stats):
        registry.counter(f"chaos.fired.{kind}").inc(chaos_stats[kind])

    from ..campaign.store import STORE_STATS

    registry.counter("store.commit_retries").inc(STORE_STATS["commit_retries"])

    from ..campaign.queue import QUEUE_STATS

    for name in sorted(QUEUE_STATS):
        registry.counter(f"worker.{name}").inc(QUEUE_STATS[name])
    return registry


class RunMetrics:
    """The operational metrics of one run, such as one campaign drain.

    The counters :func:`collect_process_metrics` gathers are cumulative
    over the process, so a run notes where they stood when it started
    and :meth:`collect` reports only their growth since, plus what the
    run recorded in its own :attr:`registry` (its job counts, each job's
    wall time).  A process that runs several campaigns (``repro table4``
    runs one per core count) thus folds into each campaign row only the
    counts of the run that made them.  Only counters are carried over
    from the process: no layer writes gauges or histograms there.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._start = collect_process_metrics().snapshot()["counters"]

    def collect(self) -> MetricsRegistry:
        run = MetricsRegistry().merge(self.registry)
        for name, value in collect_process_metrics().snapshot()["counters"].items():
            run.counter(name).inc(value - self._start.get(name, 0))
        return run


def run_metrics(environ: Mapping[str, str] | None = None) -> RunMetrics | None:
    """A :class:`RunMetrics` starting now, or exactly ``None`` when
    ``REPRO_METRICS`` disables the registry."""
    return RunMetrics() if metrics_enabled(environ) else None
