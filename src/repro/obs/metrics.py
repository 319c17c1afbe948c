"""The process metrics registry: counters, gauges, histograms.

The trace bus (:mod:`repro.obs.trace`) answers "what happened, in
order"; this module answers "how much, how often, how long" for the
*operational* layers built around the simulator — pool incidents, cache
traffic, store commit retries, lease traffic, guard violations and
chaos injections.

* **one registry** — :data:`PROCESS` is this process's only operational
  counter store.  Each layer counts into it where the event happens
  (``PROCESS.counter("pool.respawns").inc()``), at run and job
  boundaries only, never per simulated event.  The counters of
  :data:`PROCESS_COUNTERS` start at 0; a guard violation or chaos
  injection adds its own when it first fires.
* **runs, probe-or-None** — :func:`run_metrics` returns a
  :class:`RunMetrics`, which folds only a run's growth of the counters
  into the result store, or exactly ``None`` under ``REPRO_METRICS=0``.
* **mergeable** — :meth:`MetricsRegistry.merge` combines registries or
  snapshots order-independently (counters sum, gauges keep the max,
  histograms add bucket-wise).  A pool task carries its worker's
  counter growth home (:func:`repro.sim.pool.run_tasks`), so pooled
  work is counted in the process that submitted it.
* **two kinds of truth** — :func:`job_metrics` extracts the
  *deterministic* per-job counters from a finished
  :class:`~repro.metrics.summary.WorkloadResult`: pure functions of the
  job description, safe to compare byte-for-byte across serial/parallel
  runs.  The operational counters are honest telemetry, never part of a
  determinism gate.

Snapshots export to JSON and Prometheus text via :mod:`repro.obs.export`.
"""

from __future__ import annotations

import os
from math import frexp
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PROCESS",
    "PROCESS_COUNTERS",
    "RunMetrics",
    "job_metrics",
    "merge_job_metrics",
    "metrics_enabled",
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

    def counts(self) -> dict[str, int | float]:
        """Every counter's current value, to measure growth from."""
        return {name: counter.value for name, counter in self._counters.items()}

    def growth(self, since: Mapping[str, int | float]) -> dict[str, int | float]:
        """The counters that grew since ``since`` (a :meth:`counts`), by
        how much."""
        return {
            name: counter.value - since.get(name, 0)
            for name, counter in self._counters.items()
            if counter.value != since.get(name, 0)
        }

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


# -- the process registry ----------------------------------------------------

# The operational counters every snapshot reports, zeros included.
PROCESS_COUNTERS = (
    "cache.hits",
    "cache.misses",
    "cache.pruned",
    "cache.quarantined",
    "cache.writes",
    "pool.jobs_executed",
    "pool.respawns",
    "pool.serial_fallbacks",
    "pool.timeouts",
    "store.commit_retries",
    "worker.leases_claimed",
    "worker.leases_expired",
    "worker.leases_fenced",
    "worker.leases_reclaimed",
    "worker.leases_renewed",
)

# This process's operational counters.  Every layer counts here whatever
# ``REPRO_METRICS`` says; the knob decides only whether a run folds them
# into the result store (:func:`run_metrics`).
PROCESS = MetricsRegistry.from_snapshot(
    {"counters": dict.fromkeys(PROCESS_COUNTERS, 0)}
)


def metrics_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether ``REPRO_METRICS`` enables run metrics (default: on).

    Operational metrics are boundary-cost only (nothing per simulated
    event), so unlike tracing they default on; ``REPRO_METRICS=0`` makes
    :func:`run_metrics` return ``None``, so no run folds its counts into
    the result store.
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


# -- runs --------------------------------------------------------------------

class RunMetrics:
    """The operational metrics of one run, such as one campaign drain.

    The :data:`PROCESS` counters are cumulative over the process, so a
    run notes where they stood when it started and :meth:`collect`
    reports their growth since, zeros included, plus what the run
    recorded in its own :attr:`registry` (its job counts, each job's wall
    time).  A process that runs several campaigns (``repro table4`` runs
    one per core count) thus folds into each campaign row only the counts
    of the run that made them.  Only counters are carried over from the
    process: no layer writes gauges or histograms there.
    """

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self._start = PROCESS.counts()

    def collect(self) -> MetricsRegistry:
        run = MetricsRegistry().merge(self.registry)
        for name, value in PROCESS.counts().items():
            run.counter(name).inc(value - self._start.get(name, 0))
        return run


def run_metrics(environ: Mapping[str, str] | None = None) -> RunMetrics | None:
    """A :class:`RunMetrics` starting now, or exactly ``None`` when
    ``REPRO_METRICS`` disables run metrics."""
    return RunMetrics() if metrics_enabled(environ) else None
