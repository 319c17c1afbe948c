"""Periodic telemetry samplers and log-bucketed latency histograms.

The paper's claims live in dynamics — queue pressure, per-thread
outstanding requests, bank-level parallelism, batch sizes — so
:class:`Telemetry` attaches to a running :class:`~repro.sim.system.System`
and records two kinds of data:

* **pull**: a periodic sample (every ``sample_interval`` cycles) of queue
  occupancy, per-thread buffered + in-service request counts, windowed
  row-hit rate, data-bus utilization and the current batch state;
* **push**: per-thread request latencies, recorded by the controller on
  every completion into a :class:`LatencyHistogram` (power-of-two buckets,
  so 64 counters cover any latency with <2x relative error on the
  quantiles while ``max`` stays exact).

Everything is summarized into the picklable :class:`TelemetrySummary`
carried on :class:`~repro.metrics.summary.WorkloadResult`, so telemetry
survives the process-pool boundary and shows up in experiment reports.
Like the trace probes, telemetry costs nothing when absent: the
controller's completion path guards on ``telemetry is not None`` and the
sampler schedules no events.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.system import System
    from .trace import Probe

__all__ = ["LatencyHistogram", "Telemetry", "TelemetrySummary"]


class LatencyHistogram:
    """Log-bucketed (power-of-two) histogram of integer latencies.

    Bucket ``b`` counts values whose bit length is ``b``, i.e. the range
    ``[2**(b-1), 2**b - 1]`` (bucket 0 holds exact zeros).  Quantiles are
    answered with the bucket's upper edge, clamped to the exact observed
    maximum — a <2x overestimate by construction, which is plenty for
    p50/p95/p99 tail reporting.
    """

    __slots__ = ("counts", "count", "total", "max")

    def __init__(self) -> None:
        self.counts: list[int] = []
        self.count = 0
        self.total = 0
        self.max = 0

    def record(self, value: int) -> None:
        bucket = value.bit_length()
        counts = self.counts
        if bucket >= len(counts):
            counts.extend([0] * (bucket + 1 - len(counts)))
        counts[bucket] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket containing the ``p``-quantile."""
        if not 0.0 < p <= 1.0:
            raise ValueError("percentile must be in (0, 1]")
        if self.count == 0:
            return 0
        target = p * self.count
        seen = 0
        for bucket, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                upper = (1 << bucket) - 1 if bucket else 0
                return min(upper, self.max)
        return self.max  # pragma: no cover - defensive

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """The quantile digest reported per thread."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max,
        }


@dataclass(frozen=True)
class TelemetrySummary:
    """Picklable digest of one run's telemetry, carried on WorkloadResult."""

    sample_interval: int | None
    samples: tuple[dict, ...]  # time-ordered periodic samples
    latency: Mapping[int, Mapping[str, float]] = field(default_factory=dict)
    bus: Mapping[str, float] = field(default_factory=dict)

    def describe(self) -> str:
        """Human-readable latency digest (one line per thread)."""
        lines = []
        for thread_id in sorted(self.latency):
            h = self.latency[thread_id]
            lines.append(
                f"  t{thread_id} latency p50={h['p50']:.0f} p95={h['p95']:.0f} "
                f"p99={h['p99']:.0f} max={h['max']:.0f} "
                f"({h['count']:.0f} requests)"
            )
        if self.samples:
            lines.append(
                f"  {len(self.samples)} samples every "
                f"{self.sample_interval} cycles"
            )
        return "\n".join(lines)


class Telemetry:
    """Telemetry recorder for one simulation.

    Parameters
    ----------
    sample_interval:
        Period of the pull sampler in cycles, or ``None`` to record only
        push-side data (latency histograms).
    probe:
        Optional ``sample``-category trace probe; when present, every
        periodic sample is also emitted as a ``sample.tick`` event so the
        Perfetto export gets counter tracks.
    """

    def __init__(
        self,
        sample_interval: int | None = None,
        probe: "Probe | None" = None,
    ) -> None:
        self.sample_interval = sample_interval
        self.probe = probe
        self.samples: list[dict] = []
        self.histograms: dict[int, LatencyHistogram] = {}
        self._system: "System | None" = None
        # Kept past :meth:`release` for the bus totals in :meth:`summary`.
        self._channels: list = []
        self._task = None
        # Windowed row-hit accounting: totals at the previous sample.
        self._last_hits = 0
        self._last_conflicts = 0

    # -- push side (called from the controller's completion path) ----------
    def record_latency(self, thread_id: int, latency: int) -> None:
        hist = self.histograms.get(thread_id)
        if hist is None:
            hist = self.histograms[thread_id] = LatencyHistogram()
        hist.record(latency)

    # -- pull side ----------------------------------------------------------
    def attach(self, system: "System") -> None:
        """Bind to a system and start the periodic sampler (if configured)."""
        self._system = system
        self._channels = system.controller.channels
        if self.sample_interval is not None:
            self._task = system.queue.schedule_every(
                self.sample_interval, self._sample, priority=5
            )

    def _sample(self) -> None:
        system = self._system
        assert system is not None
        controller = system.controller
        now = system.queue.now
        threads: dict[int, list[int]] = {}
        hits = 0
        conflicts = 0
        for thread_id, stats in controller.thread_stats.items():
            threads[thread_id] = [
                controller.pending_reads(thread_id),
                stats.in_service,
            ]
            hits += stats.row_hits
            conflicts += stats.row_conflicts
        window = (hits - self._last_hits) + (conflicts - self._last_conflicts)
        row_hit_rate = (hits - self._last_hits) / window if window else 0.0
        self._last_hits = hits
        self._last_conflicts = conflicts

        batcher = getattr(controller.scheduler, "batcher", None)
        record = {
            "t": now,
            "queue_reads": controller.read_occupancy,
            "queue_writes": controller.write_occupancy,
            "row_hit_rate": row_hit_rate,
            "threads": threads,
        }
        if batcher is not None:
            record["marked"] = batcher.total_marked
            record["batch_index"] = batcher.batch_index
        self.samples.append(record)
        probe = self.probe
        if probe is not None:
            probe.emit(now, "sample.tick", **{k: v for k, v in record.items() if k != "t"})

    def finalize(self, now: int) -> None:
        """Stop sampling; called by ``System.run`` when the run completes."""
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def release(self) -> None:
        """Detach from the system after the run; the summary stays."""
        self._system = None

    # -- reporting ----------------------------------------------------------
    def summary(self) -> TelemetrySummary:
        bus: dict[str, float] = {}
        if self._channels:
            buses = [channel.bus for channel in self._channels]
            bus = {
                "busy_cycles": float(sum(b.busy_cycles for b in buses)),
                "wait_cycles": float(sum(b.wait_cycles for b in buses)),
                "transfers": float(sum(b.transfers for b in buses)),
            }
        return TelemetrySummary(
            sample_interval=self.sample_interval,
            samples=tuple(self.samples),
            latency={
                thread_id: hist.summary()
                for thread_id, hist in sorted(self.histograms.items())
            },
            bus=bus,
        )
