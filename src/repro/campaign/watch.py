"""Live campaign progress: the ``campaign watch`` view.

Everything here is a pure query over the store (no simulation), built
from two schema-v3 surfaces: the ``progress`` table's latest-attempt
heartbeat rows (worker, wall time, throughput, per-job metrics blob) and
the campaign row's merged operational-metrics snapshot.

The merged snapshot (:func:`merged_metrics`) namespaces three kinds of
truth into one registry:

* ``sim.*`` — the deterministic per-job counters
  (:func:`repro.obs.metrics.job_metrics`) summed over every completed
  job.  Pure functions of the job grid, so a serial run and a
  ``--jobs N`` run of the same campaign merge to **identical** ``sim.*``
  values — that equality is CI-gated.
* ``ops.*`` — the campaign's stored operational snapshot (cache traffic,
  pool incidents, store retries, chaos injections): honest telemetry,
  never compared across runs.
* ``wall.*`` — worker-measured wall-time distributions.  Explicitly
  excluded from any determinism comparison.

The first two lines of :func:`watch_report` are stable (tests and CI
grep them); rate/ETA lines appear only while jobs are pending and
wall-clock data exists.
"""

from __future__ import annotations

import time

from ..obs.metrics import MetricsRegistry
from .spec import CampaignSpec
from .store import ResultStore

__all__ = ["jobs_line", "merged_metrics", "watch_counts", "watch_report"]

# Completion-rate estimation window: the N most recent completions.
_RATE_WINDOW = 10


def watch_counts(
    spec: CampaignSpec, store: ResultStore, *, now: float | None = None
) -> dict:
    """Lifecycle counts plus latest-attempt progress rows for one campaign.

    ``done``/``failed``/``pending`` come straight from the jobs table
    (``campaign status`` renders these same counts); ``retrying`` counts
    jobs whose latest heartbeat is a retry and which have not yet
    resolved.  Counts come from the expanded grid's job keys, not the
    campaign foreign key, so cells shared with another campaign (same
    content hash) count as done here too.  ``now`` is the clock lease
    expiry is judged against (default: wall clock).
    """
    grid = spec.expand()
    statuses = store.statuses(job.key for job in grid)
    done = sum(1 for s in statuses.values() if s == "done")
    failed = sum(1 for s in statuses.values() if s == "failed")
    progress = store.progress_for(job.key for job in grid)
    retrying = sum(
        1
        for job in grid
        if statuses.get(job.key) not in ("done", "failed")
        and (row := progress.get(job.key)) is not None
        and row["status"] == "retrying"
    )
    leases = store.leases_for((job.key for job in grid), now=now)
    live = {
        key: lease
        for key, lease in leases.items()
        if not lease["expired"] and statuses.get(key) != "done"
    }
    expired = sum(1 for lease in leases.values() if lease["expired"])
    return {
        "total": len(grid),
        "done": done,
        "failed": failed,
        "pending": len(grid) - done - failed,
        "retrying": retrying,
        # Work-queue visibility (schema v4): live leases held by workers,
        # leases past their deadline awaiting reclamation, and how many
        # leases this campaign has reclaimed from dead workers so far.
        # ``pending`` keeps its grid-minus-resolved meaning (the CLI
        # watch loop exits on it); leased jobs are a subset of pending.
        "leased": len(live),
        "live": live,
        "expired": expired,
        "reclaimed": store.reclaim_count(spec.fingerprint()),
        "leases": leases,
        "statuses": statuses,
        "progress": progress,
    }


def _prefixed(snapshot: dict, prefix: str) -> dict:
    """A snapshot with every metric name prefixed (for namespace merges)."""
    return {
        "counters": {
            prefix + name: value
            for name, value in snapshot.get("counters", {}).items()
        },
        "gauges": {
            prefix + name: value
            for name, value in snapshot.get("gauges", {}).items()
        },
        "histograms": {
            prefix + name: data
            for name, data in snapshot.get("histograms", {}).items()
        },
    }


def jobs_line(counts: dict, *, retrying: bool = False) -> str:
    """The ``jobs:`` line of ``campaign status`` (with ``retrying``, of
    ``campaign watch``) from :func:`watch_counts`.

    Live leases render as their own bucket (and leave "pending" to mean
    unclaimed work); with no leases the line is byte-identical to the
    pre-queue format, which tests and CI grep as a substring.
    """
    line = (
        f"  jobs: {counts['done']}/{counts['total']} done, "
        f"{counts['pending'] - counts['leased']} pending, "
        f"{counts['failed']} failed"
    )
    if retrying:
        line += f", {counts['retrying']} retrying"
    if counts["leased"]:
        line += f", {counts['leased']} leased"
    if counts["expired"] or counts["reclaimed"]:
        line += (
            f" ({counts['expired']} leases expired, "
            f"{counts['reclaimed']} reclaimed)"
        )
    return line


def merged_metrics(
    spec: CampaignSpec, store: ResultStore, counts: dict | None = None
) -> MetricsRegistry:
    """One registry holding the campaign's ``sim.*``/``ops.*``/``wall.*``
    metrics (see the module docstring for what may be compared);
    ``counts`` reuses a :func:`watch_counts` the caller already holds."""
    registry = MetricsRegistry()
    if counts is None:
        counts = watch_counts(spec, store)
    for row in counts["progress"].values():
        if row["status"] != "done":
            continue
        blob = row["metrics"]
        if blob:
            for name, value in blob.items():
                registry.counter(name).inc(value)
        if row["wall_time_s"] is not None:
            registry.histogram("wall.job_s").observe(row["wall_time_s"])
    ops = store.metrics(spec.fingerprint())
    if ops is not None:
        registry.merge(_prefixed(ops, "ops."))
    # Live queue state straight from the campaign row: unlike the stored
    # ops snapshot (merged only when a run finalizes), the reclaim count
    # is current even while workers are mid-drain.
    reclaims = store.reclaim_count(spec.fingerprint())
    if reclaims:
        registry.gauge("ops.queue.reclaims").set(reclaims)
    return registry


def watch_report(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    now: float | None = None,
    counts: dict | None = None,
) -> str:
    """One snapshot of campaign progress, rendered for a terminal;
    ``counts`` reuses a :func:`watch_counts` the caller already holds."""
    if counts is None:
        counts = watch_counts(spec, store)
    lines = [
        f"campaign {spec.name!r} (fingerprint {spec.fingerprint()[:12]})",
        jobs_line(counts, retrying=True),
    ]
    # Rolling completion rate over the most recent heartbeat window.
    done_times = sorted(
        row["updated_at"]
        for row in counts["progress"].values()
        if row["status"] == "done" and row["updated_at"] is not None
    )
    if counts["pending"] and len(done_times) >= 2:
        window = done_times[-_RATE_WINDOW:]
        span = window[-1] - window[0]
        if span > 0:
            rate = (len(window) - 1) / span
            eta = counts["pending"] / rate
            age = (now if now is not None else time.time()) - window[-1]
            lines.append(
                f"  rate: {rate * 60:.1f} jobs/min, ETA ~{eta:.0f}s "
                f"(last completion {age:.0f}s ago)"
            )
    grid = spec.expand()
    statuses = counts["statuses"]
    lines.append("  by variant:")
    for variant in (v.label for v in spec.variants):
        subset = [job for job in grid if job.variant == variant]
        variant_done = sum(
            1 for job in subset if statuses.get(job.key) == "done"
        )
        lines.append(f"    {variant}: {variant_done}/{len(subset)} done")
    snapshot = merged_metrics(spec, store, counts).snapshot()
    if snapshot["counters"]:
        lines.append("  metrics:")
        for name, value in snapshot["counters"].items():
            lines.append(f"    {name} = {value}")
        wall = snapshot["histograms"].get("wall.job_s")
        if wall is not None and wall["count"]:
            lines.append(
                f"    wall.job_s: n={wall['count']} "
                f"sum={wall['sum']:.2f}s max={wall['max']:.2f}s"
            )
    return "\n".join(lines)
