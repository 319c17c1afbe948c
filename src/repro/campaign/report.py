"""Paper-figure reporting straight from the campaign store.

Everything here is a pure query: no simulation, no randomness, no
wall-clock — the same store contents always render byte-identical
output.  That property is load-bearing: the resume tests compare the
report of an interrupted-then-resumed campaign against an uninterrupted
one byte for byte.

Three views:

* :func:`status_report` — job lifecycle counts (what ``campaign status``
  prints), per campaign and per core count;
* :func:`campaign_report` — the paper's aggregate tables: per core count,
  one row per variant with geometric-mean unfairness, weighted/harmonic
  speedup and AST/request plus the worst-case latency, alongside the
  published Table 4 numbers where the variant is one of the paper's five
  schedulers.  Markdown or CSV.  A Marking-Cap campaign (variants
  ``c=1..c=N, no-c``) *is* Figure 11 in this rendering; a multi-core
  campaign is the 4/8/16-core scaling comparison of Figures 8/10.
* :func:`export_rows` / :func:`export_text` — the raw per-job table
  (one row per simulation with headline metrics) as CSV or JSON for
  downstream tooling.
"""

from __future__ import annotations

import csv
import io
import json
import time
from typing import Any

from ..experiments.paper_values import TABLE4
from ..metrics.summary import WorkloadResult, geomean
from .spec import CampaignSpec
from .store import ResultStore
from .watch import jobs_line, watch_counts

__all__ = [
    "campaign_report",
    "export_rows",
    "export_text",
    "status_report",
    "summary_table",
]

_METRICS = ("unfairness", "wspeedup", "hspeedup", "ast", "wc_latency")


def _fmt(value: float) -> str:
    return format(value, ".4g")


def status_report(
    spec: CampaignSpec, store: ResultStore, *, now: float | None = None
) -> str:
    """Lifecycle counts for one campaign (registers nothing, runs nothing).

    The counts are :func:`~repro.campaign.watch.watch_counts`, the ones
    ``campaign watch`` shows.  In-flight
    work is its own bucket: jobs under a live work-queue lease render as
    ``leased`` with the holding worker and lease age instead of being
    lumped into ``pending`` (with no leases the output is byte-identical
    to the pre-queue format — the resume byte-identity tests rely on
    that).  ``now`` pins the clock the lease ages are rendered against.
    """
    if now is None:
        now = time.time()
    fingerprint = spec.fingerprint()
    grid = spec.expand()
    counts = watch_counts(spec, store, now=now)
    statuses = counts["statuses"]
    lines = [
        f"campaign {spec.name!r} (fingerprint {fingerprint[:12]})",
        jobs_line(counts),
    ]
    for key, lease in sorted(counts["live"].items()):
        lines.append(
            f"  leased {key[:16]}: worker {lease['worker_id']}, "
            f"age {max(0.0, now - lease['claimed_at']):.0f}s, "
            f"attempt {lease['attempt']}"
        )
    if not statuses:
        lines.append(
            f"  not registered in this store yet ({len(grid)} jobs on expansion)"
        )
        return "\n".join(lines)
    for cores in spec.num_cores:
        subset = [job for job in grid if job.num_cores == cores]
        cores_done = sum(1 for job in subset if statuses.get(job.key) == "done")
        lines.append(f"  {cores}-core: {cores_done}/{len(subset)} done")
    failures = store.failures_for(
        job.key for job in grid if statuses.get(job.key) == "failed"
    )
    for key, error in sorted(failures.items())[:5]:
        lines.append(f"  failed {key[:16]}: {error.splitlines()[0] if error else '?'}")
    return "\n".join(lines)


def summary_table(
    spec: CampaignSpec, store: ResultStore
) -> dict[int, dict[str, dict[str, float]]]:
    """``{num_cores: {variant: {metric: value}}}`` over completed jobs.

    Geometric means over every (seed × mix) sample per variant, matching
    :meth:`repro.experiments.aggregate.AggregateResult.summary`; variants
    with no completed jobs for a core count are omitted.
    """
    grid = spec.expand()
    results = store.results_for(job.key for job in grid)
    out: dict[int, dict[str, dict[str, float]]] = {}
    for cores in spec.num_cores:
        per_variant: dict[str, list[WorkloadResult]] = {}
        for job in grid:
            if job.num_cores != cores:
                continue
            result = results.get(job.key)
            if result is not None:
                per_variant.setdefault(job.variant, []).append(result)
        table: dict[str, dict[str, float]] = {}
        for variant in (v.label for v in spec.variants):
            samples = per_variant.get(variant)
            if not samples:
                continue
            table[variant] = {
                "unfairness": geomean([r.unfairness for r in samples]),
                "wspeedup": geomean([r.weighted_speedup for r in samples]),
                "hspeedup": geomean([r.hmean_speedup for r in samples]),
                "ast": geomean(
                    [max(r.avg_stall_per_request, 1e-9) for r in samples]
                ),
                "wc_latency": float(max(r.worst_case_latency for r in samples)),
                "samples": float(len(samples)),
            }
        if table:
            out[cores] = table
    return out


def campaign_report(
    spec: CampaignSpec, store: ResultStore, fmt: str = "markdown"
) -> str:
    """The campaign's aggregate tables as markdown (or CSV)."""
    if fmt not in ("markdown", "csv"):
        raise ValueError(f"unknown report format {fmt!r}; use markdown or csv")
    tables = summary_table(spec, store)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["num_cores", "variant", "samples", *_METRICS])
        for cores in sorted(tables):
            for variant, vals in tables[cores].items():
                writer.writerow(
                    [cores, variant, int(vals["samples"])]
                    + [_fmt(vals[m]) for m in _METRICS]
                )
        return buf.getvalue()

    lines = [f"# Campaign {spec.name}", ""]
    if spec.description:
        lines += [spec.description, ""]
    grid = spec.expand()
    statuses = store.statuses(job.key for job in grid)
    done = sum(1 for s in statuses.values() if s == "done")
    lines += [
        f"{done}/{len(grid)} jobs done "
        f"({spec.resolved_instructions()} instructions/thread, "
        f"seeds {list(spec.seeds)})",
        "",
    ]
    lines += _manifest_lines(spec, store)
    for cores in sorted(tables):
        table = tables[cores]
        paper = TABLE4.get(cores, {})
        with_paper = any(variant in paper for variant in table)
        lines.append(f"## {cores}-core system")
        lines.append("")
        header = ["variant", "mixes", "unfairness", "wspeedup", "hspeedup", "AST/req", "worst-case lat"]
        if with_paper:
            header += ["unf (paper)", "ws (paper)", "hs (paper)"]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join("---" for _ in header) + "|")
        for variant, vals in table.items():
            row = [
                variant,
                str(int(vals["samples"])),
                _fmt(vals["unfairness"]),
                _fmt(vals["wspeedup"]),
                _fmt(vals["hspeedup"]),
                _fmt(vals["ast"]),
                str(int(vals["wc_latency"])),
            ]
            if with_paper:
                p = paper.get(variant, {})
                row += [
                    _fmt(p["unfairness"]) if p else "-",
                    _fmt(p["wspeedup"]) if p else "-",
                    _fmt(p["hspeedup"]) if p else "-",
                ]
            lines.append("| " + " | ".join(row) + " |")
        lines.append("")
    if len(tables) > 1:
        lines.append("## Scaling (PAR-BS-style headline vs core count)")
        lines.append("")
        lines.append("| num_cores | " + " | ".join(v.label for v in spec.variants) + " |")
        lines.append("|" + "|".join("---" for _ in range(len(spec.variants) + 1)) + "|")
        for cores in sorted(tables):
            cells = [
                _fmt(tables[cores][v.label]["unfairness"])
                if v.label in tables[cores]
                else "-"
                for v in spec.variants
            ]
            lines.append(f"| {cores} | " + " | ".join(cells) + " |")
        lines.append("")
        lines.append("(cells are geomean unfairness; lower is better)")
        lines.append("")
    return "\n".join(lines)


def _manifest_lines(spec: CampaignSpec, store: ResultStore) -> list[str]:
    """The ``## Run manifest`` section: stored manifest if the campaign
    ran under schema v3+, else computed fresh.  Manifests carry no
    timestamps, so this stays deterministic for the byte-identity tests
    (same spec + same environment -> same bytes)."""
    from .manifest import build_manifest

    manifest = store.manifest(spec.fingerprint())
    source = "stored"
    if manifest is None:
        manifest = build_manifest(spec)
        source = "computed"
    lines = ["## Run manifest", ""]
    for field in (
        "manifest_version",
        "fingerprint",
        "schema_version",
        "backend",
        "instructions",
        "seeds",
        "num_cores",
        "variants",
        "jobs_total",
    ):
        lines.append(f"- {field}: {manifest.get(field)}")
    traced = manifest.get("trace_files") or {}
    if traced:
        lines.append(f"- decoder: {manifest.get('decoder')}")
        for alias in sorted(traced):
            lines.append(f"- trace_files {alias}: {traced[alias]}")
    env = manifest.get("env") or {}
    for knob in sorted(env):
        lines.append(f"- env {knob}: {env[knob]}")
    lines += [f"- source: {source}", ""]
    return lines


def export_rows(spec: CampaignSpec, store: ResultStore) -> list[dict[str, Any]]:
    """One dict per completed job, in grid order, with headline metrics."""
    grid = spec.expand()
    results = store.results_for(job.key for job in grid)
    rows = []
    for job in grid:
        result = results.get(job.key)
        if result is None:
            continue
        rows.append(
            {
                "key": job.key,
                "num_cores": job.num_cores,
                "seed": job.seed,
                "mix_index": job.mix_index,
                "workload": "+".join(job.workload),
                "variant": job.variant,
                "scheduler": job.scheduler,
                "unfairness": result.unfairness,
                "wspeedup": result.weighted_speedup,
                "hspeedup": result.hmean_speedup,
                "ast": result.avg_stall_per_request,
                "wc_latency": result.worst_case_latency,
                "sim_cycles": result.sim_cycles,
                "row_hit_rate": result.row_hit_rate,
            }
        )
    return rows


def export_text(spec: CampaignSpec, store: ResultStore, fmt: str = "csv") -> str:
    """Per-job export as CSV (default) or JSON lines.

    The JSON form leads with one ``{"manifest": ...}`` object (run
    provenance; see :mod:`repro.campaign.manifest`) followed by one
    object per completed job.  The CSV form is rows only — its header
    and shape are frozen for downstream tooling.
    """
    rows = export_rows(spec, store)
    if fmt == "json":
        from .manifest import build_manifest

        manifest = store.manifest(spec.fingerprint()) or build_manifest(spec)
        head = json.dumps({"manifest": manifest}, sort_keys=True)
        return "\n".join([head] + [json.dumps(row, sort_keys=True) for row in rows]) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown export format {fmt!r}; use csv or json")
    buf = io.StringIO()
    fields = [
        "key", "num_cores", "seed", "mix_index", "workload", "variant",
        "scheduler", "unfairness", "wspeedup", "hspeedup", "ast",
        "wc_latency", "sim_cycles", "row_hit_rate",
    ]
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
