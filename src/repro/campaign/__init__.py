"""Declarative, resumable experiment campaigns.

The paper's headline results are averages over large scheduler × mix ×
core-count × Marking-Cap grids.  This package turns those grids into
durable *campaigns*:

* :mod:`~repro.campaign.spec` — a declarative spec (TOML/JSON/dict)
  expanded deterministically into content-hash-keyed jobs;
* :mod:`~repro.campaign.store` — a SQLite (WAL) result store holding job
  lifecycle rows and full serialized
  :class:`~repro.metrics.summary.WorkloadResult` payloads, with
  schema-version migrations;
* :mod:`~repro.campaign.orchestrator` — runs only the jobs missing from
  the store, streams completions in transactionally (interrupt + rerun
  resumes exactly), and retries failed workers with capped backoff;
* :mod:`~repro.campaign.queue` / :mod:`~repro.campaign.worker` — the
  lease/heartbeat/complete work-queue protocol and the queue-consumer
  drain loop, so N independent ``campaign work`` processes (one or many
  hosts, one shared database) drain a single campaign with fenced,
  exactly-once result commits;
* :mod:`~repro.campaign.report` — regenerates the paper's aggregate
  tables (markdown/CSV) and raw per-job exports from the store without
  re-simulating anything;
* :mod:`~repro.campaign.manifest` — the run manifest: resolved backend,
  seeds, grid axes and ``REPRO_*`` knobs, pinned per campaign (no
  timestamps, so manifests are byte-reproducible);
* :mod:`~repro.campaign.watch` — live progress (``campaign watch``):
  lifecycle counts, completion rate/ETA, per-variant breakdown, and the
  merged ``sim.*``/``ops.*``/``wall.*`` metrics snapshot.

CLI: ``python -m repro campaign run|status|resume|watch|report|export``.
The ``aggregate``, ``sweep`` and ``table4`` experiments execute only as
campaigns (:func:`repro.experiments.ablations.run_sweep`; they take no
runner and have no direct path), so every figure pipeline is restartable
and queryable.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".manifest": ("MANIFEST_VERSION", "build_manifest"),
        ".orchestrator": ("RunStats", "run_and_collect", "run_campaign"),
        ".queue": ("QUEUE_STATS", "Lease", "LeaseQueue"),
        ".report": ("campaign_report", "export_rows", "export_text", "status_report"),
        ".serde": (
            "result_from_dict",
            "result_from_json",
            "result_to_dict",
            "result_to_json",
        ),
        ".spec": ("CampaignJob", "CampaignSpec", "Variant", "load_spec", "spec_from_dict"),
        ".store": ("SCHEMA_VERSION", "STORE_STATS", "ResultStore", "default_db_path"),
        ".watch": ("merged_metrics", "watch_counts", "watch_report"),
        ".worker": ("LeaseLost", "WorkerStats", "drain_campaign"),
    },
)

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "Lease",
    "LeaseLost",
    "LeaseQueue",
    "MANIFEST_VERSION",
    "QUEUE_STATS",
    "ResultStore",
    "RunStats",
    "WorkerStats",
    "SCHEMA_VERSION",
    "STORE_STATS",
    "Variant",
    "build_manifest",
    "campaign_report",
    "default_db_path",
    "drain_campaign",
    "export_rows",
    "export_text",
    "load_spec",
    "merged_metrics",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
    "run_and_collect",
    "run_campaign",
    "spec_from_dict",
    "status_report",
    "watch_counts",
    "watch_report",
]
