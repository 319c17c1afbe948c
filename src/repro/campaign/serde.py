"""Exact JSON round-tripping of result records for the campaign store.

The campaign store persists full :class:`~repro.metrics.summary.WorkloadResult`
payloads (including per-thread results and the optional telemetry digest)
and the resume/report machinery depends on a loaded result comparing
**equal** to the original object — Python floats round-trip exactly
through ``json`` (repr-based), so the only work here is structural:
rebuilding the frozen dataclasses and restoring the int dict keys that
JSON forces to strings (thread ids in telemetry maps).
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any

from ..metrics.summary import ThreadResult, WorkloadResult
from ..obs.sampler import TelemetrySummary

__all__ = [
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "result_to_json",
]

# Every field of a thread row is a scalar, so a row is read field by field
# (``dataclasses.asdict`` would deep-copy each value).
_THREAD_FIELDS = tuple(f.name for f in fields(ThreadResult))


def result_to_dict(result: WorkloadResult) -> dict[str, Any]:
    """A JSON-serializable dict capturing the full result payload."""
    telemetry = None
    if result.telemetry is not None:
        t = result.telemetry
        telemetry = {
            "sample_interval": t.sample_interval,
            "samples": [dict(s) for s in t.samples],
            "latency": {str(k): dict(v) for k, v in t.latency.items()},
            "bus": dict(t.bus),
        }
    return {
        "scheduler": result.scheduler,
        "workload": list(result.workload),
        "threads": [
            {name: getattr(t, name) for name in _THREAD_FIELDS} for t in result.threads
        ],
        "sim_cycles": result.sim_cycles,
        "extra": dict(result.extra),
        "telemetry": telemetry,
        "events_processed": result.events_processed,
        "events_elided": result.events_elided,
        "min_rebuilds": result.min_rebuilds,
    }


def _intkeys(mapping: dict[str, Any]) -> dict[int, Any]:
    return {int(k): v for k, v in mapping.items()}


def result_from_dict(data: dict[str, Any]) -> WorkloadResult:
    """Rebuild a :class:`WorkloadResult` equal to the one serialized."""
    telemetry = None
    raw = data.get("telemetry")
    if raw is not None:
        samples = []
        for sample in raw["samples"]:
            sample = dict(sample)
            if "threads" in sample:
                sample["threads"] = _intkeys(sample["threads"])
            samples.append(sample)
        telemetry = TelemetrySummary(
            sample_interval=raw["sample_interval"],
            samples=tuple(samples),
            latency={int(k): dict(v) for k, v in raw["latency"].items()},
            bus=dict(raw["bus"]),
        )
    return WorkloadResult(
        scheduler=data["scheduler"],
        workload=tuple(data["workload"]),
        threads=tuple(ThreadResult(**t) for t in data["threads"]),
        sim_cycles=data["sim_cycles"],
        extra=dict(data.get("extra", {})),
        telemetry=telemetry,
        # Event counters arrived with schema v3; rows stored by older
        # code simply predate the accounting (0 = "not recorded").
        events_processed=data.get("events_processed", 0),
        events_elided=data.get("events_elided", 0),
        min_rebuilds=data.get("min_rebuilds", 0),
    )


def result_to_json(result: WorkloadResult) -> str:
    """Compact canonical JSON for one result (the store's payload column)."""
    return json.dumps(result_to_dict(result), sort_keys=True, separators=(",", ":"))


def result_from_json(text: str) -> WorkloadResult:
    return result_from_dict(json.loads(text))
