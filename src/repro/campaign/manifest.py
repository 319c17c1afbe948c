"""Run manifests: the resolved provenance of one campaign execution.

A manifest answers "what exactly did this campaign run?" after the fact:
the spec fingerprint, the resolved backend and instruction budget, the
seed/core/variant axes, and every ``REPRO_*`` knob that was set in the
environment.  It is a pure function of the spec and the environment —
deliberately **no timestamps, hostnames or pids** — so a resumed run
under the same knobs writes byte-identical manifest JSON, and an
interrupted campaign's report matches a clean one's.

The orchestrator pins the manifest into the store at the start of every
``campaign run`` (schema v3, ``campaigns.manifest_json``); ``campaign
report``/``export`` embed the stored manifest when present and compute a
fresh one otherwise.
"""

from __future__ import annotations

import os
from typing import Mapping

from ..sim.verify import backend_from_env
from .spec import CampaignSpec
from .store import SCHEMA_VERSION

__all__ = ["MANIFEST_VERSION", "build_manifest"]

MANIFEST_VERSION = 1

# Environment knobs recorded verbatim when set.  Only knobs that change
# what a run computes or how it executes; pure-output paths
# (REPRO_CAMPAIGN_DB, trace destinations) are locations, not behavior,
# but are still useful provenance, so they are included too.
_ENV_KNOBS = (
    "REPRO_BACKEND",
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_MB",
    "REPRO_CAMPAIGN_DB",
    "REPRO_CHAOS",
    "REPRO_GUARD",
    "REPRO_JOBS",
    "REPRO_JOB_TIMEOUT_S",
    "REPRO_METRICS",
    "REPRO_SAMPLE_INTERVAL",
    "REPRO_SCALE",
    "REPRO_TRACE",
    "REPRO_TRACE_DIR",
    "REPRO_TRACE_EVENTS",
    "REPRO_TRACE_PERFETTO",
    "REPRO_WORKLOADS",
)


def build_manifest(
    spec: CampaignSpec, environ: Mapping[str, str] | None = None
) -> dict:
    """The manifest dict for running ``spec`` in the current environment."""
    env = os.environ if environ is None else environ
    grid = spec.expand()
    if environ is None:
        backend = backend_from_env()
    else:  # tests pass a mapping; mirror the knob's default
        backend = (env.get("REPRO_BACKEND") or "fast").strip().lower()
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "campaign": spec.name,
        "fingerprint": spec.fingerprint(),
        "schema_version": SCHEMA_VERSION,
        "backend": backend,
        "instructions": spec.resolved_instructions(),
        "seeds": list(spec.seeds),
        "num_cores": sorted({job.num_cores for job in grid}),
        "variants": sorted({job.variant for job in grid}),
        "jobs_total": len(grid),
        "env": {knob: env[knob] for knob in _ENV_KNOBS if knob in env},
    }
    traced = spec.trace_hashes()
    if traced:
        # Content hashes, not paths: the manifest stays byte-identical when
        # a trace file is moved or recompressed, and changes when its
        # decompressed bytes do.
        manifest["trace_files"] = dict(sorted(traced.items()))
        manifest["decoder"] = spec.decoder
    return manifest
