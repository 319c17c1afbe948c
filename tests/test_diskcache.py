"""Disk-cache entry format: the bytes on disk are the compact JSON text.

Entries written by any version of :meth:`DiskCache.put` must stay
interchangeable, so the file holds exactly
``json.dumps(value, separators=(",", ":"))``.
"""

from __future__ import annotations

import json

from repro.config import baseline_system
from repro.sim.diskcache import DiskCache
from repro.sim.runner import ExperimentRunner


def test_entry_bytes_are_compact_json(tmp_path):
    runner = ExperimentRunner(
        baseline_system(1), instructions=5_000, cache_dir=tmp_path / "gen"
    )
    trace = runner.trace_for("mcf")
    values = [
        {"ipc": 0.1 + 0.2, "loads": 7, "name": "mém", "ok": True, "none": None},
        {
            "name": trace.name,
            "entries": [
                [e.gap, e.address, int(e.is_write), e.depends_on]
                for e in trace.entries
            ],
        },
    ]
    cache = DiskCache(tmp_path / "cache")
    for index, value in enumerate(values):
        cache.put("kind", f"k{index}", value)
        text = cache._path("kind", f"k{index}").read_text()
        assert text == json.dumps(value, separators=(",", ":"))
        assert cache.get("kind", f"k{index}") == value
