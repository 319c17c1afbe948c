"""Disk-cache entry format: the bytes on disk are the compact JSON text.

Entries written by any version of :meth:`DiskCache.put` must stay
interchangeable, so the file holds exactly
``json.dumps(value, separators=(",", ":"))``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import baseline_system
from repro.sim.diskcache import DiskCache
from repro.sim.runner import ExperimentRunner, _trace_payload


def test_entry_bytes_are_compact_json(tmp_path):
    runner = ExperimentRunner(
        baseline_system(1), instructions=5_000, cache_dir=tmp_path / "gen"
    )
    trace = runner.trace_for("mcf")
    values = [
        {"ipc": 0.1 + 0.2, "loads": 7, "name": "mém", "ok": True, "none": None},
        _trace_payload(trace),
    ]
    cache = DiskCache(tmp_path / "cache")
    for index, value in enumerate(values):
        cache.put("kind", f"k{index}", value)
        text = cache._path("kind", f"k{index}").read_text()
        assert text == json.dumps(value, separators=(",", ":"))
        assert cache.get("kind", f"k{index}") == value


# The key and the sha256 of the bytes of one synthetic and one trace-file
# record.  A cache warmed by an earlier build keeps hitting only while
# both stay as they are.
@pytest.mark.parametrize(
    ("entry", "key", "digest"),
    [
        (
            "mcf",
            "22f64e266c36f1c703dceea6dd84e874e01fafdf7c97b5aab238cbf56e752b99",
            "341f6e446b2f5d1c253f2a0de433b17eda363ec67469abda51a93f077df28876",
        ),
        (
            "trace:stream-hi",
            "fbc102065a1dd7ea7a10cfaf4f35c7355e40270ccccf4920d0ee92faf48d2355",
            "d9f3d611549e2b9313b7458cae1654fa6183bf7139e4716e6d3d06888ac3afb2",
        ),
    ],
)
def test_trace_records_keep_their_keys_and_bytes(tmp_path, entry, key, digest):
    """A trace record keeps its key and bytes, so a cache warmed by an
    earlier build still hits, and reading it back rebuilds the same trace
    (entries and, for a trace file, its ingest record)."""

    def runner():
        return ExperimentRunner(
            baseline_system(1), instructions=5_000, seed=0, cache_dir=tmp_path
        )

    written = runner().trace_for(entry)
    data = DiskCache(tmp_path)._path("trace", key).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
    reader = runner()
    read = reader.trace_for(entry)
    assert reader._disk.hits == 1
    assert (read.name, read.entries, read.ingest) == (
        written.name,
        written.entries,
        written.ingest,
    )
