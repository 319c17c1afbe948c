"""Disk-cache entry format and key stability.

Entries written by any version of :meth:`DiskCache.put` must stay
interchangeable, so the file holds exactly
``json.dumps(value, separators=(",", ":"))``, and every content key —
and so every job key and cache key — stays the digest it always was,
whichever SHA-256 module computes it.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.campaign.spec import spec_from_dict
from repro.config import baseline_system
from repro.obs.metrics import PROCESS
from repro.sim.diskcache import DiskCache, content_key
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


# examples/campaign_smoke.toml as a dict: TOML specs need Python 3.11+.
SMOKE_SPEC = {
    "name": "smoke",
    "schedulers": ["FR-FCFS", "PAR-BS"],
    "num_cores": [4],
    "mix_count": 2,
    "mix_seed": 42,
    "seeds": [0],
    "instructions": 20000,
}

# Content keys recorded while they were still computed with ``hashlib``:
# the smoke campaign's job keys, and the keys of a system configuration,
# of that job-key list and of a nested payload.
SMOKE_JOB_KEYS = [
    "c5cdac7e7ad787cc81ca2120844237228ebcfa0e0b5ead4fe21d22e3afbe25b7",
    "b681963c306bc2a5a63c007c6507144a42d043975844b54d32ab78292242b85f",
    "a2edfad23c03096ee731101d4b4e1dd84a1eae18ab1d68fb77389b2655a5b92f",
    "7f27eba57b96679b346056ed1ff99f94efb00909eee468a7953e69be4fad6cc4",
]
NESTED = {"b": [1, 2.5, None, True], "a": {"z": "mém", "y": [{"x": -3}]}, "c": ""}


def test_content_keys_are_pinned():
    assert [job.key for job in spec_from_dict(SMOKE_SPEC).expand()] == SMOKE_JOB_KEYS
    payloads = [baseline_system(4), SMOKE_JOB_KEYS, NESTED]
    assert [content_key(payload) for payload in payloads] == [
        "2f1e1063df766f5d6f6726d92781507cf5a58c006aadecc6a4748162eaeb99a0",
        "760566a7e2280996fe51f6f905903440f0758ddf4b62779d1fee560f72628b5f",
        "7a90729f682c46f84e0a47624e9ce8b8f374c05f2fdf587ef5d3f53ed2e2ccf0",
    ]


def _payload(rng: random.Random, depth: int = 0):
    """A random JSON value: numbers, short non-ASCII strings, constants
    and, up to three levels deep, lists and dicts."""
    kind = rng.randrange(6 if depth < 3 else 4)
    if kind == 0:
        return rng.randint(-(2**40), 2**40)
    if kind == 1:
        return rng.uniform(-1e6, 1e6)
    if kind == 2:
        return "".join(rng.choice('abé✓ "\\\n') for _ in range(rng.randrange(12)))
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return [_payload(rng, depth + 1) for _ in range(rng.randrange(5))]
    return {
        f"k{rng.randrange(100)}": _payload(rng, depth + 1)
        for _ in range(rng.randrange(5))
    }


def test_content_key_is_the_sha256_of_the_canonical_json():
    rng = random.Random(26)
    for _ in range(200):
        payload = _payload(rng)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert content_key(payload) == hashlib.sha256(canonical.encode()).hexdigest()


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
    before = PROCESS.counts()
    read = reader.trace_for(entry)
    assert PROCESS.growth(before) == {"cache.hits": 1}
    assert (read.name, read.entries, read.ingest) == (
        written.name,
        written.entries,
        written.ingest,
    )
