"""Adapting streamed trace files to the core model's request contract.

:class:`TraceRequestSource` turns a trace file into the
:class:`~repro.cpu.trace.Trace` objects that :class:`~repro.cpu.core.Core`
executes.  The pieces it composes:

* the streaming parser (:func:`~repro.traces.formats.open_trace`) yields
  raw ``(address, is_write, cycle)`` records in O(1) memory;
* an :class:`~repro.traces.decoder.AddressDecoder` projects each raw
  address onto the simulator's geometry;
* *pacing* converts the trace's cycle stamps into the per-entry ``gap``
  (non-memory instructions before the access) that encodes compute/memory
  interleaving — a trace whose accesses are 1000 cycles apart becomes a
  low-MPKI thread, one with back-to-back stamps a memory hog.

The source itself is an O(1) iterator: :meth:`TraceRequestSource.entries`
never holds more than one record, and :meth:`scan` streams an entire file
(however long) in constant memory.  :meth:`materialize` builds the finite
:class:`~repro.cpu.trace.Trace` the core needs, bounding memory through
request/instruction truncation and attaching a
:class:`~repro.cpu.trace.TraceIngestStats` provenance record.

Content identity
----------------
:func:`trace_content_sha256` hashes the **decompressed** byte stream, so
``trace.k6`` and ``trace.k6.gz`` (or the same trace recompressed at a
different gzip level) share one identity.  Campaign specs and job keys
reference traces by this hash — see :class:`TraceFileRef`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..cpu.trace import Trace, TraceEntry, TraceIngestStats
from ..dram.address import AddressMapping
from .decoder import AddressDecoder, parse_decoder
from .formats import IngestStats, open_trace, open_trace_stream

__all__ = ["TraceFileRef", "TraceRequestSource", "trace_content_sha256"]

# Upper bound on a single inter-request gap.  Trace cycle stamps can jump
# by millions (sleep phases, trace splices); an uncapped gap would turn
# into an equally long compute bubble and starve the measurement window.
DEFAULT_GAP_CAP = 2048

_HASH_CHUNK = 1 << 16


def trace_content_sha256(path: str | Path) -> str:
    """SHA-256 of the trace's decompressed content.

    Streams through a fixed-size buffer — O(1) memory for any length.
    Whole files hash faster with OpenSSL than with the interpreter's own
    SHA-256 (about 0.85 against 7.3 ms per MB), so this is the one place
    that imports ``hashlib``, and only a step that hashes a trace file
    maps it.
    """
    import hashlib

    digest = hashlib.sha256()
    with open_trace_stream(path) as stream:
        raw = stream.buffer  # hash bytes, not decoded text
        while True:
            chunk = raw.read(_HASH_CHUNK)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class TraceFileRef:
    """A trace file pinned by content hash.

    ``path`` is where the bytes currently live; ``sha256`` is who they
    are.  Everything durable (job keys, manifests, cache entries) uses
    the hash, so moving or recompressing the file never invalidates
    stored results — and a spec naming a hash fails loudly if the file
    on disk no longer matches.
    """

    path: str
    sha256: str
    decoder: str = "dramsim2"

    @classmethod
    def from_path(cls, path: str | Path, decoder: str = "dramsim2") -> "TraceFileRef":
        return cls(path=str(path), sha256=trace_content_sha256(path), decoder=decoder)

    def key(self) -> str:
        """Canonical content-addressed workload key."""
        return f"trace:{self.sha256}:{self.decoder}"

    def verify(self) -> None:
        """Raise if the bytes at ``path`` no longer match ``sha256``."""
        actual = trace_content_sha256(self.path)
        if actual != self.sha256:
            raise ValueError(
                f"trace file {self.path} content hash mismatch: "
                f"expected {self.sha256[:12]}..., found {actual[:12]}..."
            )


class TraceRequestSource:
    """Stream a trace file as :class:`~repro.cpu.trace.TraceEntry` items.

    Parameters
    ----------
    path: trace file (k6 or mase, plain or gzip).
    decoder: an :class:`AddressDecoder`, a preset name, or a
        ``field=bits,...`` layout spec.
    mapping: target simulator geometry (default: the paper baseline).
    format: ``"k6"``/``"mase"``/``"auto"``.
    pacing: instructions per trace cycle.  The gap before each access is
        ``int(cycle_delta * pacing)``, capped at ``gap_cap`` — the knob
        that converts trace timestamps into thread memory intensity.
    gap_cap: upper bound on any single gap (see :data:`DEFAULT_GAP_CAP`).
    name: thread name for materialized traces (default: the file stem).
    """

    def __init__(
        self,
        path: str | Path,
        decoder: "AddressDecoder | str" = "dramsim2",
        mapping: AddressMapping | None = None,
        format: str = "auto",
        pacing: float = 1.0,
        gap_cap: int = DEFAULT_GAP_CAP,
        name: str | None = None,
    ) -> None:
        self.path = Path(path)
        self.decoder = parse_decoder(decoder) if isinstance(decoder, str) else decoder
        self.mapping = mapping if mapping is not None else AddressMapping()
        self.format = format
        if pacing < 0:
            raise ValueError("pacing must be non-negative")
        if gap_cap < 0:
            raise ValueError("gap_cap must be non-negative")
        self.pacing = pacing
        self.gap_cap = gap_cap
        self.name = name if name is not None else self.path.name.split(".")[0]

    def entries(
        self,
        max_requests: int | None = None,
        max_instructions: int | None = None,
        stats: IngestStats | None = None,
    ) -> Iterator[TraceEntry]:
        """Yield paced, decoded entries; O(1) memory, one record at a time.

        Stops at ``max_requests`` entries or ``max_instructions`` total
        instructions (gaps included); on an early stop the ``stats``
        object's ``truncated`` flag is set — the stop is only taken when
        a further record was actually seen, so the flag is exact.
        """
        if stats is None:
            stats = IngestStats()
        produced = 0
        instructions = 0
        prev_cycle: int | None = None
        for record in open_trace(self.path, format=self.format, stats=stats):
            if prev_cycle is None:
                gap = 0
            else:
                delta = max(0, record.cycle - prev_cycle)
                gap = min(self.gap_cap, int(delta * self.pacing))
            prev_cycle = record.cycle
            if max_requests is not None and produced >= max_requests:
                stats.truncated = True
                return
            if (
                max_instructions is not None
                and produced > 0
                and instructions + gap + 1 > max_instructions
            ):
                stats.truncated = True
                return
            yield TraceEntry(
                gap=gap,
                address=self.decoder.map_to(self.mapping, record.address),
                is_write=record.is_write,
            )
            produced += 1
            instructions += gap + 1

    def __iter__(self) -> Iterator[TraceEntry]:
        return self.entries()

    def scan(self) -> IngestStats:
        """Stream the whole file for its counters without keeping any
        entries — constant memory regardless of trace length."""
        stats = IngestStats()
        for _entry in self.entries(stats=stats):
            pass
        return stats

    def materialize(
        self,
        max_requests: int | None = None,
        max_instructions: int | None = None,
    ) -> Trace:
        """Build the finite :class:`Trace` the core executes.

        Pass a truncation bound to keep memory proportional to the
        simulated window rather than the file; the returned trace
        carries a :class:`TraceIngestStats` provenance record.
        """
        stats = IngestStats()
        entries = list(
            self.entries(
                max_requests=max_requests,
                max_instructions=max_instructions,
                stats=stats,
            )
        )
        ingest = TraceIngestStats(
            requests_read=len(entries),
            lines_skipped=stats.lines_skipped,
            truncated=stats.truncated,
        )
        return Trace(entries, name=self.name, ingest=ingest)
