"""Instruction traces driving the core model.

A trace is a sequence of :class:`TraceEntry` items.  Each entry represents
``gap`` non-memory instructions followed by one memory instruction (a load
or store that goes to DRAM: traces are L2-miss streams).  This is the
standard trace-driven abstraction for memory-system studies: instruction
semantics are irrelevant, only the interleaving of computation and memory
accesses matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = ["TraceEntry", "Trace", "TraceIngestStats"]


@dataclass(frozen=True, slots=True)
class TraceIngestStats:
    """Provenance counters for a trace read from an external file.

    Synthetic traces have no ingest record (``Trace.ingest is None``);
    traces built by :mod:`repro.traces` attach one so per-thread results
    can report how much of the source file was consumed.
    """

    requests_read: int = 0
    lines_skipped: int = 0
    truncated: bool = False


@dataclass(frozen=True, slots=True)
class TraceEntry:
    """``gap`` non-memory instructions, then one memory access.

    ``depends_on`` optionally names an earlier entry (by position in the
    trace) whose data this access needs before it can be issued — the
    trace-level encoding of a dependent (e.g. pointer-chasing) load.  The
    core will not dispatch such an access until the named load completes,
    which is what bounds a thread's inherent memory-level parallelism.
    """

    gap: int
    address: int
    is_write: bool = False
    depends_on: int | None = None

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.depends_on is not None and self.depends_on < 0:
            raise ValueError("depends_on must be a non-negative entry index")


class Trace:
    """An immutable sequence of trace entries with derived statistics."""

    def __init__(
        self,
        entries: Iterable[TraceEntry],
        name: str = "trace",
        ingest: TraceIngestStats | None = None,
    ) -> None:
        self.entries: tuple[TraceEntry, ...] = tuple(entries)
        self.name = name
        self.ingest = ingest
        # Entries are immutable, so both derived sequences below are fixed.
        # ``cum_index[pos]`` is the 1-based global instruction index of the
        # ``pos``-th memory instruction; the core model reads it on every
        # dispatch, so it is precomputed here rather than cached ad hoc.
        cum = []
        acc = 0
        for entry in self.entries:
            acc += entry.gap + 1
            cum.append(acc)
        self.cum_index: tuple[int, ...] = tuple(cum)
        self._total_instructions = acc

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self.entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self.entries[index]

    @property
    def total_instructions(self) -> int:
        """Instructions in the trace (memory instructions included)."""
        return self._total_instructions

    @property
    def memory_accesses(self) -> int:
        return len(self.entries)

    @property
    def reads(self) -> int:
        return sum(1 for e in self.entries if not e.is_write)

    @property
    def writes(self) -> int:
        return sum(1 for e in self.entries if e.is_write)

    def accesses_per_kilo_instruction(self) -> float:
        """Memory accesses per 1000 instructions (≈ MPKI when entries are
        last-level-cache misses)."""
        total = self.total_instructions
        return 1000.0 * len(self.entries) / total if total else 0.0
