"""Structured trace bus: typed events, per-site probes, sink backends.

Events are plain dicts with two mandatory keys — ``t`` (simulation time in
CPU cycles) and ``ev`` (a dotted ``category.kind`` type name) — plus
event-specific fields.  Field insertion order is fixed at the emit site,
and every field is a deterministic function of the simulation state, so a
serialized stream is byte-identical across processes for identical jobs
(the property the serial-vs-parallel determinism tests pin down).

Event vocabulary (``category.kind``):

=======================  =====================================================
``request.enqueue``      request entered the buffer (thread/channel/bank/row)
``request.issue``        request won arbitration (row result, queue delay)
``request.complete``     data transfer done (latency incl. overhead)
``dram.cmd``             DRAM command: PRE / ACT / RD / WR with row-hit flag
``dram.drain``           write-drain mode flipped on (1) or off (0)
``batch.formed``         PAR-BS batch formed: per-thread marked counts,
                         Max-Total ranking, per-thread backlog
``batch.completed``      the current batch fully drained (duration)
``sched.epoch``          scheduler priority epoch bumped
``sched.rqindex_rebuild``the fast backend repacked a bank's priority keys
                         after an epoch bump (python-backend runs scan
                         and never emit it)
``core.stall``           a core's commit blocked on an incomplete DRAM load
``core.unstall``         the core resumed retiring instructions
``sample.tick``          periodic telemetry sample (see repro.obs.sampler)
``campaign.start``       campaign run began (total/pending job counts)
``campaign.job``         one campaign job finished (key, variant, status)
``campaign.done``        campaign run finished (ran/failed/skipped counts)
=======================  =====================================================

``dram.cmd`` events are emitted at *issue* time but stamped with the cycle
the command occupies the command bus, so a stream is ordered by emission,
not strictly by timestamp; consumers that need time order must sort (the
Perfetto exporter does not need to — trace viewers sort internally).

The zero-overhead contract: an instrumentation site asks the tracer for a
:class:`Probe` once, at construction/attach time.  When tracing is
disabled (no tracer) or the category is filtered out, the site holds
``None`` and its guard is a single local ``is not None`` test — there is
no call, no allocation, and no formatting on the disabled path.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import IO, Iterable, Iterator

__all__ = [
    "CATEGORIES",
    "JsonlSink",
    "Probe",
    "RingBufferSink",
    "Tracer",
    "read_jsonl",
]

# Every event category the simulator emits; ``--trace-events`` selects a
# subset of these.  ``campaign`` events come from the campaign layer (the
# run's start and end, and each job the drain resolves), not from inside
# a simulation.
CATEGORIES = ("request", "dram", "batch", "sched", "core", "sample", "campaign")


class Probe:
    """One instrumentation site's handle on the trace bus.

    A probe is bound to a category; :meth:`emit` stamps the event dict and
    fans it out to every sink.  Sites never construct probes directly —
    they ask :meth:`Tracer.probe`, which returns ``None`` for disabled
    categories so the site's guard short-circuits.
    """

    __slots__ = ("category", "_sinks")

    def __init__(self, category: str, sinks: list["JsonlSink | RingBufferSink"]) -> None:
        self.category = category
        self._sinks = sinks

    def emit(self, t: int, ev: str, **fields) -> None:
        """Emit one event at simulation time ``t``.

        ``ev`` is the dotted type name (its prefix is this probe's
        category); ``fields`` become the event payload.
        """
        event: dict = {"t": t, "ev": ev}
        event.update(fields)
        for sink in self._sinks:
            sink.emit(event)


class Tracer:
    """The trace bus: category filtering plus sink fan-out.

    Parameters
    ----------
    sinks:
        Sink backends receiving every emitted event.
    events:
        Iterable of category names to enable, or ``None`` for all of
        :data:`CATEGORIES`.  Unknown names raise immediately — a silently
        ignored typo in ``--trace-events`` would read as "no events of
        that kind happened".
    """

    def __init__(
        self,
        sinks: Iterable["JsonlSink | RingBufferSink"],
        events: Iterable[str] | None = None,
    ) -> None:
        self.sinks = list(sinks)
        if events is None:
            self.categories = frozenset(CATEGORIES)
        else:
            categories = frozenset(events)
            unknown = categories - frozenset(CATEGORIES)
            if unknown:
                raise ValueError(
                    f"unknown trace event categories {sorted(unknown)}; "
                    f"known: {', '.join(CATEGORIES)}"
                )
            self.categories = categories

    def probe(self, category: str) -> Probe | None:
        """A probe for ``category``, or ``None`` when it is filtered out.

        Instrumentation sites store the result and guard emissions with
        ``if probe is not None`` — the whole disabled-path cost.
        """
        if category not in CATEGORIES:
            raise ValueError(f"unknown trace event category {category!r}")
        if category not in self.categories:
            return None
        return Probe(category, self.sinks)

    def close(self) -> None:
        """Flush and close every sink."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RingBufferSink:
    """Bounded in-memory sink (the test and interactive backend).

    Keeps the most recent ``capacity`` events (unbounded by default).
    Iterating yields events oldest-first.
    """

    def __init__(self, capacity: int | None = None) -> None:
        self.events: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0  # total ever, including ones the ring dropped

    def emit(self, event: dict) -> None:
        self.events.append(event)
        self.emitted += 1

    def close(self) -> None:  # pragma: no cover - nothing to release
        pass

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.events)

    def of_type(self, ev: str) -> list[dict]:
        """Events whose type is ``ev`` (or starts with ``ev + '.'``)."""
        prefix = ev + "."
        return [e for e in self.events if e["ev"] == ev or e["ev"].startswith(prefix)]


class JsonlSink:
    """Append events to a file, one compact JSON object per line.

    The file is opened lazily on the first event (so a run that emits
    nothing leaves nothing behind) with ``newline="\\n"`` — the stream is
    byte-identical across platforms and processes for identical event
    sequences, which the determinism tests rely on.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: IO[str] | None = None
        self.emitted = 0

    def emit(self, event: dict) -> None:
        fh = self._fh
        if fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fh = self._fh = self.path.open("w", newline="\n")
        fh.write(json.dumps(event, separators=(",", ":")))
        fh.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: str | Path) -> list[dict]:
    """Load a JSONL trace file back into a list of event dicts."""
    events = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
