"""The controller's per-bank request buffers.

* :class:`BankReads` — one bank's buffered reads, bucketed by row.  The
  row-hit candidate set is an O(1) lookup of the bank's open row, and
  per-thread counts let STFM find interference victims without scanning.
  The batcher's marking walk, STFM and the guard's conservation audit read
  this membership; the python controller's arbitration scans it.  The fast
  backend's :class:`~repro.dram.fastsched.FastBankSched` extends it with
  packed priority keys.

* :class:`WriteFifo` — one bank's buffered writes.  Writes drain strictly
  oldest-first under every policy, so the drain candidate is a heap peek
  on ``(arrival_time, request_id)`` whose keys never go stale.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator

from .request import MemoryRequest

__all__ = ["BankReads", "WriteFifo"]


class BankReads:
    """Buffered reads of one (channel, bank), bucketed by row."""

    __slots__ = ("rows", "size", "thread_counts")

    def __init__(self) -> None:
        # row -> requests holding that row (order inside a bucket carries no
        # meaning; removal is swap-pop via ``request.buf_pos``).
        self.rows: dict[int, list[MemoryRequest]] = {}
        self.size = 0
        # thread_id -> buffered request count.
        self.thread_counts: dict[int, int] = {}

    def add(self, request: MemoryRequest) -> None:
        """Insert ``request`` into its row bucket."""
        bucket = self.rows.get(request.row)
        if bucket is None:
            bucket = self.rows[request.row] = []
        request.buf_pos = len(bucket)
        bucket.append(request)
        counts = self.thread_counts
        counts[request.thread_id] = counts.get(request.thread_id, 0) + 1
        self.size += 1

    def remove(self, request: MemoryRequest) -> None:
        """Swap-pop ``request`` out of its row bucket in O(1)."""
        row = request.row
        bucket = self.rows[row]
        last = bucket.pop()
        if last is not request:
            bucket[request.buf_pos] = last
            last.buf_pos = request.buf_pos
        request.buf_pos = -1
        if not bucket:
            del self.rows[row]
        counts = self.thread_counts
        remaining = counts[request.thread_id] - 1
        if remaining:
            counts[request.thread_id] = remaining
        else:
            del counts[request.thread_id]
        self.size -= 1

    def requests(self) -> Iterator[MemoryRequest]:
        """Iterate every buffered request (row buckets, arbitrary order)."""
        for bucket in self.rows.values():
            yield from bucket


class WriteFifo:
    """Buffered writes of one (channel, bank), drained oldest-first.

    A heap on ``(arrival_time, request_id)`` — the one total order every
    policy uses for writes — so the drain candidate is a peek instead of a
    ``min()`` scan.  ``buf_pos`` doubles as the liveness flag: removed
    entries are skipped lazily at the next :meth:`peek`.
    """

    __slots__ = ("heap", "size")

    def __init__(self) -> None:
        self.heap: list[tuple[int, int, MemoryRequest]] = []
        self.size = 0

    def push(self, request: MemoryRequest) -> None:
        request.buf_pos = 0
        heappush(self.heap, (request.arrival_time, request.request_id, request))
        self.size += 1

    def remove(self, request: MemoryRequest) -> None:
        request.buf_pos = -1
        self.size -= 1

    def peek(self) -> MemoryRequest:
        heap = self.heap
        while heap:
            request = heap[0][2]
            if request.buf_pos >= 0:
                return request
            heappop(heap)
        raise IndexError("peek on an empty write buffer")

    def requests(self) -> Iterator[MemoryRequest]:
        """Iterate live buffered writes (arbitrary order)."""
        return (entry[2] for entry in self.heap if entry[2].buf_pos >= 0)
