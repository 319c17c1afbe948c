"""Flat-array arbitration kernel for the fast backend.

:class:`FastBankSched` is the fast backend's per-bank read buffer.  It
extends :class:`~repro.dram.buffers.BankReads` — the same row buckets,
size and per-thread counts, so the batcher's marking walk and the guard's
conservation audit read either structure unchanged — with a priority
order answered without scanning:

* **Packed integer sort keys** — each policy encodes its priority as one
  integer (:meth:`Scheduler.pack_key
  <repro.schedulers.base.Scheduler.pack_key>`) with the row-hit component
  left out (it is resolved through the open row's bucket).  Because request
  ids are allocated at construction and requests are enqueued immediately,
  ``request_id`` order is ``(arrival_time, request_id)`` order, so the
  age component packs as the raw id in the low :data:`AGE_BITS` bits;
  policy fields (PAR-BS marked/priority/rank bits, STFM's boosted-thread
  bit, NFQ's IEEE-754 virtual-finish-time pattern) stack above it.
  Comparing two packed keys is a single C-level int compare, and the
  prefix rule of ``select_indexed`` is a right-shift
  (:attr:`Scheduler.pack_prefix_shift`).

* **Candidate arrays with cached minima** — per row bucket the kernel
  keeps a parallel ``keys`` array plus the bucket's minimum entry; per
  bank it caches the global minimum.  A decision is then an O(1) read of
  two cached entries (the open row's best and the bank best).  Inserts
  update the cached minima by comparison; removal is an exact swap-pop of
  both arrays with an O(bucket) ``min()`` rebuild only when the removed
  request *was* a cached minimum — C-speed ``min`` over a small int array.

* **Epoch-tagged lazy invalidation** — keys are valid for the scheduler
  epoch in ``key_epoch``; a batch boundary or STFM fairness-mode flip
  bumps the scheduler's ``index_epoch`` and a bank's key arrays are
  rebuilt on its next arbitration (:meth:`ensure`), an O(bank-occupancy)
  repack.

Keys end in the unique ``request_id``, so minima are strict and entries
never compare requests.  The age field reserves :data:`AGE_BITS` bits for
the raw request id, which overflows into the policy fields only after
``2**40`` requests in one process — far beyond any run this repo
performs.  ``tests/test_fastsched.py`` fuzzes this kernel's decisions
against each policy's reference ``select`` scan and pins the golden
command streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .buffers import BankReads
from .request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..schedulers.base import Scheduler

__all__ = ["AGE_BITS", "FastBankSched"]

# Low bits of every packed key: the raw (process-global, monotone)
# request id, which orders identically to (arrival_time, request_id).
AGE_BITS = 40


class FastBankSched(BankReads):
    """Buffered reads of one (channel, bank): row buckets plus packed sort
    keys and cached minima.

    Membership (``rows``/``size``/``thread_counts``) is always exact; the
    ``keys`` arrays and the ``(key, request)`` minima ``row_best``/``best``
    are valid for the scheduler epoch in ``key_epoch`` and rebuilt on
    demand by :meth:`ensure`.
    """

    __slots__ = ("keys", "row_best", "best", "key_epoch", "min_rebuilds")

    def __init__(self) -> None:
        super().__init__()
        # row -> packed keys, parallel to ``rows`` while the epoch holds.
        self.keys: dict[int, list[int]] = {}
        # row -> (key, request) bucket minimum; bank-wide minimum.
        self.row_best: dict[int, tuple] = {}
        self.best: tuple | None = None
        self.key_epoch = -1  # epoch the key arrays were built for
        # How often a removal evicted a cached bucket minimum and forced
        # an O(bucket) rebuild — the kernel's only non-O(1) removal path,
        # surfaced on WorkloadResult for the observability plane.
        self.min_rebuilds = 0

    # -- membership (``add``/``requests`` inherited) -------------------------
    def remove(self, request: MemoryRequest) -> None:
        """Swap-pop ``request`` out of its row bucket (and, when the keys
        are current, out of the parallel key array) in O(1), rebuilding a
        cached minimum only if the removed request held it."""
        row = request.row
        rows = self.rows
        bucket = rows[row]
        pos = request.buf_pos
        last = bucket.pop()
        if last is not request:
            bucket[pos] = last
            last.buf_pos = pos
        request.buf_pos = -1
        counts = self.thread_counts
        tid = request.thread_id
        remaining = counts[tid] - 1
        if remaining:
            counts[tid] = remaining
        else:
            del counts[tid]
        self.size -= 1
        keys = self.keys
        row_best = self.row_best
        kbucket = keys.get(row)
        if kbucket is not None:
            if len(kbucket) == len(bucket) + 1:
                klast = kbucket.pop()
                if last is not request:
                    kbucket[pos] = klast
            else:
                # Stale parallel array: pushes were skipped after an epoch
                # bump.  Drop it — the pending :meth:`ensure` rebuilds the
                # keys and minima from membership before the next decision.
                del keys[row]
                row_best.pop(row, None)
                kbucket = None
        if not bucket:
            del rows[row]
            keys.pop(row, None)
            row_best.pop(row, None)
        else:
            rb = row_best.get(row)
            if rb is not None and rb[1] is request:
                if kbucket:
                    self.min_rebuilds += 1
                    m = min(kbucket)
                    row_best[row] = (m, bucket[kbucket.index(m)])
                else:  # stale: minima rebuilt by the next ensure()
                    row_best.pop(row, None)
        best = self.best
        if best is not None and best[1] is request:
            self.best = min(row_best.values()) if row_best else None

    # -- key maintenance ---------------------------------------------------
    def push(self, request: MemoryRequest, scheduler: "Scheduler") -> None:
        """Index a newly buffered request under the scheduler's current
        epoch.  If the keys are already stale, skip — the next
        :meth:`ensure` rebuilds them from membership anyway."""
        if self.key_epoch != scheduler.index_epoch:
            return
        k = scheduler.pack_key(request)
        row = request.row
        kbucket = self.keys.get(row)
        if kbucket is None:
            kbucket = self.keys[row] = []
        kbucket.append(k)
        rb = self.row_best.get(row)
        if rb is None or k < rb[0]:
            entry = self.row_best[row] = (k, request)
            best = self.best
            if best is None or k < best[0]:
                self.best = entry

    def ensure(self, scheduler: "Scheduler") -> None:
        """Repack the key arrays if the scheduler's epoch moved on —
        O(occupancy) key packing plus one C-level ``min`` per bucket."""
        if self.key_epoch == scheduler.index_epoch:
            return
        keyfn = scheduler.pack_key
        keys: dict[int, list[int]] = {}
        row_best: dict[int, tuple] = {}
        for row, bucket in self.rows.items():
            kbucket = [keyfn(r) for r in bucket]
            keys[row] = kbucket
            m = min(kbucket)
            row_best[row] = (m, bucket[kbucket.index(m)])
        self.keys = keys
        self.row_best = row_best
        self.best = min(row_best.values()) if row_best else None
        self.key_epoch = scheduler.index_epoch
