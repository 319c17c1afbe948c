"""Scheduler plug-in interface for the memory controller.

A scheduler's job is request arbitration: whenever a bank is free and has
pending read requests, the controller asks the scheduler to pick one.  The
controller also feeds the scheduler lifecycle hooks (enqueue, issue,
completion) so policies can maintain state such as batches, virtual finish
times, or slowdown estimates.

All policies in the paper are expressible as a priority over the per-bank
candidate list plus bookkeeping in the hooks, mirroring the
priority-register hardware implementation sketched in Section 6 of the
paper.  A policy is:

:meth:`Scheduler.select`
    The reference decision: a ``min()`` over the bank's candidate list
    with the policy's full key.  The python backend always arbitrates
    with it, and it is all a custom policy must define.

``pack_key(request)``
    Optional.  The same key as one integer, with the row-hit component
    removed (the fast backend resolves it through the open row's bucket):
    policy fields stacked above the request id in the low
    :data:`~repro.dram.fastsched.AGE_BITS` bits (ids are allocated at
    construction and requests enqueue immediately, so the raw id orders
    identically to ``(arrival_time, request_id)``).  Keys must be
    immutable while ``index_epoch`` stands still; bump the epoch
    (:meth:`Scheduler.bump_index_epoch`) whenever global priority state
    invalidates buffered keys.  When it is set, the fast backend answers
    decisions from its packed-key kernel
    (:class:`~repro.dram.fastsched.FastBankSched`) through
    :meth:`Scheduler.select_indexed`; when it is ``None``, the fast
    backend scans with :meth:`Scheduler.select` like the python one.
``pack_prefix_shift``
    How much of the packed key outranks row-hit status, as a right-shift:
    shifting two keys by this many bits compares exactly the components
    that precede ``row_hit`` in the scan key.  E.g. PAR-BS scans with
    ``(marked, priority, row_hit, rank, age)``, packs ``(marked, priority,
    rank, id)`` and shifts away ``rank`` and ``id``.  ``None`` means an
    empty prefix (nothing outranks a row hit); a policy whose prefix
    changes at runtime (STFM) updates it when it bumps the epoch.
``index_uses_row``
    False for row-blind policies (FCFS), so the open row is never even
    resolved.
``refresh_index(now)``
    Called before each packed-key decision; a policy whose priority state
    drifts continuously (STFM) re-derives it here and bumps the epoch
    only when the drift actually changes buffered keys.

``tests/test_fastsched.py`` fuzzes every packed decision against
:meth:`Scheduler.select`, and the ``verify`` backend checks whole runs.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

from ..dram.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..dram.controller import MemoryController
    from ..dram.fastsched import FastBankSched

__all__ = ["Scheduler", "BankKey"]

# (channel_id, bank_id)
BankKey = tuple[int, int]


class Scheduler(ABC):
    """Base class for DRAM request arbitration policies."""

    name: str = "base"

    # -- packed-key protocol (see module docstring) --------------------------
    # ``None`` keeps the policy on the scan path on both backends, so custom
    # scan-only schedulers work unchanged.
    pack_key: Callable[[MemoryRequest], int] | None = None
    pack_prefix_shift: int | None = None
    index_uses_row: bool = True

    # Set True by policies whose hooks read ``request.service_outcome``
    # (e.g. STFM's row-hit-aware alone-time model).  The fast backend
    # otherwise skips materializing the ``AccessOutcome`` object when no
    # guard, tracer or command log will read it either.
    uses_service_outcome: bool = False

    def __init__(self) -> None:
        self.controller: "MemoryController | None" = None
        # Bumped whenever buffered requests' packed keys go stale; the fast
        # kernel repacks a bank's keys lazily when it observes a new epoch.
        self.index_epoch = 0
        # ``sched``-category trace probe, bound in :meth:`attach`; None
        # whenever tracing is off, so instrumented paths stay free.
        self._p_sched = None
        # Runtime invariant checker (probe-or-None); bound in :meth:`attach`.
        self._guard = None

    # -- lifecycle hooks ---------------------------------------------------
    def attach(self, controller: "MemoryController") -> None:
        """Called once when the controller is built."""
        self.controller = controller
        tracer = getattr(controller, "tracer", None)
        self._p_sched = tracer.probe("sched") if tracer is not None else None
        self._guard = getattr(controller, "guard", None)

    def release(self) -> None:
        """Detach from the controller after the run; state stays."""
        self.controller = None

    def bump_index_epoch(self, now: int) -> None:
        """Invalidate every bank's packed keys (and trace it)."""
        self.index_epoch += 1
        probe = self._p_sched
        if probe is not None:
            probe.emit(now, "sched.epoch", epoch=self.index_epoch)

    def on_enqueue(self, request: MemoryRequest, now: int) -> None:
        """A new request entered the request buffer."""

    def on_issue(self, request: MemoryRequest, now: int) -> None:
        """``request`` was issued to its bank."""

    def on_complete(self, request: MemoryRequest, now: int) -> None:
        """``request`` finished its data transfer."""

    # -- arbitration ---------------------------------------------------------
    @abstractmethod
    def select(
        self, candidates: Sequence[MemoryRequest], bank: BankKey, now: int
    ) -> MemoryRequest:
        """Pick the next request to service from ``candidates`` (non-empty,
        all targeting ``bank``)."""

    def refresh_index(self, now: int) -> None:
        """Re-derive epoch-scoped priority state before a packed-key
        decision (no-op for policies whose keys only change at explicit
        events)."""

    def select_indexed(
        self, index: "FastBankSched", bank: BankKey, now: int,
        open_row: int | None,
    ) -> MemoryRequest:
        """Answer :meth:`select` from the bank's packed keys without
        scanning.

        ``open_row`` is the bank's currently latched row.  The policy's
        scan key factors as ``(prefix, row_hit, rest)``, and its packed key
        as ``prefix`` above ``pack_prefix_shift`` bits of ``rest``.
        Because a lexicographic minimum also minimizes every key prefix,
        the scan winner is:

        * the best open-row request, if its prefix ties the bank-wide
          best (row hits win the ``row_hit`` component on equal prefixes);
        * the bank-wide best otherwise (which is then provably a miss —
          were it a hit, the best hit's prefix would tie it).

        The fast controller calls this for every contended packed
        decision (a bank holding one read skips arbitration);
        ``tests/test_fastsched.py`` fuzzes it against :meth:`select`.
        """
        self.refresh_index(now)
        if index.key_epoch != self.index_epoch:
            index.ensure(self)
            probe = self._p_sched
            if probe is not None:
                probe.emit(
                    now,
                    "sched.rqindex_rebuild",
                    ch=bank[0],
                    bank=bank[1],
                    epoch=self.index_epoch,
                    size=index.size,
                )
        best = index.best
        if open_row is None or not self.index_uses_row:
            return best[1]
        hit = index.row_best.get(open_row)
        if hit is None:
            return best[1]
        shift = self.pack_prefix_shift
        if shift is None or (hit[0] >> shift) == (best[0] >> shift):
            return hit[1]
        return best[1]

    # -- helpers shared by concrete policies ---------------------------------
    def _row_hit(self, request: MemoryRequest) -> bool:
        """Whether ``request`` would hit in its bank's row buffer right now."""
        assert self.controller is not None
        bank = self.controller.channels[request.channel].banks[request.bank]
        return bank.row_state(request.row) == "hit"

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} ({self.name})>"
