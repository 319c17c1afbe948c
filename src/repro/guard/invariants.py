"""Runtime invariant checkers for the simulator's own contracts.

The paper's headline guarantee is *starvation freedom* (Section 3):
batching bounds how long any request can be delayed.  The DRAM model, in
turn, promises DDR protocol conformance, and the controller promises
that every request it accepts is serviced exactly once.  None of that is
worth claiming unless something checks it, so :class:`Guard` validates,
while a simulation runs:

* **Request conservation** — every enqueued request is issued at most
  once and completed exactly once after issue; the guard's shadow
  accounting must match the controller's occupancy counters at the end
  of the run.  This is the check that catches a broken scheduler
  double-issuing a request *before* it corrupts the request buffers.
* **DRAM timing protocol** — every :class:`~repro.dram.bank.AccessOutcome`
  must respect tRP (precharge→activate), tRCD (activate→CAS) and tCL
  (CAS→data) spacing, the burst length on the data bus, per-bank
  exclusivity (a bank services one request at a time) and per-channel
  data-bus exclusivity (bursts never overlap).
* **Row-buffer state machine** — the bank's reported row result
  (hit/closed/conflict) must match a shadow row-buffer model, and the
  command sequence must match the result (a conflict precharges and
  activates, a hit does neither).
* **Marking-cap compliance** — no batch marks more than ``Marking-Cap``
  requests per (thread, bank) (paper Rule 1).
* **Per-batch rank consistency** — a formed batch's thread ranking
  assigns distinct ranks and covers every thread with marked requests
  (paper Rule 3 is only meaningful over a total order).
* **Batch-bounded delay** — under full batching with uniform thread
  priorities, a read request that arrives with ``k`` same-(thread,bank)
  requests ahead of it must be marked within ``ceil(k / Marking-Cap)``
  batch formations (the paper's starvation-freedom bound, counted in
  batches).

Violations raise (``strict`` mode) or record-and-log (``check`` mode) a
structured :class:`InvariantViolation` carrying the cycle, channel, bank
and request context.  Guards are wired with the probe-or-None pattern:
``--guard off`` (the default) leaves every hook site holding ``None``.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Iterable, Mapping

from ..envknobs import read_choice
from ..events import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..core.batcher import Batcher
    from ..dram.bank import AccessOutcome
    from ..dram.controller import MemoryController
    from ..dram.request import MemoryRequest

__all__ = ["GUARD_MODES", "GUARD_STATS", "Guard", "InvariantViolation", "guard_from_env"]

logger = logging.getLogger(__name__)

GUARD_MODES = ("off", "check", "strict")

# Process-wide violation tally by invariant kind, across every Guard
# instance (strict-mode raises included — the count happens first).
# Folded into the metrics plane by
# :func:`repro.obs.metrics.collect_process_metrics`.
GUARD_STATS: dict[str, int] = {}

# Conservation states for buffered/in-service requests.
_BUFFERED = 0
_ISSUED = 1


class InvariantViolation(SimulationError):
    """A runtime invariant failed, with full simulation context.

    Attributes
    ----------
    kind:
        Short invariant name (``conservation``, ``timing``, ``row-state``,
        ``bus-exclusivity``, ``bank-exclusivity``, ``marking-cap``,
        ``rank-consistency``, ``batch-bound``).
    cycle:
        Simulation time (CPU cycles) at which the violation was detected.
    channel / bank / request_id / thread_id:
        Where it happened, when applicable (``None`` otherwise).
    """

    def __init__(
        self,
        kind: str,
        message: str,
        *,
        cycle: int,
        channel: int | None = None,
        bank: int | None = None,
        request_id: int | None = None,
        thread_id: int | None = None,
    ) -> None:
        self.kind = kind
        self.cycle = cycle
        self.channel = channel
        self.bank = bank
        self.request_id = request_id
        self.thread_id = thread_id
        context = [f"cycle={cycle}"]
        if channel is not None:
            context.append(f"ch={channel}")
        if bank is not None:
            context.append(f"bank={bank}")
        if request_id is not None:
            context.append(f"req={request_id}")
        if thread_id is not None:
            context.append(f"thread={thread_id}")
        super().__init__(f"invariant {kind!r} violated: {message} [{', '.join(context)}]")


def guard_from_env(environ: dict | None = None) -> "Guard | None":
    """A :class:`Guard` per ``REPRO_GUARD`` (``off``/``check``/``strict``),
    or ``None`` when guarding is off — so hook sites stay probe-or-None."""
    mode = read_choice("REPRO_GUARD", "off", choices=GUARD_MODES, environ=environ)
    return None if mode == "off" else Guard(mode)


class _BankShadow:
    """Shadow per-bank protocol state (row buffer + exclusivity window)."""

    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row: int | None = None
        self.busy_until = 0


class Guard:
    """Runtime invariant checker attached to one simulated system.

    Construct with ``mode="strict"`` to raise on the first violation or
    ``mode="check"`` to collect violations in :attr:`violations` (each is
    also logged as a warning).  Pass the instance to
    :class:`~repro.sim.system.System` (``guard=``); the controller,
    batcher and scheduler discover it at attach time, exactly like trace
    probes.
    """

    def __init__(self, mode: str = "strict") -> None:
        if mode not in ("check", "strict"):
            raise ValueError(f"unknown guard mode {mode!r}; use check or strict")
        self.mode = mode
        self.violations: list[InvariantViolation] = []
        # How many of each check ran — the "did the guard actually
        # engage?" signal for tests and the stall report.
        self.counters = {
            "enqueues": 0,
            "issues": 0,
            "completions": 0,
            "batches": 0,
            "rankings": 0,
        }
        self.controller: "MemoryController | None" = None
        self._timing = None
        # Conservation: request id -> _BUFFERED/_ISSUED while live, moved
        # to ``_completed`` exactly once.
        self._state: dict[int, int] = {}
        self._completed: set[int] = set()
        # Timing shadows.
        self._banks: dict[tuple[int, int], _BankShadow] = {}
        self._bus_end: dict[int, int] = {}
        # Batch-bounded delay: request id -> formations it may still
        # witness unmarked.  Enabled only for plain full batching with
        # uniform priorities (the configuration the paper's bound covers).
        self._bound_enabled = False
        self._mark_deadline: dict[int, int] = {}
        self._batcher: "Batcher | None" = None

    # -- wiring ------------------------------------------------------------
    def attach_controller(self, controller: "MemoryController") -> None:
        self.controller = controller
        self._timing = controller.timing

    def attach_batcher(self, batcher: "Batcher") -> None:
        from ..core.batcher import FullBatcher

        self._batcher = batcher
        self._bound_enabled = type(batcher) is FullBatcher and all(
            level == 1 for level in batcher.priorities.values()
        )

    def release(self) -> None:
        """Detach after the run; counters and violations stay."""
        self.controller = None
        self._batcher = None

    # -- violation plumbing ------------------------------------------------
    def _report(self, violation: InvariantViolation) -> None:
        GUARD_STATS[violation.kind] = GUARD_STATS.get(violation.kind, 0) + 1
        if self.mode == "strict":
            raise violation
        self.violations.append(violation)
        logger.warning("%s", violation)

    # -- controller hooks --------------------------------------------------
    def on_enqueue(self, request: "MemoryRequest", now: int) -> None:
        """A request entered the buffer (called after index insertion)."""
        self.counters["enqueues"] += 1
        rid = request.request_id
        if rid in self._state or rid in self._completed:
            self._report(
                InvariantViolation(
                    "conservation",
                    "request enqueued twice",
                    cycle=now,
                    channel=request.channel,
                    bank=request.bank,
                    request_id=rid,
                    thread_id=request.thread_id,
                )
            )
            return
        self._state[rid] = _BUFFERED
        if self._bound_enabled and request.is_read and not request.marked:
            batcher = self._batcher
            controller = self.controller
            assert batcher is not None and controller is not None
            key = (request.channel, request.bank)
            # Queue position among same-(thread, bank) buffered reads,
            # counting this request; marked ones ahead only shorten the
            # wait, so including them keeps the bound conservative-valid.
            position = controller.buffered_read_threads(key).get(
                request.thread_id, 1
            )
            self._mark_deadline[rid] = -(-position // batcher.marking_cap)

    def on_pre_issue(
        self, request: "MemoryRequest", key: tuple[int, int], now: int
    ) -> None:
        """Arbitration picked ``request`` — checked *before* the
        controller mutates its buffers, so a double-issue is caught as a
        structured violation instead of buffer corruption."""
        self.counters["issues"] += 1
        rid = request.request_id
        state = self._state.get(rid)
        if state == _BUFFERED:
            self._state[rid] = _ISSUED
            return
        if state == _ISSUED or rid in self._completed:
            message = "request issued twice"
        else:
            message = "issued request was never enqueued"
        self._report(
            InvariantViolation(
                "conservation",
                message,
                cycle=now,
                channel=key[0],
                bank=key[1],
                request_id=rid,
                thread_id=request.thread_id,
            )
        )

    def on_post_issue(
        self,
        request: "MemoryRequest",
        outcome: "AccessOutcome",
        key: tuple[int, int],
        now: int,
    ) -> None:
        """The bank laid out a command sequence; check DDR conformance."""
        t = self._timing
        assert t is not None
        shadow = self._banks.get(key)
        if shadow is None:
            shadow = self._banks[key] = _BankShadow()

        def bad(kind: str, message: str) -> None:
            self._report(
                InvariantViolation(
                    kind,
                    message,
                    cycle=now,
                    channel=key[0],
                    bank=key[1],
                    request_id=request.request_id,
                    thread_id=request.thread_id,
                )
            )

        # Bank exclusivity: one request in service per bank at a time.
        if outcome.start < now or outcome.start < shadow.busy_until:
            bad(
                "bank-exclusivity",
                f"access starts at {outcome.start} while the bank is busy "
                f"until {max(now, shadow.busy_until)}",
            )

        # Row-buffer state machine: the reported result must match the
        # shadow row buffer, and the command sequence must match the
        # result.
        expected = (
            "closed"
            if shadow.open_row is None
            else ("hit" if shadow.open_row == request.row else "conflict")
        )
        if outcome.row_result != expected:
            bad(
                "row-state",
                f"bank reported row {outcome.row_result!r} but the shadow "
                f"row buffer (open row {shadow.open_row}) implies {expected!r}",
            )
        if outcome.row_result == "conflict":
            if outcome.precharge_at is None or outcome.activate_at is None:
                bad("timing", "row conflict must precharge and activate")
            else:
                if outcome.activate_at - outcome.precharge_at < t.tRP:
                    bad(
                        "timing",
                        f"tRP violated: PRE@{outcome.precharge_at} -> "
                        f"ACT@{outcome.activate_at} < {t.tRP}",
                    )
                if outcome.cas_at - outcome.activate_at < t.tRCD:
                    bad(
                        "timing",
                        f"tRCD violated: ACT@{outcome.activate_at} -> "
                        f"CAS@{outcome.cas_at} < {t.tRCD}",
                    )
        elif outcome.row_result == "closed":
            if outcome.precharge_at is not None or outcome.activate_at is None:
                bad("timing", "closed row must activate without a precharge")
            elif outcome.cas_at - outcome.activate_at < t.tRCD:
                bad(
                    "timing",
                    f"tRCD violated: ACT@{outcome.activate_at} -> "
                    f"CAS@{outcome.cas_at} < {t.tRCD}",
                )
        else:  # hit
            if outcome.precharge_at is not None or outcome.activate_at is not None:
                bad("timing", "row hit must issue CAS only")
        if outcome.data_start - outcome.cas_at < t.tCL:
            bad(
                "timing",
                f"tCL violated: CAS@{outcome.cas_at} -> "
                f"data@{outcome.data_start} < {t.tCL}",
            )
        if outcome.completion - outcome.data_start != t.tBUS:
            bad(
                "timing",
                f"burst length wrong: data {outcome.data_start}..."
                f"{outcome.completion} != tBUS {t.tBUS}",
            )
        if outcome.bank_free < outcome.completion:
            bad("timing", "bank freed before its data transfer completed")

        # Data-bus exclusivity per channel: bursts never overlap.
        channel = key[0]
        bus_end = self._bus_end.get(channel, 0)
        if outcome.data_start < bus_end:
            bad(
                "bus-exclusivity",
                f"data burst at {outcome.data_start} overlaps the previous "
                f"burst ending at {bus_end}",
            )
        if outcome.completion > bus_end:
            self._bus_end[channel] = outcome.completion

        shadow.open_row = request.row
        if outcome.bank_free > shadow.busy_until:
            shadow.busy_until = outcome.bank_free

    def on_complete(self, request: "MemoryRequest", now: int) -> None:
        self.counters["completions"] += 1
        rid = request.request_id
        state = self._state.pop(rid, None)
        if state == _ISSUED:
            self._completed.add(rid)
            self._mark_deadline.pop(rid, None)
            return
        if state == _BUFFERED:
            self._state[rid] = _BUFFERED  # restore for the final audit
            message = "request completed without being issued"
        elif rid in self._completed:
            message = "request completed twice"
        else:
            message = "completed request was never enqueued"
        self._report(
            InvariantViolation(
                "conservation",
                message,
                cycle=now,
                channel=request.channel,
                bank=request.bank,
                request_id=rid,
                thread_id=request.thread_id,
            )
        )

    # -- batching / ranking hooks ------------------------------------------
    def on_batch_formed(
        self, now: int, batcher: "Batcher", marked: list["MemoryRequest"]
    ) -> None:
        """A batch formed: check the cap and the starvation-freedom bound."""
        self.counters["batches"] += 1
        cap = batcher.marking_cap
        for (thread_id, channel, bank), used in batcher._marks_used.items():
            if used > cap:
                self._report(
                    InvariantViolation(
                        "marking-cap",
                        f"{used} requests marked for one (thread, bank) "
                        f"with Marking-Cap {cap}",
                        cycle=now,
                        channel=channel,
                        bank=bank,
                        thread_id=thread_id,
                    )
                )
        for request in marked:
            if not request.marked:
                self._report(
                    InvariantViolation(
                        "marking-cap",
                        "batch reported an unmarked request as marked",
                        cycle=now,
                        channel=request.channel,
                        bank=request.bank,
                        request_id=request.request_id,
                        thread_id=request.thread_id,
                    )
                )
        if not self._bound_enabled or not self._mark_deadline:
            return
        deadlines = self._mark_deadline
        for request in marked:
            deadlines.pop(request.request_id, None)
        controller = self.controller
        assert controller is not None
        for request in controller.buffered_reads():
            if request.marked:
                deadlines.pop(request.request_id, None)
                continue
            remaining = deadlines.get(request.request_id)
            if remaining is None:
                continue
            remaining -= 1
            if remaining <= 0:
                deadlines.pop(request.request_id, None)
                self._report(
                    InvariantViolation(
                        "batch-bound",
                        "request exceeded the starvation-freedom bound: "
                        "still unmarked after its batch-formation deadline "
                        "(paper Section 3)",
                        cycle=now,
                        channel=request.channel,
                        bank=request.bank,
                        request_id=request.request_id,
                        thread_id=request.thread_id,
                    )
                )
            else:
                deadlines[request.request_id] = remaining

    def on_ranks(
        self,
        ranks: Mapping[int, int],
        marked: Iterable["MemoryRequest"],
        now: int,
    ) -> None:
        """A within-batch thread ranking was computed; it must be a total
        order covering every thread with marked requests."""
        self.counters["rankings"] += 1
        seen: dict[int, int] = {}
        for thread_id, rank in ranks.items():
            other = seen.get(rank)
            if other is not None:
                self._report(
                    InvariantViolation(
                        "rank-consistency",
                        f"threads {other} and {thread_id} share rank {rank}",
                        cycle=now,
                        thread_id=thread_id,
                    )
                )
            seen[rank] = thread_id
        for request in marked:
            if request.thread_id not in ranks:
                self._report(
                    InvariantViolation(
                        "rank-consistency",
                        "thread has marked requests but no rank",
                        cycle=now,
                        channel=request.channel,
                        bank=request.bank,
                        request_id=request.request_id,
                        thread_id=request.thread_id,
                    )
                )

    # -- end-of-run audit --------------------------------------------------
    def finalize(self, now: int) -> None:
        """End-of-run conservation audit: the guard's shadow accounting
        must agree with the controller's occupancy counters.  Requests
        still in service when the last core finishes are legitimate; a
        *buffered*-count mismatch means a request was lost or fabricated.
        """
        controller = self.controller
        if controller is None:
            return
        buffered = sum(1 for state in self._state.values() if state == _BUFFERED)
        outstanding = controller.outstanding()
        if buffered != outstanding:
            self._report(
                InvariantViolation(
                    "conservation",
                    f"controller reports {outstanding} buffered requests "
                    f"but the guard tracked {buffered}",
                    cycle=now,
                )
            )

    def summary(self) -> dict[str, int]:
        """Counter snapshot plus the violation count (for reports/tests)."""
        return {**self.counters, "violations": len(self.violations)}
