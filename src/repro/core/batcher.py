"""Request batching policies (paper Sections 4.1, 4.4 and 5).

Batching groups outstanding read requests into units that are serviced to
completion before re-ordering can cross their boundary, which bounds every
request's delay and provides starvation freedom.

Three batching disciplines from the paper:

* **Full batching** (PAR-BS default, Rule 1): a new batch forms when no
  marked requests remain; up to ``Marking-Cap`` oldest requests per thread
  per bank are marked.
* **Time-based static batching**: batches form every ``batch_duration``
  cycles regardless of completion; previously marked requests stay marked.
* **Empty-slot (eslot) batching**: like full batching, but a late-arriving
  request may join the current batch if its thread has used fewer than
  ``Marking-Cap`` marks for that bank in this batch.

System-level thread priorities (Section 5) are implemented by
*priority-based marking*: a thread at priority level ``X`` is marked only
every ``X``-th batch; threads at the special :data:`OPPORTUNISTIC` level
are never marked and are serviced purely on spare bandwidth.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Iterable

from ..dram.request import MemoryRequest

if TYPE_CHECKING:  # pragma: no cover
    from ..dram.controller import MemoryController

__all__ = [
    "Batcher",
    "FullBatcher",
    "StaticBatcher",
    "EslotBatcher",
    "AdaptiveCapBatcher",
    "OPPORTUNISTIC",
]

# Sentinel priority level: never marked, lowest priority among unmarked.
OPPORTUNISTIC = 1 << 20

# Marking-Cap value meaning "mark everything outstanding".
NO_CAP = 1 << 30


def _ignore_batch(marked: list[MemoryRequest], now: int) -> None:
    """Default ``on_new_batch``: no scheduler listens."""


class Batcher:
    """Base batching engine.

    Subclasses decide *when* a new batch forms; the marking rules are
    shared.  ``on_new_batch`` is invoked with the list of newly marked
    requests so the scheduler can recompute its thread ranking.
    """

    name = "base"

    def __init__(
        self,
        marking_cap: int | None = 5,
        priorities: dict[int, int] | None = None,
    ) -> None:
        if marking_cap is not None and marking_cap < 1:
            raise ValueError("marking_cap must be >= 1 (or None for no cap)")
        self.marking_cap = NO_CAP if marking_cap is None else marking_cap
        self.priorities = dict(priorities or {})
        self.controller: "MemoryController | None" = None
        self.on_new_batch: Callable[[list[MemoryRequest], int], None] = (
            _ignore_batch
        )

        self.total_marked = 0
        self.marked_cum = 0  # cumulative requests ever marked
        self.batch_index = 0
        self.batches_formed = 0
        self._batch_start_time = 0
        self.batch_duration_sum = 0
        # Marks used per (thread, channel, bank) in the current batch
        # (needed by eslot batching and useful for assertions).
        self._marks_used: dict[tuple[int, int, int], int] = defaultdict(int)
        # ``batch``-category trace probe; bound in :meth:`attach`.
        self._p_batch = None
        # Invariant checker (probe-or-None); bound in :meth:`attach`.
        self._guard = None

    # -- wiring ------------------------------------------------------------
    def attach(self, controller: "MemoryController") -> None:
        self.controller = controller
        tracer = getattr(controller, "tracer", None)
        self._p_batch = tracer.probe("batch") if tracer is not None else None
        guard = getattr(controller, "guard", None)
        self._guard = guard
        if guard is not None:
            guard.attach_batcher(self)

    def release(self) -> None:
        """Detach from the controller and scheduler after the run."""
        self.controller = None
        self.on_new_batch = _ignore_batch

    def priority_of(self, thread_id: int) -> int:
        return self.priorities.get(thread_id, 1)

    # -- marking helpers ------------------------------------------------------
    def _pending_reads(self) -> Iterable[tuple[tuple[int, int], Iterable[MemoryRequest]]]:
        # Marking walks the controller's per-bank row buckets directly —
        # no flattened per-bank copies are materialized.
        assert self.controller is not None
        return (
            (key, index.requests())
            for key, index in self.controller.read_indexes()
        )

    def _thread_markable(self, thread_id: int) -> bool:
        """Priority-based marking: level X threads join every X-th batch."""
        level = self.priority_of(thread_id)
        if level >= OPPORTUNISTIC:
            return False
        return self.batch_index % level == 0

    def _form_batch(self, now: int) -> None:
        """Mark up to ``marking_cap`` oldest requests per thread per bank."""
        assert self.controller is not None
        self.batch_index += 1
        self._marks_used.clear()
        marked: list[MemoryRequest] = []
        for (channel, bank), requests in self._pending_reads():
            per_thread: dict[int, list[MemoryRequest]] = defaultdict(list)
            for request in requests:
                if not request.marked:
                    per_thread[request.thread_id].append(request)
            for thread_id, thread_requests in per_thread.items():
                if not self._thread_markable(thread_id):
                    continue
                thread_requests.sort(key=lambda r: (r.arrival_time, r.request_id))
                for request in thread_requests[: self.marking_cap]:
                    request.marked = True
                    marked.append(request)
                    self._marks_used[(thread_id, channel, bank)] += 1
        if marked:
            self.total_marked += len(marked)
            self.marked_cum += len(marked)
            self.batches_formed += 1
            self._batch_start_time = now
        self.on_new_batch(marked, now)
        guard = self._guard
        if guard is not None:
            guard.on_batch_formed(now, self, marked)

    # -- events from the scheduler ------------------------------------------------
    def request_arrived(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        if self.total_marked == 0:
            self._form_batch(now)

    def request_completed(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read or not request.marked:
            return
        request.marked = False
        self.total_marked -= 1
        if self.total_marked == 0:
            duration = now - self._batch_start_time
            self.batch_duration_sum += duration
            probe = self._p_batch
            if probe is not None:
                probe.emit(
                    now, "batch.completed",
                    index=self.batch_index, duration=duration,
                )
            self._batch_finished(now)

    def _batch_finished(self, now: int) -> None:
        """Hook: the current batch fully drained."""
        self._form_batch(now)

    def tick(self, now: int) -> None:
        """Periodic hook for time-driven batching (no-op by default)."""

    @property
    def avg_batch_duration(self) -> float:
        done = self.batches_formed if self.total_marked == 0 else self.batches_formed - 1
        return self.batch_duration_sum / done if done > 0 else 0.0


class FullBatcher(Batcher):
    """PAR-BS full batching: next batch forms only when the previous one is
    completely serviced."""

    name = "full"


class StaticBatcher(Batcher):
    """Time-based static batching (Section 4.4): batches form every
    ``batch_duration`` cycles; existing marks persist.  Provides no strict
    starvation-avoidance guarantee."""

    name = "static"

    def __init__(
        self,
        batch_duration: int,
        marking_cap: int | None = 5,
        priorities: dict[int, int] | None = None,
    ) -> None:
        super().__init__(marking_cap=marking_cap, priorities=priorities)
        if batch_duration < 1:
            raise ValueError("batch_duration must be positive")
        self.batch_duration = batch_duration
        self._next_batch_time = 0

    def request_arrived(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        self.tick(now)

    def request_completed(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read or not request.marked:
            return
        request.marked = False
        self.total_marked -= 1
        if self.total_marked == 0:
            duration = now - self._batch_start_time
            self.batch_duration_sum += duration
            probe = self._p_batch
            if probe is not None:
                probe.emit(
                    now, "batch.completed",
                    index=self.batch_index, duration=duration,
                )
        self.tick(now)

    def _batch_finished(self, now: int) -> None:  # pragma: no cover - unused
        pass

    def tick(self, now: int) -> None:
        if now >= self._next_batch_time:
            self._form_batch(now)
            self._next_batch_time = now + self.batch_duration


class AdaptiveCapBatcher(FullBatcher):
    """Full batching with a self-tuning ``Marking-Cap`` (an extension the
    paper suggests as future work in Section 8.3.1).

    The cap trades row-buffer locality and intensive-thread throughput
    (large cap) against the deferral of requests that miss a batch (small
    cap); its effect is summarized by the *batch duration*.  This batcher
    nudges the cap after each completed batch to keep the duration inside a
    target band:

    * batches draining faster than ``target_duration / 2`` mean marking is
      too stingy — raise the cap (recover locality);
    * batches lasting longer than ``2 * target_duration`` mean late
      arrivals wait too long — lower the cap.

    The default setpoint (2 560 cycles) is twice the paper's reported
    average batch length at cap 5, leaving headroom for locality.
    """

    name = "adaptive"

    def __init__(
        self,
        target_duration: int = 2560,
        min_cap: int = 1,
        max_cap: int = 20,
        initial_cap: int = 5,
        priorities: dict[int, int] | None = None,
    ) -> None:
        super().__init__(marking_cap=initial_cap, priorities=priorities)
        if not (1 <= min_cap <= initial_cap <= max_cap):
            raise ValueError("need 1 <= min_cap <= initial_cap <= max_cap")
        if target_duration < 1:
            raise ValueError("target_duration must be positive")
        self.target_duration = target_duration
        self.min_cap = min_cap
        self.max_cap = max_cap
        self.cap_history: list[int] = [initial_cap]

    def _batch_finished(self, now: int) -> None:
        duration = now - self._batch_start_time
        if duration < self.target_duration // 2 and self.marking_cap < self.max_cap:
            self.marking_cap += 1
        elif duration > 2 * self.target_duration and self.marking_cap > self.min_cap:
            self.marking_cap -= 1
        self.cap_history.append(self.marking_cap)
        super()._batch_finished(now)


class EslotBatcher(Batcher):
    """Empty-slot batching (Section 4.4): late-arriving requests join the
    current batch while their thread's per-bank mark allotment has room."""

    name = "eslot"

    def request_arrived(self, request: MemoryRequest, now: int) -> None:
        if not request.is_read:
            return
        if self.total_marked == 0:
            self._form_batch(now)
            return
        key = (request.thread_id, request.channel, request.bank)
        if (
            self._thread_markable_current(request.thread_id)
            and self._marks_used[key] < self.marking_cap
            and not request.marked
        ):
            request.marked = True
            self.total_marked += 1
            self.marked_cum += 1
            self._marks_used[key] += 1

    def _thread_markable_current(self, thread_id: int) -> bool:
        """Markability check against the *current* (already formed) batch."""
        if self.batch_index == 0:
            return False
        level = self.priority_of(thread_id)
        if level >= OPPORTUNISTIC:
            return False
        return self.batch_index % level == 0
