"""Deterministic discrete-event simulation kernel.

Every component in the simulator (cores, caches, the DRAM controller)
advances time through a single :class:`EventQueue`.  Events are ordered by
``(time, priority, sequence)``; the monotonically increasing sequence number
makes the simulation fully deterministic for equal-time events regardless of
heap internals.

Time is measured in integer CPU cycles (4 GHz in the baseline configuration,
so one cycle is 0.25 ns).
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["EventQueue", "PeriodicTask", "SimulationError", "SimulationStalled"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class SimulationStalled(SimulationError):
    """The no-progress watchdog fired: bounded cycles passed with zero
    instruction commits.  Carries a diagnostic dump of queue/bank/batch
    state (see :func:`repro.guard.diagnostics.stall_report`) so a
    livelock is debuggable instead of silently burning the event budget.
    """

    def __init__(self, message: str, report: str = "") -> None:
        self.report = report
        super().__init__(message)


class PeriodicTask:
    """A self-rescheduling periodic callback (telemetry samplers, watchdogs).

    Created via :meth:`EventQueue.schedule_every`.  The task re-arms itself
    after every firing until :meth:`cancel` is called; a cancelled task's
    already-scheduled event becomes a no-op, so cancellation is safe at any
    point (including from inside the callback).
    """

    __slots__ = ("queue", "interval", "callback", "priority", "cancelled", "fired")

    def __init__(
        self,
        queue: "EventQueue",
        interval: int,
        callback: Callable[[], None],
        priority: int,
    ) -> None:
        if interval < 1:
            raise ValueError("periodic interval must be >= 1 cycle")
        self.queue = queue
        self.interval = interval
        self.callback = callback
        self.priority = priority
        self.cancelled = False
        self.fired = 0

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fired += 1
        self.callback()
        if not self.cancelled:
            self.queue.schedule_in(self.interval, self._fire, self.priority)

    def cancel(self) -> None:
        """Stop future firings (pending heap entries become no-ops)."""
        self.cancelled = True


class EventQueue:
    """A priority queue of timed callbacks driving the simulation.

    Example
    -------
    >>> q = EventQueue()
    >>> hits = []
    >>> q.schedule(10, lambda: hits.append(q.now))
    >>> q.run()
    1
    >>> hits
    [10]
    """

    # Slotted: ``now`` and ``_seq`` are read/written multiple times per
    # event by the run loop and the fast backend's direct heap pushes.
    # ``now_seq`` is the sequence number of the event currently being
    # dispatched — sequence numbers are unique, so it identifies *which*
    # event is running, not just when.  The fast backend's wake elision
    # uses it to tell same-event enqueues apart from same-cycle ones.
    __slots__ = ("now", "_heap", "_seq", "now_seq")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: list[tuple[int, int, int, Callable[[], None]]] = []
        self._seq: int = 0
        self.now_seq: int = -1

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, when: int, callback: Callable[[], None], priority: int = 0) -> None:
        """Schedule ``callback`` to run at absolute time ``when``.

        ``priority`` breaks ties between events at the same time; lower
        priorities run first.  Scheduling in the past is an error.
        """
        if when < self.now:
            raise SimulationError(
                f"cannot schedule event at {when}, current time is {self.now}"
            )
        heapq.heappush(self._heap, (when, priority, self._seq, callback))
        self._seq += 1

    def schedule_in(self, delay: int, callback: Callable[[], None], priority: int = 0) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        self.schedule(self.now + delay, callback, priority)

    def schedule_every(
        self, interval: int, callback: Callable[[], None], priority: int = 5
    ) -> PeriodicTask:
        """Run ``callback`` every ``interval`` cycles until cancelled.

        The first firing is one interval from now.  Returns the
        :class:`PeriodicTask` handle; callers that drive the queue with
        ``run()`` (which drains the heap) must cancel it to terminate.
        """
        task = PeriodicTask(self, interval, callback, priority)
        self.schedule(self.now + interval, task._fire, priority)
        return task

    def step(self) -> bool:
        """Run the earliest pending event.  Returns ``False`` if none remain."""
        if not self._heap:
            return False
        when, _prio, seq, callback = heapq.heappop(self._heap)
        if when < self.now:
            raise SimulationError("event heap time went backwards")
        self.now = when
        self.now_seq = seq
        callback()
        return True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` is passed, or
        ``max_events`` have executed.  Returns the number of events run.
        """
        count = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                break
            if max_events is not None and count >= max_events:
                break
            self.step()
            count += 1
        if until is not None and self.now < until:
            self.now = until
        return count

    def release(self) -> None:
        """Drop every pending event (the run is over); ``now`` stays."""
        self._heap.clear()

    def peek_time(self) -> int | None:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        return self._heap[0][0] if self._heap else None
