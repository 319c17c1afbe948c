"""Runtime robustness subsystem: invariant checking, fault injection,
and crash-safe degradation.

Three layers (see DESIGN.md and the README "Robustness & fault
injection" section):

* :mod:`repro.guard.invariants` — opt-in runtime validators asserting
  that the simulator upholds its own contracts: DRAM timing-protocol
  conformance, request conservation, marking-cap compliance, per-batch
  rank consistency, and the paper's batch-bounded starvation-freedom
  guarantee (Section 3).  Selected with ``--guard {off,check,strict}``
  or the ``REPRO_GUARD`` environment knob.
* :mod:`repro.guard.chaos` — a deterministic, seedable fault plan that
  kills pool workers, corrupts disk-cache entries, and injects SQLite
  errors into the campaign store, so recovery paths are exercised on
  demand (``repro campaign run --chaos ...`` / ``REPRO_CHAOS``).
* :mod:`repro.guard.diagnostics` — the no-progress watchdog's stall
  report: when :meth:`repro.sim.system.System.run` detects bounded
  cycles with zero commits it dumps queue/bank/batch state (plus the
  trace ring buffer when one is attached) and raises a clean
  :class:`~repro.events.SimulationStalled` instead of burning the event
  budget.

The wiring follows the observability layer's probe-or-None pattern:
with guards off (the default) every instrumented hot path holds ``None``
and pays a single local ``is not None`` test — the bench regression gate
runs with guards compiled out.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..events": ("SimulationStalled",),
        ".chaos": ("ChaosInjectedError", "ChaosPlan", "chaos_from_env"),
        ".invariants": ("GUARD_MODES", "Guard", "InvariantViolation", "guard_from_env"),
    },
)

__all__ = [
    "GUARD_MODES",
    "ChaosInjectedError",
    "ChaosPlan",
    "Guard",
    "InvariantViolation",
    "SimulationStalled",
    "chaos_from_env",
    "guard_from_env",
]
