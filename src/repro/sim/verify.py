"""Bit-identical verification of the fast simulation backend.

The fast backend (:mod:`repro.dram.fastctl`) promises the *same
simulation* as the reference object model — identical command streams,
cycles, per-thread statistics and metrics — at a fraction of the
per-event cost.  ``verify`` mode makes that promise checkable end to
end: the experiment runner executes every shared run twice, once per
backend, over the same :class:`~repro.cpu.trace.Trace` objects with
fresh scheduler state, and any divergence raises
:class:`BackendMismatch` naming the first differing command.

Backend selection goes through :func:`backend_from_env`
(``REPRO_BACKEND`` / the ``--backend`` CLI flag):

==========  ==============================================================
``fast``    flat-array timing kernel (:mod:`repro.dram.fastctl`) with
            packed-key arbitration (default)
``python``  reference object-model controller; every decision is the
            policy's ``select`` scan
``verify``  both, asserting bit-for-bit agreement on every run
==========  ==============================================================

The library constructor :class:`~repro.sim.system.System` still defaults
to ``python``; this default applies to the runners and the CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..envknobs import read_choice

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics.summary import WorkloadResult
    from .system import System

__all__ = [
    "BACKENDS",
    "BackendMismatch",
    "backend_from_env",
    "compare_results",
    "compare_systems",
]

BACKENDS = ("python", "fast", "verify")


def backend_from_env() -> str:
    """Simulation backend from ``REPRO_BACKEND`` (default ``fast``)."""
    return read_choice("REPRO_BACKEND", "fast", choices=BACKENDS)


class BackendMismatch(AssertionError):
    """The fast backend diverged from the reference simulation.

    Raised only in ``verify`` mode.  Any occurrence is a simulator bug:
    the fast backend's contract is bit-identity, not approximation.
    """


def _diff_logs(reference: list, candidate: list) -> str | None:
    """First divergence between two command streams, human-readable."""
    for index, (ref, cand) in enumerate(zip(reference, candidate)):
        if ref != cand:
            return (
                f"command streams diverge at command {index}:\n"
                f"  python: {ref}\n"
                f"  fast:   {cand}"
            )
    if len(reference) != len(candidate):
        return (
            f"command streams agree for {min(len(reference), len(candidate))} "
            f"commands, then lengths diverge: python issued "
            f"{len(reference)}, fast issued {len(candidate)}"
        )
    return None


def compare_systems(reference: "System", candidate: "System") -> None:
    """Assert two finished systems observed the same simulation.

    ``reference`` is the python-backend run, ``candidate`` the fast run.
    Both must have executed with ``controller.command_log`` enabled.
    Checks, in order of diagnostic value: the command streams (timestamp,
    run-relative request id, placement and full timing of every issued
    command), total cycles and events, final bank state, per-thread DRAM
    statistics, and the per-core retirement snapshots.
    """
    ref_log = reference.controller.command_log
    cand_log = candidate.controller.command_log
    if ref_log is None or cand_log is None:
        raise ValueError("compare_systems requires command_log on both runs")
    diff = _diff_logs(ref_log, cand_log)
    if diff is not None:
        raise BackendMismatch(diff)
    if reference.queue.now != candidate.queue.now:
        raise BackendMismatch(
            f"simulated cycles diverge: python {reference.queue.now}, "
            f"fast {candidate.queue.now}"
        )
    # The fast backend elides wakes whose firing is provably a no-op
    # (see fastctl), so raw processed counts legitimately differ; the
    # *logical* count (processed + elided) must match the reference's
    # exactly — every elision is accounted, none invented.
    if reference.events_logical != candidate.events_logical:
        raise BackendMismatch(
            f"logical event counts diverge: python "
            f"{reference.events_logical} "
            f"(processed {reference.events_processed}), fast "
            f"{candidate.events_logical} "
            f"(processed {candidate.events_processed} "
            f"+ elided {candidate.events_elided})"
        )
    # Final DRAM state: the fast controller's ``sync_state`` (called at end
    # of run) flushes the flat arrays back into Bank/DataBus objects, so
    # the object model is directly comparable.
    for (c, ref_ch) in enumerate(reference.controller.channels):
        cand_ch = candidate.controller.channels[c]
        for b, ref_bank in enumerate(ref_ch.banks):
            cand_bank = cand_ch.banks[b]
            state = (
                ref_bank.open_row,
                ref_bank.busy_until,
                ref_bank.accesses,
                ref_bank.row_hits,
                ref_bank.row_conflicts,
            )
            cand_state = (
                cand_bank.open_row,
                cand_bank.busy_until,
                cand_bank.accesses,
                cand_bank.row_hits,
                cand_bank.row_conflicts,
            )
            if state != cand_state:
                raise BackendMismatch(
                    f"bank ({c},{b}) final state diverges: "
                    f"python {state}, fast {cand_state}"
                )
        bus_state = (
            ref_ch.bus.free_at,
            ref_ch.bus.busy_cycles,
            ref_ch.bus.transfers,
            ref_ch.bus.wait_cycles,
        )
        cand_bus = (
            cand_ch.bus.free_at,
            cand_ch.bus.busy_cycles,
            cand_ch.bus.transfers,
            cand_ch.bus.wait_cycles,
        )
        if bus_state != cand_bus:
            raise BackendMismatch(
                f"channel {c} bus counters diverge: "
                f"python {bus_state}, fast {cand_bus}"
            )
    if reference.controller.thread_stats != candidate.controller.thread_stats:
        raise BackendMismatch(
            "per-thread DRAM statistics diverge:\n"
            f"  python: {reference.controller.thread_stats}\n"
            f"  fast:   {candidate.controller.thread_stats}"
        )
    for ref_core, cand_core in zip(reference.cores, candidate.cores):
        if ref_core.snapshot != cand_core.snapshot:
            raise BackendMismatch(
                f"core {ref_core.thread_id} snapshot diverges:\n"
                f"  python: {ref_core.snapshot}\n"
                f"  fast:   {cand_core.snapshot}"
            )


def compare_results(reference: "WorkloadResult", candidate: "WorkloadResult") -> None:
    """Assert two :class:`~repro.metrics.summary.WorkloadResult` packages
    are identical (telemetry excluded — the shadow run never records any).

    The raw event split legitimately differs between backends (the fast
    path elides wakes and counts kernel min-rebuilds the python path has
    no notion of), so both results are canonicalized to their *logical*
    event count before comparison — which still asserts the
    backend-independent invariant ``python.processed == fast.processed +
    fast.elided``, the same identity :func:`compare_systems` checks at
    the system level.
    """
    from dataclasses import replace

    ref = replace(
        reference,
        telemetry=None,
        events_processed=reference.events_logical,
        events_elided=0,
        min_rebuilds=0,
    )
    cand = replace(
        candidate,
        telemetry=None,
        events_processed=candidate.events_logical,
        events_elided=0,
        min_rebuilds=0,
    )
    if ref != cand:
        raise BackendMismatch(
            f"workload results diverge:\n  python: {ref}\n  fast:   {cand}"
        )
