"""Central parsing for the ``REPRO_*`` environment knobs.

Every tunable the suite reads from the environment goes through this
module so a malformed value fails the same way everywhere: an
:class:`EnvKnobError` whose message is one line and names the offending
variable — instead of a bare ``ValueError: invalid literal for int()``
raised from deep inside a run.  The CLI catches :class:`EnvKnobError` at
the top level and turns it into a clean ``error: ...`` line and exit
status 2.

Knobs parsed here:

=========================  ==================================================
``REPRO_JOBS``             worker processes for independent simulations
``REPRO_WORKLOADS``        random mixes per aggregate experiment
``REPRO_SCALE``            float multiplier over default instruction counts
``REPRO_SAMPLE_INTERVAL``  telemetry sample period in cycles
``REPRO_CACHE_MAX_MB``     on-disk cache size bound (mtime-LRU pruning)
``REPRO_GUARD``            invariant checking mode (off/check/strict)
``REPRO_BACKEND``          simulation backend (python/fast/verify)
``REPRO_CHAOS``            fault-injection plan spec for campaign runs
``REPRO_JOB_TIMEOUT_S``    per-job wall-clock timeout in pool/campaign workers
``REPRO_METRICS``          operational metrics registry toggle (default on)
``REPRO_TRACE_DIR``        directory for generated sample trace files
``REPRO_STORE_BUSY_TIMEOUT_S``  SQLite busy_timeout for the shared result
                           store (seconds, default 30; floor 0) — how long
                           a writer blocks on a peer's transaction before
                           the jittered commit-retry loop takes over
``REPRO_LEASE_S``          work-queue lease duration in seconds (default
                           30, floor 0.1): a worker silent for this long
                           forfeits its job to reclamation
``REPRO_HEARTBEAT_S``      lease renewal period (default lease/3, floor
                           0.05); must be well under ``REPRO_LEASE_S`` or
                           healthy workers get reclaimed
=========================  ==================================================

``REPRO_METRICS`` is parsed next to its registry in
:mod:`repro.obs.metrics` (it is a bare boolean, not one of the shapes
below) but fails the same way: a value outside 1/true/yes/on/0/false/
no/off raises :class:`EnvKnobError` naming the variable.

``REPRO_TRACE_DIR`` is a bare directory path (nothing to parse), read in
:mod:`repro.traces.library`; unset means generated traces land next to
the committed samples in the package ``data/`` directory.
"""

from __future__ import annotations

import os

__all__ = [
    "EnvKnobError",
    "read_int",
    "read_float",
    "read_optional_int",
    "read_optional_float",
    "read_choice",
    "default_jobs",
    "default_job_timeout",
]


class EnvKnobError(ValueError):
    """A ``REPRO_*`` environment variable holds an unparseable value."""


def _raw(name: str, environ: dict | None) -> str | None:
    env = os.environ if environ is None else environ
    value = env.get(name)
    if value is None or value.strip() == "":
        return None
    return value.strip()


def read_int(
    name: str,
    default: int,
    *,
    floor: int | None = None,
    environ: dict | None = None,
) -> int:
    """Integer knob ``name``; unset/empty means ``default``.

    Values below ``floor`` are clamped (matching the historical
    ``max(1, ...)`` behaviour of the individual call sites); a value that
    is not an integer at all raises :class:`EnvKnobError`.
    """
    raw = _raw(name, environ)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvKnobError(f"{name} must be an integer (got {raw!r})") from None
    if floor is not None and value < floor:
        return floor
    return value


def read_float(
    name: str,
    default: float,
    *,
    floor: float | None = None,
    environ: dict | None = None,
) -> float:
    """Float knob ``name``; unset/empty means ``default``."""
    raw = _raw(name, environ)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise EnvKnobError(f"{name} must be a number (got {raw!r})") from None
    if floor is not None and value < floor:
        return floor
    return value


def read_optional_int(
    name: str,
    *,
    floor: int | None = None,
    environ: dict | None = None,
) -> int | None:
    """Integer knob where unset means "feature off" (``None``)."""
    if _raw(name, environ) is None:
        return None
    return read_int(name, 0, floor=floor, environ=environ)


def read_choice(
    name: str,
    default: str,
    *,
    choices: tuple[str, ...],
    environ: dict | None = None,
) -> str:
    """Enumerated knob ``name``; unset/empty means ``default``.

    The value is lower-cased before matching, so ``REPRO_GUARD=STRICT``
    works; anything outside ``choices`` raises :class:`EnvKnobError`.
    """
    raw = _raw(name, environ)
    if raw is None:
        return default
    value = raw.lower()
    if value not in choices:
        raise EnvKnobError(
            f"{name} must be one of {', '.join(choices)} (got {raw!r})"
        )
    return value


def read_optional_float(
    name: str,
    *,
    floor: float | None = None,
    environ: dict | None = None,
) -> float | None:
    """Float knob where unset means "feature off" (``None``)."""
    if _raw(name, environ) is None:
        return None
    return read_float(name, 0.0, floor=floor, environ=environ)


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (default 1 = serial)."""
    return read_int("REPRO_JOBS", 1, floor=1)


def default_job_timeout() -> float | None:
    """Per-job no-progress timeout in seconds from ``REPRO_JOB_TIMEOUT_S``
    (``None`` = no timeout).  Applied to pool and campaign workers: if no
    job completes within the window the pool is presumed hung, its workers
    are terminated, and the unfinished jobs are retried."""
    return read_optional_float("REPRO_JOB_TIMEOUT_S", floor=0.1)
