"""Deterministic, seedable fault injection for the experiment stack.

Recovery paths that are never exercised do not exist.  A
:class:`ChaosPlan` describes a reproducible fault campaign — kill or
hang pool workers, corrupt disk-cache entries, interject SQLite
``OperationalError`` into the campaign store — so the pool's
``BrokenProcessPool`` recovery, the cache's quarantine path, and the
orchestrator's retry/resume machinery are tested on demand instead of
hoped-for.

Determinism: every injection decision is a pure function of
``(seed, fault kind, target key)`` — a SHA-256 fraction compared against
the configured rate — so the same plan faults the same jobs every run.
Injections are *once-only*: each fired fault drops an atomic marker file
in the plan's marker directory (shared by every worker process), so a
retried job succeeds on its second attempt and a chaos-interrupted
campaign converges to the same results as a fault-free run.

Plan specs are comma-separated ``key=value`` strings, e.g.::

    kill=0.5,corrupt=1.0,sqlite=0.3,seed=7,dir=/tmp/chaos-markers

accepted by ``--chaos`` on the campaign CLI or the ``REPRO_CHAOS``
environment knob.  ``dir`` names the marker directory; when omitted,
:meth:`ChaosPlan.parse` creates a fresh temporary one, and a run exports
the resolved spec (:meth:`ChaosPlan.exported`) so all workers share it.
"""

from __future__ import annotations

import logging
import os
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterator

from ..envknobs import EnvKnobError
from ..obs.metrics import PROCESS
from ..sim.diskcache import DiskCache, sha256

__all__ = ["ChaosInjectedError", "ChaosPlan", "chaos_from_env"]

logger = logging.getLogger(__name__)

_RATE_FIELDS = ("kill", "hang", "corrupt", "sqlite", "leasekill", "hbfreeze")

# How long a "hung" worker sleeps.  Pair hang-injection with
# REPRO_JOB_TIMEOUT_S so the pool's no-progress timeout reclaims it.
HANG_SECONDS = 3600.0


class ChaosInjectedError(RuntimeError):
    """An injected fault fired in the current process (serial paths raise
    this instead of dying, so the orchestrator's retry loop handles it)."""


@dataclass(frozen=True)
class ChaosPlan:
    """A reproducible fault-injection campaign.

    Rates are probabilities in ``[0, 1]`` evaluated per target key:

    * ``kill`` — a pool worker running a selected job dies hard
      (``os._exit``), breaking the pool; in-process execution raises
      :class:`ChaosInjectedError` instead.
    * ``hang`` — a selected worker sleeps past any sane job timeout.
    * ``corrupt`` — selected :class:`~repro.sim.diskcache.DiskCache`
      entries are truncated or overwritten with garbage.
    * ``sqlite`` — selected campaign-store commits raise
      ``sqlite3.OperationalError("database is locked")`` once.
    * ``leasekill`` — a campaign worker dies hard right after claiming a
      selected job's lease, on serial and pooled drains alike
      (``campaign work`` processes ``os._exit``, leaving the lease to
      expire and be reclaimed by a peer; in-process drains raise
      :class:`ChaosInjectedError`, charged to the job's first attempt).
    * ``hbfreeze`` — a selected job's lease heartbeats stop renewing for
      the rest of that execution (the worker keeps simulating), so the
      lease expires mid-run and the eventual commit is fenced off.
    """

    kill: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    sqlite: float = 0.0
    leasekill: float = 0.0
    hbfreeze: float = 0.0
    seed: int = 0
    dir: str = ""

    @classmethod
    def parse(cls, spec: str) -> "ChaosPlan":
        """Parse a ``key=value,...`` spec; raises
        :class:`~repro.envknobs.EnvKnobError` on malformed input so the
        CLI reports it as a clean one-liner."""
        values: dict[str, object] = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, raw = item.partition("=")
            name = name.strip()
            raw = raw.strip()
            if not sep or not raw:
                raise EnvKnobError(
                    f"REPRO_CHAOS: expected key=value, got {item!r}"
                )
            if name in _RATE_FIELDS:
                try:
                    rate = float(raw)
                except ValueError:
                    raise EnvKnobError(
                        f"REPRO_CHAOS: {name} rate must be a number (got {raw!r})"
                    ) from None
                if not 0.0 <= rate <= 1.0:
                    raise EnvKnobError(
                        f"REPRO_CHAOS: {name} rate must be in [0, 1] (got {raw!r})"
                    )
                values[name] = rate
            elif name == "seed":
                try:
                    values["seed"] = int(raw)
                except ValueError:
                    raise EnvKnobError(
                        f"REPRO_CHAOS: seed must be an integer (got {raw!r})"
                    ) from None
            elif name == "dir":
                values["dir"] = raw
            else:
                raise EnvKnobError(
                    f"REPRO_CHAOS: unknown field {name!r} "
                    f"(use {', '.join(_RATE_FIELDS)}, seed, dir)"
                )
        plan = cls(**values)
        if not plan.dir:
            # Resolve a marker directory now; callers that fan out must
            # propagate plan.spec() so every worker shares these markers.
            plan = replace(
                plan, dir=tempfile.mkdtemp(prefix="repro-chaos-")
            )
        return plan

    def spec(self) -> str:
        """Canonical spec string round-tripping through :meth:`parse`
        (exported to ``REPRO_CHAOS`` so workers share the plan)."""
        parts = [
            f"{name}={getattr(self, name):g}"
            for name in _RATE_FIELDS
            if getattr(self, name) > 0.0
        ]
        parts.append(f"seed={self.seed}")
        parts.append(f"dir={self.dir}")
        return ",".join(parts)

    @contextmanager
    def exported(self) -> Iterator[None]:
        """Export this plan to ``REPRO_CHAOS`` for the duration of a run.

        Jobs resolve the plan from the environment (that is how pool
        workers see it), so the resolved spec — marker dir pinned — must
        be exported for them to share its once-only markers.  The
        previous value is restored afterwards; nesting is harmless.
        """
        saved = os.environ.get("REPRO_CHAOS")
        os.environ["REPRO_CHAOS"] = self.spec()
        try:
            yield
        finally:
            if saved is None:
                os.environ.pop("REPRO_CHAOS", None)
            else:
                os.environ["REPRO_CHAOS"] = saved

    # -- decision machinery ------------------------------------------------
    def _decide(self, kind: str, key: str) -> bool:
        rate = getattr(self, kind)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        digest = sha256(f"{self.seed}:{kind}:{key}".encode()).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < rate

    def fire_once(self, kind: str, key: str) -> bool:
        """Whether fault ``kind`` fires for ``key`` — at most once across
        every process sharing this plan's marker directory."""
        if not self._decide(kind, key):
            return False
        token = sha256(f"{kind}:{key}".encode()).hexdigest()[:16]
        marker = Path(self.dir) / f"{kind}-{token}.fired"
        try:
            marker.parent.mkdir(parents=True, exist_ok=True)
            # O_EXCL create is the cross-process once-only gate.
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{kind} {key}\n")
        # A worker that dies to the injection takes this count with it:
        # the surviving processes' counts are the observable signal.
        PROCESS.counter(f"chaos.fired.{kind}").inc()
        return True

    # -- fault actions -----------------------------------------------------
    def maybe_kill_worker(self, key: str) -> None:
        """Kill (or hang) the current process if the plan selects ``key``.

        In a pool worker a kill is a hard ``os._exit`` so the parent sees
        ``BrokenProcessPool``; in the submitting process it degrades to a
        :class:`ChaosInjectedError` (killing the CLI would defeat the
        point of testing recovery).
        """
        import multiprocessing

        if self.fire_once("kill", key):
            if multiprocessing.parent_process() is not None:
                logger.warning("chaos: killing worker on job %s", key[:12])
                os._exit(137)
            raise ChaosInjectedError(f"chaos: injected worker kill for job {key[:12]}")
        if self.fire_once("hang", key):
            if multiprocessing.parent_process() is not None:
                logger.warning("chaos: hanging worker on job %s", key[:12])
                time.sleep(HANG_SECONDS)
                os._exit(137)
            raise ChaosInjectedError(f"chaos: injected worker hang for job {key[:12]}")

    def corrupt_cache(self, cache: DiskCache) -> int:
        """Truncate or garbage selected cache entries; returns the count.

        Selected entries alternate (by key hash) between truncation —
        half the file, a torn-write model — and byte garbage, so both
        ``json.JSONDecodeError`` shapes hit the quarantine path.
        """
        corrupted = 0
        for path, _mtime, size in cache.entries():
            key = path.stem
            if not self.fire_once("corrupt", f"{path.parent.name}/{key}"):
                continue
            try:
                if int(key[-1], 36) % 2 == 0:
                    with path.open("r+b") as fh:
                        fh.truncate(max(1, size // 2))
                else:
                    path.write_bytes(b"\x00chaos garbage\x00")
            except (OSError, ValueError):  # pragma: no cover - racing prune
                continue
            corrupted += 1
        if corrupted:
            logger.warning("chaos: corrupted %d cache entries", corrupted)
        return corrupted

    def maybe_kill_leaseholder(self, key: str, *, hard: bool = False) -> None:
        """Die right after claiming ``key``'s lease — at most once.

        ``hard`` is set by top-level ``campaign work`` processes (no pool
        parent to observe a ``BrokenProcessPool``): the process exits 137
        and its lease is left to expire so a peer worker reclaims the
        job.  In-process drains raise :class:`ChaosInjectedError`, which
        the drain charges to the job's first attempt, so it is retried.
        """
        if self.fire_once("leasekill", key):
            if hard:
                logger.warning(
                    "chaos: killing worker holding lease on %s", key[:12]
                )
                os._exit(137)
            raise ChaosInjectedError(
                f"chaos: injected lease-holder kill for job {key[:12]}"
            )

    def freeze_heartbeats(self, key: str) -> bool:
        """Whether this execution of ``key`` should stop renewing its
        lease heartbeats — at most once across the plan's processes.
        The worker keeps simulating; the lease expires mid-run, a peer
        (or a later pass) reclaims the job, and the frozen worker's
        eventual commit must be rejected by the fencing token."""
        return self.fire_once("hbfreeze", key)

    def sqlite_hiccup(self, key: str) -> None:
        """Raise a transient ``OperationalError`` once per store commit key."""
        if self.fire_once("sqlite", key):
            logger.warning("chaos: injected sqlite error on %s", key[:12])
            # Imported here: a process that opens no store loads no SQLite.
            import sqlite3

            raise sqlite3.OperationalError("database is locked (chaos injection)")


def chaos_from_env(environ: dict | None = None) -> ChaosPlan | None:
    """The active :class:`ChaosPlan` per ``REPRO_CHAOS``, or ``None``."""
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_CHAOS")
    if raw is None or not raw.strip():
        return None
    return ChaosPlan.parse(raw.strip())
