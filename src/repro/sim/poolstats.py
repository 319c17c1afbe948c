"""The process-pool engine's plain-dict counters.

:mod:`repro.sim.pool` counts into these and re-exports them; they live
apart from it so that :func:`repro.obs.metrics.collect_process_metrics`
reads them without importing the pool and, with it, ``multiprocessing``.
"""

from __future__ import annotations

__all__ = ["JOB_STATS", "POOL_STATS"]

# Count of simulations actually executed by this process (serial path and
# pool workers each count their own).  The campaign resume tests read this
# to prove that a resumed run re-simulates only the missing jobs.
JOB_STATS = {"executed": 0}

# Operational counters of this process's pool management (submitting side:
# respawns after incidents, no-progress timeouts, falls back to serial).
# Folded into the metrics plane by
# :func:`repro.obs.metrics.collect_process_metrics`.
POOL_STATS = {"respawns": 0, "serial_fallbacks": 0, "timeouts": 0}
