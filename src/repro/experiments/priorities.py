"""Thread-priority experiments: Figure 14.

Two scenarios from Section 8.4:

* **Weighted lbm copies** — four copies of lbm with PAR-BS priority levels
  1, 1, 2, 8 (1 = most important) and the corresponding NFQ/STFM weights
  8, 8, 4, 1.  Every scheduler should respect the ordering; PAR-BS should
  give the high-priority copies the lowest slowdown because it preserves
  their bank-level parallelism.
* **Opportunistic service** — omnetpp is the only thread that matters;
  libquantum, milc and astar run purely opportunistically under PAR-BS
  (level :data:`~repro.core.OPPORTUNISTIC`: never marked, lowest priority).
  NFQ/STFM approximate this with a very large weight (8192) for omnetpp.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import baseline_system
from ..core.batcher import OPPORTUNISTIC
from ..metrics.summary import WorkloadResult
from ..sim.runner import ExperimentRunner
from .reporting import format_table

__all__ = ["PriorityScenarioResult", "run_weighted_lbm", "run_opportunistic"]

LBM_WORKLOAD = ["lbm", "lbm", "lbm", "lbm"]
LBM_PARBS_PRIORITIES = {0: 1, 1: 1, 2: 2, 3: 8}
LBM_WEIGHTS = {0: 8.0, 1: 8.0, 2: 4.0, 3: 1.0}

OPPORTUNISTIC_WORKLOAD = ["libquantum", "milc", "omnetpp", "astar"]
OPPORTUNISTIC_PARBS_PRIORITIES = {0: OPPORTUNISTIC, 1: OPPORTUNISTIC, 2: 1, 3: OPPORTUNISTIC}
OPPORTUNISTIC_WEIGHTS = {0: 1.0, 1: 1.0, 2: 8192.0, 3: 1.0}


@dataclass
class PriorityScenarioResult:
    name: str
    workload: list[str]
    labels: list[str]  # per-thread priority labels for display
    results: dict[str, WorkloadResult]

    def slowdowns(self, scheduler: str) -> list[float]:
        return [t.memory_slowdown for t in self.results[scheduler].threads]

    def report(self) -> str:
        headers = ["scheduler"] + [
            f"{b}({lab})" for b, lab in zip(self.workload, self.labels)
        ]
        rows = []
        for scheduler, result in self.results.items():
            rows.append([scheduler] + [t.memory_slowdown for t in result.threads])
        return format_table(headers, rows, title=f"{self.name} (memory slowdowns)")


def run_weighted_lbm(
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
) -> PriorityScenarioResult:
    """Figure 14 (left): 4x lbm with priorities 1-1-2-8 / weights 8-8-4-1."""
    runner = runner or ExperimentRunner(baseline_system(4), instructions=instructions)
    results = {
        "FR-FCFS": runner.run_workload(LBM_WORKLOAD, "FR-FCFS"),
        "NFQ-shares-8-8-4-1": runner.run_workload(LBM_WORKLOAD, "NFQ", weights=LBM_WEIGHTS),
        "STFM-weights-8-8-4-1": runner.run_workload(LBM_WORKLOAD, "STFM", weights=LBM_WEIGHTS),
        "PAR-BS-pri-1-1-2-8": runner.run_workload(
            LBM_WORKLOAD, "PAR-BS", priorities=LBM_PARBS_PRIORITIES
        ),
    }
    return PriorityScenarioResult(
        name="fig14_weighted_lbm",
        workload=LBM_WORKLOAD,
        labels=["pri1", "pri1", "pri2", "pri8"],
        results=results,
    )


def run_opportunistic(
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
) -> PriorityScenarioResult:
    """Figure 14 (right): omnetpp prioritized, the rest opportunistic."""
    runner = runner or ExperimentRunner(baseline_system(4), instructions=instructions)
    results = {
        "FR-FCFS": runner.run_workload(OPPORTUNISTIC_WORKLOAD, "FR-FCFS"),
        "NFQ-1-1-8K-1": runner.run_workload(
            OPPORTUNISTIC_WORKLOAD, "NFQ", weights=OPPORTUNISTIC_WEIGHTS
        ),
        "STFM-1-1-8K-1": runner.run_workload(
            OPPORTUNISTIC_WORKLOAD, "STFM", weights=OPPORTUNISTIC_WEIGHTS
        ),
        "PAR-BS-L-L-0-L": runner.run_workload(
            OPPORTUNISTIC_WORKLOAD, "PAR-BS", priorities=OPPORTUNISTIC_PARBS_PRIORITIES
        ),
    }
    return PriorityScenarioResult(
        name="fig14_opportunistic",
        workload=OPPORTUNISTIC_WORKLOAD,
        labels=["low", "low", "high", "low"],
        results=results,
    )
