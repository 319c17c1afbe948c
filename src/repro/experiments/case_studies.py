"""Case-study experiments: Figures 5, 6, 7 (4-core) and 9 (8-core).

Each case study runs one fixed workload under the five schedulers and
reports per-thread memory slowdowns, unfairness, and system throughput —
the same quantities plotted in the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import baseline_system
from ..metrics.summary import WorkloadResult
from ..sim.runner import ExperimentRunner
from ..workloads.mixes import CASE_STUDY_1, CASE_STUDY_2, CASE_STUDY_3, EIGHT_CORE_MIX
from .paper_values import (
    FIG5_UNFAIRNESS,
    FIG6_UNFAIRNESS,
    FIG7_UNFAIRNESS,
    FIG9_UNFAIRNESS,
    SCHEDULERS,
)
from .reporting import ascii_bars, format_table

__all__ = ["CaseStudyResult", "run_case_study", "CASE_STUDIES"]


@dataclass
class CaseStudyResult:
    """All scheduler results for one case-study workload."""

    name: str
    workload: list[str]
    results: dict[str, WorkloadResult]
    paper_unfairness: dict[str, float] = field(default_factory=dict)

    def report(self) -> str:
        rows = []
        for scheduler in self.results:
            result = self.results[scheduler]
            row: list[object] = [
                scheduler,
                result.unfairness,
                self.paper_unfairness.get(scheduler, float("nan")),
                result.weighted_speedup,
                result.hmean_speedup,
            ]
            row.extend(t.memory_slowdown for t in result.threads)
            rows.append(row)
        headers = ["scheduler", "unfairness", "unf(paper)", "wspeedup", "hspeedup"]
        headers.extend(f"slow:{b}" for b in self.workload)
        table = format_table(headers, rows, title=f"{self.name}: {'+'.join(self.workload)}")
        bars = ascii_bars(
            {s: r.unfairness for s, r in self.results.items()},
            title="unfairness:",
        )
        return f"{table}\n\n{bars}"


# name -> (workload, cores, paper unfairness values)
CASE_STUDIES: dict[str, tuple[list[str], int, dict[str, float]]] = {
    "fig5_case_study_1": (CASE_STUDY_1, 4, FIG5_UNFAIRNESS),
    "fig6_case_study_2": (CASE_STUDY_2, 4, FIG6_UNFAIRNESS),
    "fig7_case_study_3": (CASE_STUDY_3, 4, FIG7_UNFAIRNESS),
    "fig9_8core_mix": (EIGHT_CORE_MIX, 8, FIG9_UNFAIRNESS),
}


def run_case_study(
    name: str,
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
) -> CaseStudyResult:
    """Run one of the paper's case studies by experiment name."""
    try:
        workload, cores, paper = CASE_STUDIES[name]
    except KeyError:
        raise ValueError(f"unknown case study {name!r}; known: {sorted(CASE_STUDIES)}") from None
    if runner is None:
        runner = ExperimentRunner(baseline_system(cores), instructions=instructions)
    results = runner.compare_schedulers(list(workload), SCHEDULERS)
    return CaseStudyResult(
        name=name, workload=list(workload), results=results, paper_unfairness=paper
    )
