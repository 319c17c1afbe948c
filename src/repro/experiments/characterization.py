"""Table 3 reproduction: alone-run benchmark characterization.

Runs every synthetic benchmark alone on the baseline 4-core memory system
and reports measured MPKI, row-buffer hit rate, BLP, AST/req and MCPI next
to the published values — this validates the trace-generator calibration
that every other experiment rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import baseline_system
from ..sim.runner import AloneStats, ExperimentRunner
from ..workloads.profiles import PROFILES, BenchmarkProfile
from .reporting import format_table

__all__ = ["CharacterizationResult", "run_characterization"]


@dataclass
class CharacterizationResult:
    rows: list[tuple[BenchmarkProfile, AloneStats, float]]  # profile, stats, mpki

    def report(self) -> str:
        table_rows = []
        for profile, stats, mpki in self.rows:
            table_rows.append(
                [
                    profile.name,
                    profile.category,
                    profile.mpki,
                    mpki,
                    profile.row_hit_rate,
                    stats.row_hit_rate,
                    profile.blp,
                    stats.blp,
                    float(profile.ast_per_req),
                    stats.ast_per_req,
                    profile.mcpi,
                    stats.mcpi,
                ]
            )
        headers = [
            "benchmark",
            "cat",
            "MPKI(p)",
            "MPKI",
            "RBhit(p)",
            "RBhit",
            "BLP(p)",
            "BLP",
            "AST(p)",
            "AST",
            "MCPI(p)",
            "MCPI",
        ]
        return format_table(headers, table_rows, title="Table 3 characterization")


def run_characterization(
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
    benchmarks: list[str] | None = None,
) -> CharacterizationResult:
    """Characterize ``benchmarks`` (default: all 28) alone on the baseline."""
    runner = runner or ExperimentRunner(baseline_system(4), instructions=instructions)
    names = benchmarks or [
        p.name for p in sorted(PROFILES.values(), key=lambda p: p.number)
    ]
    rows = []
    for name in names:
        profile = PROFILES[name]
        stats = runner.alone(name)
        trace = runner.trace_for(name)
        mpki = trace.accesses_per_kilo_instruction()
        rows.append((profile, stats, mpki))
    return CharacterizationResult(rows=rows)
