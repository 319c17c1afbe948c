"""Table 4 reproduction: cross-system summary.

Aggregates the 4-, 8- and 16-core comparisons (geometric means of
unfairness, weighted/hmean speedup, AST/req and the worst-case request
latency) and reports the PAR-BS-vs-STFM deltas the paper headlines
(1.11X fairness and +4.4%/+8.3% throughput on 4 cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from .aggregate import AggregateResult, run_aggregate
from .paper_values import TABLE4
from .reporting import format_table

__all__ = ["Table4Result", "run_table4"]


@dataclass
class Table4Result:
    aggregates: dict[int, AggregateResult]  # cores -> aggregate

    def deltas_vs_stfm(self, cores: int) -> dict[str, float]:
        """PAR-BS improvement over STFM (the paper's headline row)."""
        summary = self.aggregates[cores].summary()
        stfm, parbs = summary["STFM"], summary["PAR-BS"]
        return {
            "unfairness_x": stfm["unfairness"] / parbs["unfairness"],
            "wspeedup_pct": 100.0 * (parbs["wspeedup"] / stfm["wspeedup"] - 1.0),
            "hspeedup_pct": 100.0 * (parbs["hspeedup"] / stfm["hspeedup"] - 1.0),
            "ast_pct": 100.0 * (1.0 - parbs["ast"] / stfm["ast"]),
        }

    def report(self) -> str:
        blocks = []
        for cores, aggregate in self.aggregates.items():
            rows = []
            paper = TABLE4.get(cores, {})
            for scheduler, vals in aggregate.summary().items():
                p = paper.get(scheduler, {})
                rows.append(
                    [
                        scheduler,
                        vals["unfairness"],
                        p.get("unfairness", float("nan")),
                        vals["wspeedup"],
                        p.get("wspeedup", float("nan")),
                        vals["hspeedup"],
                        p.get("hspeedup", float("nan")),
                        vals["ast"],
                        p.get("ast", float("nan")),
                        vals["wc_latency"],
                        p.get("wc_latency", float("nan")),
                    ]
                )
            headers = [
                "scheduler",
                "unf",
                "unf(p)",
                "ws",
                "ws(p)",
                "hs",
                "hs(p)",
                "AST",
                "AST(p)",
                "WC",
                "WC(p)",
            ]
            deltas = self.deltas_vs_stfm(cores)
            blocks.append(
                format_table(headers, rows, title=f"Table 4, {cores}-core system")
                + "\n"
                + (
                    f"PAR-BS vs STFM: {deltas['unfairness_x']:.2f}X fairness, "
                    f"{deltas['wspeedup_pct']:+.1f}% weighted speedup, "
                    f"{deltas['hspeedup_pct']:+.1f}% hmean speedup"
                )
            )
        return "\n\n".join(blocks)


def run_table4(
    core_counts: tuple[int, ...] = (4, 8, 16),
    counts: dict[int, int] | None = None,
    instructions: int | None = None,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> Table4Result:
    """Run the full cross-system summary.

    Each per-core aggregate executes as a campaign against ``store``
    (default: the store at the default cache location), so an interrupted
    Table 4 run resumes without redoing completed cells.
    """
    aggregates = {}
    for cores in core_counts:
        count = (counts or {}).get(cores)
        aggregates[cores] = run_aggregate(
            cores, count=count, instructions=instructions, seed=seed, store=store
        )
    return Table4Result(aggregates=aggregates)
