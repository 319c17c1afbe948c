"""Aggregate experiments: Figures 8 (4-core), 10 (16-core) and the
workload-averaged halves of Table 4.

The paper averages over 100 pseudo-random 4-core mixes, 16 8-core mixes and
12 16-core mixes.  The mix counts here default to smaller numbers sized for
a laptop (override with the ``REPRO_WORKLOADS`` environment variable or the
``count`` argument); the sampling procedure is the paper's
(category-balanced pseudo-random selection).

An aggregate is a campaign over (mix × scheduler) on
``baseline_system(num_cores)`` with sim seed 0; there is no ``runner``
argument and no direct path.  Mixes run in the campaign order: the named
sample mixes when requested, then the seeded random mixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import default_workload_count
from ..metrics.summary import WorkloadResult, geomean
from .ablations import run_sweep
from .paper_values import SCHEDULERS, TABLE4
from .reporting import format_table

__all__ = [
    "AggregateResult",
    "aggregate_spec",
    "run_aggregate",
    "default_workload_count",
]


@dataclass
class AggregateResult:
    """Geometric-mean metrics per scheduler over a set of workload mixes."""

    num_cores: int
    mixes: list[list[str]]
    per_mix: dict[str, list[WorkloadResult]]  # scheduler -> results per mix

    def summary(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = {}
        for scheduler, results in self.per_mix.items():
            out[scheduler] = {
                "unfairness": geomean([r.unfairness for r in results]),
                "wspeedup": geomean([r.weighted_speedup for r in results]),
                "hspeedup": geomean([r.hmean_speedup for r in results]),
                "ast": geomean(
                    [max(r.avg_stall_per_request, 1e-9) for r in results]
                ),
                "wc_latency": max(r.worst_case_latency for r in results),
            }
        return out

    def report(self) -> str:
        paper = TABLE4.get(self.num_cores, {})
        summary = self.summary()
        rows = []
        for scheduler, vals in summary.items():
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
                ]
            )
        headers = [
            "scheduler",
            "unf",
            "unf(paper)",
            "ws",
            "ws(paper)",
            "hs",
            "hs(paper)",
            "AST",
            "AST(paper)",
        ]
        title = f"{self.num_cores}-core aggregate over {len(self.mixes)} mixes"
        return format_table(headers, rows, title=title)


def aggregate_spec(
    num_cores: int = 4,
    count: int | None = None,
    include_sample_mixes: bool = False,
    seed: int = 42,
    instructions: int | None = None,
    sim_seed: int = 0,
) -> "CampaignSpec":
    """The campaign spec behind Figures 8/10 for one system size."""
    from ..campaign.spec import CampaignSpec, Variant

    return CampaignSpec(
        name=f"aggregate-{num_cores}core",
        description=f"Paper aggregate comparison, {num_cores}-core system",
        variants=tuple(Variant(s, s) for s in SCHEDULERS),
        num_cores=(num_cores,),
        mix_count=count,
        mix_seed=seed,
        include_sample_mixes=include_sample_mixes,
        seeds=(sim_seed,),
        instructions=instructions,
    )


def run_aggregate(
    num_cores: int = 4,
    count: int | None = None,
    instructions: int | None = None,
    include_sample_mixes: bool = False,
    seed: int = 42,
    jobs: int | None = None,
    store: "ResultStore | None" = None,
) -> AggregateResult:
    """Run the paper's aggregate comparison for one system size.

    ``include_sample_mixes`` additionally prepends the named sample mixes
    shown on the figure's x-axis (Figure 8's ten mixes for 4 cores,
    Figure 10's five for 16 cores).

    The whole grid executes as a campaign (:func:`run_sweep`): completed
    (mix × scheduler) cells are read back from the result store
    (``store``, default: the store at
    :func:`repro.campaign.store.default_db_path`) and only missing cells
    are simulated — interrupting and re-running resumes, and a finished
    aggregate is pure re-query.
    """
    if count is None:
        count = default_workload_count(num_cores)
    spec = aggregate_spec(
        num_cores,
        count=count,
        include_sample_mixes=include_sample_mixes,
        seed=seed,
        instructions=instructions,
    )
    sweep = run_sweep(spec, store, jobs)
    return AggregateResult(
        num_cores=num_cores, mixes=sweep.mixes, per_mix=sweep.variants
    )
