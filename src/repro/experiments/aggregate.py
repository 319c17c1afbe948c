"""Aggregate experiments: Figures 8 (4-core), 10 (16-core) and the
workload-averaged halves of Table 4.

The paper averages over 100 pseudo-random 4-core mixes, 16 8-core mixes and
12 16-core mixes.  The mix counts here default to smaller numbers sized for
a laptop (override with the ``REPRO_WORKLOADS`` environment variable or the
``count`` argument); the sampling procedure is the paper's
(category-balanced pseudo-random selection).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import baseline_system, default_workload_count
from ..metrics.summary import WorkloadResult, geomean
from ..sim.runner import ExperimentRunner
from ..workloads.mixes import FIG8_SAMPLE_MIXES, SIXTEEN_CORE_MIXES, random_mixes
from .paper_values import SCHEDULERS, TABLE4
from .reporting import format_table, print_header

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
    runner: ExperimentRunner | None = None,
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

    The whole grid executes as a campaign: completed (mix × scheduler)
    cells are read back from the result store (``store``, default: the
    store at :func:`repro.campaign.store.default_db_path`) and only
    missing cells are simulated — interrupting and re-running resumes,
    and a finished aggregate is pure re-query.  Results are bit-identical
    to running the grid directly through
    :meth:`~repro.sim.runner.ExperimentRunner.run_many`.
    """
    if count is None:
        count = default_workload_count(num_cores)
    sim_seed = 0
    if runner is not None:
        if instructions is None:
            instructions = runner.instructions
        sim_seed = runner.seed
        if jobs is None:
            jobs = runner.jobs
        if runner.config != baseline_system(num_cores):
            return _run_aggregate_direct(
                num_cores, count, runner, include_sample_mixes, seed, jobs
            )
    from ..campaign.orchestrator import run_and_collect

    spec = aggregate_spec(
        num_cores,
        count=count,
        include_sample_mixes=include_sample_mixes,
        seed=seed,
        instructions=instructions,
        sim_seed=sim_seed,
    )
    results = run_and_collect(spec, store, jobs=jobs)
    mixes = spec.mixes_for(num_cores)
    per_mix: dict[str, list[WorkloadResult]] = {s: [] for s in SCHEDULERS}
    # Grid order is mix-major, variant (= scheduler) minor.
    for job_index, result in enumerate(results):
        per_mix[SCHEDULERS[job_index % len(SCHEDULERS)]].append(result)
    return AggregateResult(num_cores=num_cores, mixes=mixes, per_mix=per_mix)


def _run_aggregate_direct(
    num_cores: int,
    count: int,
    runner: ExperimentRunner,
    include_sample_mixes: bool,
    seed: int,
    jobs: int | None,
) -> AggregateResult:
    """Direct (non-campaign) path for runners with non-baseline configs,
    which the campaign grid — pinned to ``baseline_system`` — cannot
    describe."""
    mixes: list[list[str]] = []
    if include_sample_mixes:
        if num_cores == 4:
            mixes.extend([list(m) for m in FIG8_SAMPLE_MIXES])
        elif num_cores == 16:
            mixes.extend([list(m) for m in SIXTEEN_CORE_MIXES.values()])
    mixes.extend(random_mixes(num_cores, count=count, seed=seed))

    specs = [(mix, scheduler, {}) for mix in mixes for scheduler in SCHEDULERS]
    results = runner.run_many(specs, jobs=jobs)
    per_mix: dict[str, list[WorkloadResult]] = {s: [] for s in SCHEDULERS}
    for (_mix, scheduler, _kwargs), result in zip(specs, results):
        per_mix[scheduler].append(result)
    return AggregateResult(num_cores=num_cores, mixes=mixes, per_mix=per_mix)


def main() -> None:  # pragma: no cover - CLI entry
    for cores in (4, 8, 16):
        print_header(f"{cores}-core aggregate")
        print(run_aggregate(cores).report())


if __name__ == "__main__":  # pragma: no cover
    main()
