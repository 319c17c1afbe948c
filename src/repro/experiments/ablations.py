"""Ablation experiments: Figures 11, 12 and 13.

* Figure 11 — effect of ``Marking-Cap`` (1..10, 20, and no cap) on average
  unfairness/throughput and on the Case Study I/II slowdowns.
* Figure 12 — batching discipline: time-based static batching with various
  ``BatchDuration`` values, empty-slot batching, and PAR-BS's full batching.
* Figure 13 — within-batch scheduling: Max-Total vs Total-Max vs random vs
  round-robin ranking, and rank-free FR-FCFS / FCFS within batches
  (batching without parallelism-awareness), plus STFM for reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import baseline_system
from ..metrics.summary import WorkloadResult, geomean
from ..sim.runner import ExperimentRunner
from ..workloads.mixes import CASE_STUDY_1, CASE_STUDY_2, random_mixes
from .reporting import format_table

__all__ = [
    "SweepResult",
    "marking_cap_sweep",
    "batching_choice_sweep",
    "ranking_scheme_sweep",
    "marking_cap_spec",
    "batching_choice_spec",
    "ranking_scheme_spec",
    "MARKING_CAPS",
    "STATIC_DURATIONS",
    "RANKING_VARIANTS",
]

# Figure 11's x-axis: caps 1..10, 20 and no cap (None).
MARKING_CAPS: list[int | None] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, None]

# Figure 12's x-axis: static batch durations in cycles, then eslot and full.
STATIC_DURATIONS = [400, 800, 1600, 3200, 6400, 12800, 25600]

# Figure 13's x-axis: within-batch policies (PAR-BS variants) plus STFM.
RANKING_VARIANTS: dict[str, dict] = {
    "max-total(PAR-BS)": {"within_batch": "par", "ranking": "max-total"},
    "total-max": {"within_batch": "par", "ranking": "total-max"},
    "random": {"within_batch": "par", "ranking": "random"},
    "round-robin": {"within_batch": "par", "ranking": "round-robin"},
    "no-rank(FR-FCFS)": {"within_batch": "frfcfs"},
    "no-rank(FCFS)": {"within_batch": "fcfs"},
}


@dataclass
class SweepResult:
    """Results of one ablation sweep over workload mixes."""

    variants: dict[str, list[WorkloadResult]]  # variant label -> per-mix results
    mixes: list[list[str]]

    def summary(self) -> dict[str, dict[str, float]]:
        return {
            label: {
                "unfairness": geomean([r.unfairness for r in results]),
                "wspeedup": geomean([r.weighted_speedup for r in results]),
                "hspeedup": geomean([r.hmean_speedup for r in results]),
            }
            for label, results in self.variants.items()
        }

    def report(self, title: str) -> str:
        rows = [
            [label, vals["unfairness"], vals["wspeedup"], vals["hspeedup"]]
            for label, vals in self.summary().items()
        ]
        return format_table(
            ["variant", "unfairness", "wspeedup", "hspeedup"], rows, title=title
        )

    def case_slowdowns(self, variant: str, mix_index: int = 0) -> dict[str, float]:
        result = self.variants[variant][mix_index]
        return {t.benchmark: t.memory_slowdown for t in result.threads}


def _mix_set(count: int, include_case_studies: bool, seed: int) -> list[list[str]]:
    mixes: list[list[str]] = []
    if include_case_studies:
        mixes.append(list(CASE_STUDY_1))
        mixes.append(list(CASE_STUDY_2))
    mixes.extend(random_mixes(4, count=count, seed=seed))
    return mixes


def _sweep_spec(
    name: str,
    description: str,
    variants,
    count: int,
    include_case_studies: bool,
    seed: int,
    instructions: int | None,
    sim_seed: int = 0,
) -> "CampaignSpec":
    from ..campaign.spec import CampaignSpec

    return CampaignSpec(
        name=name,
        description=description,
        variants=tuple(variants),
        num_cores=(4,),
        mix_count=count,
        mix_seed=seed,
        include_case_studies=include_case_studies,
        seeds=(sim_seed,),
        instructions=instructions,
    )


def marking_cap_spec(
    caps: list[int | None] | None = None,
    count: int = 6,
    include_case_studies: bool = True,
    seed: int = 42,
    instructions: int | None = None,
    sim_seed: int = 0,
) -> "CampaignSpec":
    """The campaign spec behind Figure 11."""
    from ..campaign.spec import Variant

    caps = MARKING_CAPS if caps is None else caps
    variants = [
        Variant(
            f"c={cap}" if cap is not None else "no-c",
            "PAR-BS",
            (("marking_cap", cap),),
        )
        for cap in caps
    ]
    return _sweep_spec(
        "marking-cap",
        "Figure 11: PAR-BS fairness/throughput as Marking-Cap varies",
        variants, count, include_case_studies, seed, instructions, sim_seed,
    )


def batching_choice_spec(
    durations: list[int] | None = None,
    count: int = 6,
    include_case_studies: bool = True,
    seed: int = 42,
    instructions: int | None = None,
    sim_seed: int = 0,
) -> "CampaignSpec":
    """The campaign spec behind Figure 12."""
    from ..campaign.spec import Variant

    durations = STATIC_DURATIONS if durations is None else durations
    variants = [
        Variant(
            f"st-{duration}",
            "PAR-BS",
            (("batching", "static"), ("batch_duration", duration)),
        )
        for duration in durations
    ]
    variants.append(Variant("eslot", "PAR-BS", (("batching", "eslot"),)))
    variants.append(Variant("full", "PAR-BS"))
    return _sweep_spec(
        "batching-choice",
        "Figure 12: static vs eslot vs full batching",
        variants, count, include_case_studies, seed, instructions, sim_seed,
    )


def ranking_scheme_spec(
    count: int = 6,
    include_case_studies: bool = False,
    extra_mixes: list[list[str]] | None = None,
    seed: int = 42,
    instructions: int | None = None,
    sim_seed: int = 0,
) -> "CampaignSpec":
    """The campaign spec behind Figure 13."""
    from ..campaign.spec import CampaignSpec, Variant

    variants = [
        Variant(label, "PAR-BS", tuple(kwargs.items()))
        for label, kwargs in RANKING_VARIANTS.items()
    ]
    variants.append(Variant("STFM", "STFM"))
    return CampaignSpec(
        name="ranking-scheme",
        description="Figure 13: within-batch ranking ablations (plus STFM)",
        variants=tuple(variants),
        num_cores=(4,),
        mix_count=count,
        mix_seed=seed,
        mixes=tuple(tuple(m) for m in extra_mixes or ()),
        include_case_studies=include_case_studies,
        seeds=(sim_seed,),
        instructions=instructions,
    )


def _runner_params(
    runner: ExperimentRunner | None, instructions: int | None
) -> tuple[int | None, int, int | None, bool]:
    """(instructions, sim_seed, jobs, campaignable) derived from a runner.

    Runners with non-baseline configs cannot be expressed as campaign
    jobs (the grid is pinned to ``baseline_system``); those keep the
    direct in-process path.
    """
    if runner is None:
        return instructions, 0, None, True
    campaignable = runner.config == baseline_system(4)
    return (
        instructions if instructions is not None else runner.instructions,
        runner.seed,
        runner.jobs,
        campaignable,
    )


def _run_sweep(spec: "CampaignSpec", store, jobs: int | None) -> SweepResult:
    """Execute a 4-core sweep campaign and regroup grid-order results."""
    from ..campaign.orchestrator import run_and_collect

    results = run_and_collect(spec, store, jobs=jobs)
    labels = [v.label for v in spec.variants]
    variants: dict[str, list[WorkloadResult]] = {label: [] for label in labels}
    # Grid order is mix-major, variant minor.
    for job_index, result in enumerate(results):
        variants[labels[job_index % len(labels)]].append(result)
    return SweepResult(variants=variants, mixes=spec.mixes_for(4))


def marking_cap_sweep(
    caps: list[int | None] | None = None,
    count: int = 6,
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
    include_case_studies: bool = True,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 11: PAR-BS fairness/throughput as Marking-Cap varies."""
    instructions, sim_seed, jobs, campaignable = _runner_params(runner, instructions)
    if campaignable:
        spec = marking_cap_spec(
            caps, count, include_case_studies, seed, instructions, sim_seed
        )
        return _run_sweep(spec, store, jobs)
    caps = MARKING_CAPS if caps is None else caps
    mixes = _mix_set(count, include_case_studies, seed)
    variants: dict[str, list[WorkloadResult]] = {}
    for cap in caps:
        label = f"c={cap}" if cap is not None else "no-c"
        variants[label] = [
            runner.run_workload(mix, "PAR-BS", marking_cap=cap) for mix in mixes
        ]
    return SweepResult(variants=variants, mixes=mixes)


def batching_choice_sweep(
    durations: list[int] | None = None,
    count: int = 6,
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
    include_case_studies: bool = True,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 12: static vs eslot vs full batching."""
    instructions, sim_seed, jobs, campaignable = _runner_params(runner, instructions)
    if campaignable:
        spec = batching_choice_spec(
            durations, count, include_case_studies, seed, instructions, sim_seed
        )
        return _run_sweep(spec, store, jobs)
    durations = STATIC_DURATIONS if durations is None else durations
    mixes = _mix_set(count, include_case_studies, seed)
    variants: dict[str, list[WorkloadResult]] = {}
    for duration in durations:
        variants[f"st-{duration}"] = [
            runner.run_workload(
                mix, "PAR-BS", batching="static", batch_duration=duration
            )
            for mix in mixes
        ]
    variants["eslot"] = [
        runner.run_workload(mix, "PAR-BS", batching="eslot") for mix in mixes
    ]
    variants["full"] = [runner.run_workload(mix, "PAR-BS") for mix in mixes]
    return SweepResult(variants=variants, mixes=mixes)


def ranking_scheme_sweep(
    count: int = 6,
    runner: ExperimentRunner | None = None,
    instructions: int | None = None,
    include_case_studies: bool = False,
    extra_mixes: list[list[str]] | None = None,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 13: within-batch ranking ablations (plus STFM reference)."""
    instructions, sim_seed, jobs, campaignable = _runner_params(runner, instructions)
    # With both case studies and extra mixes the legacy order (extras
    # first) differs from the campaign mix order (case studies first);
    # keep the direct path so mix_index-addressed lookups stay stable.
    if campaignable and not (include_case_studies and extra_mixes):
        spec = ranking_scheme_spec(
            count, include_case_studies, extra_mixes, seed, instructions, sim_seed
        )
        return _run_sweep(spec, store, jobs)
    runner = runner or ExperimentRunner(
        baseline_system(4), instructions=instructions
    )
    mixes = _mix_set(count, include_case_studies, seed)
    if extra_mixes:
        mixes = [list(m) for m in extra_mixes] + mixes
    variants: dict[str, list[WorkloadResult]] = {}
    for label, kwargs in RANKING_VARIANTS.items():
        variants[label] = [
            runner.run_workload(mix, "PAR-BS", **kwargs) for mix in mixes
        ]
    variants["STFM"] = [runner.run_workload(mix, "STFM") for mix in mixes]
    return SweepResult(variants=variants, mixes=mixes)
