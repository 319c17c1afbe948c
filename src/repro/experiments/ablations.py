"""Ablation experiments: Figures 11, 12 and 13.

* Figure 11 — effect of ``Marking-Cap`` (1..10, 20, and no cap) on average
  unfairness/throughput and on the Case Study I/II slowdowns.
* Figure 12 — batching discipline: time-based static batching with various
  ``BatchDuration`` values, empty-slot batching, and PAR-BS's full batching.
* Figure 13 — within-batch scheduling: Max-Total vs Total-Max vs random vs
  round-robin ranking, and rank-free FR-FCFS / FCFS within batches
  (batching without parallelism-awareness), plus STFM for reference.

Every sweep is a campaign (:func:`run_sweep`): there is no ``runner``
argument and no direct path, so a sweep runs on ``baseline_system(4)``
with sim seed 0, resumes from the result store and reuses stored cells.
The mix order is the campaign's (:meth:`CampaignSpec.mixes_for`): the two
case studies when included, then explicit extra mixes, then the seeded
random mixes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics.summary import WorkloadResult, geomean
from .reporting import format_table

__all__ = [
    "SweepResult",
    "marking_cap_sweep",
    "batching_choice_sweep",
    "ranking_scheme_sweep",
    "marking_cap_spec",
    "batching_choice_spec",
    "ranking_scheme_spec",
    "run_sweep",
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


def _sweep_spec(
    name: str,
    description: str,
    variants,
    count: int,
    include_case_studies: bool,
    seed: int,
    instructions: int | None,
    sim_seed: int = 0,
    mixes: list[list[str]] | None = None,
) -> "CampaignSpec":
    from ..campaign.spec import CampaignSpec

    return CampaignSpec(
        name=name,
        description=description,
        variants=tuple(variants),
        num_cores=(4,),
        mix_count=count,
        mix_seed=seed,
        mixes=mixes or (),
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
    """The campaign spec behind Figure 13.  ``extra_mixes`` come after
    the case studies and before the random mixes."""
    from ..campaign.spec import Variant

    variants = [
        Variant(label, "PAR-BS", tuple(kwargs.items()))
        for label, kwargs in RANKING_VARIANTS.items()
    ]
    variants.append(Variant("STFM", "STFM"))
    return _sweep_spec(
        "ranking-scheme",
        "Figure 13: within-batch ranking ablations (plus STFM)",
        variants, count, include_case_studies, seed, instructions, sim_seed,
        extra_mixes,
    )


def run_sweep(
    spec: "CampaignSpec",
    store: "ResultStore | None" = None,
    jobs: int | None = None,
) -> SweepResult:
    """Execute a one-core-count, one-seed campaign and regroup its
    grid-order results into per-variant lists (one entry per mix)."""
    if len(spec.num_cores) != 1 or len(spec.seeds) != 1:
        raise ValueError(
            f"run_sweep needs one core count and one seed, got "
            f"num_cores={list(spec.num_cores)} seeds={list(spec.seeds)}"
        )
    from ..campaign.orchestrator import run_and_collect

    results = run_and_collect(spec, store, jobs=jobs)
    labels = [v.label for v in spec.variants]
    variants: dict[str, list[WorkloadResult]] = {label: [] for label in labels}
    # Grid order is mix-major, variant minor.
    for job_index, result in enumerate(results):
        variants[labels[job_index % len(labels)]].append(result)
    return SweepResult(variants=variants, mixes=spec.mixes_for(spec.num_cores[0]))


def marking_cap_sweep(
    caps: list[int | None] | None = None,
    count: int = 6,
    instructions: int | None = None,
    include_case_studies: bool = True,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 11: PAR-BS fairness/throughput as Marking-Cap varies."""
    spec = marking_cap_spec(caps, count, include_case_studies, seed, instructions)
    return run_sweep(spec, store)


def batching_choice_sweep(
    durations: list[int] | None = None,
    count: int = 6,
    instructions: int | None = None,
    include_case_studies: bool = True,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 12: static vs eslot vs full batching."""
    spec = batching_choice_spec(
        durations, count, include_case_studies, seed, instructions
    )
    return run_sweep(spec, store)


def ranking_scheme_sweep(
    count: int = 6,
    instructions: int | None = None,
    include_case_studies: bool = False,
    extra_mixes: list[list[str]] | None = None,
    seed: int = 42,
    store: "ResultStore | None" = None,
) -> SweepResult:
    """Figure 13: within-batch ranking ablations (plus STFM reference)."""
    spec = ranking_scheme_spec(
        count, include_case_studies, extra_mixes, seed, instructions
    )
    return run_sweep(spec, store)
