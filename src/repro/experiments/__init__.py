"""Experiment drivers reproducing every table and figure in the paper's
evaluation (Section 8).  See DESIGN.md §5 for the experiment index."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "..config": ("default_workload_count",),
        ".abstract_fig3": ("FIG3_BATCH", "Fig3Result", "run_fig3"),
        ".ablations": (
            "MARKING_CAPS",
            "RANKING_VARIANTS",
            "STATIC_DURATIONS",
            "SweepResult",
            "batching_choice_sweep",
            "marking_cap_sweep",
            "ranking_scheme_sweep",
        ),
        ".aggregate": ("AggregateResult", "run_aggregate"),
        ".case_studies": ("CASE_STUDIES", "CaseStudyResult", "run_case_study"),
        ".characterization": ("CharacterizationResult", "run_characterization"),
        ".paper_values": ("SCHEDULERS", "TABLE4"),
        ".priorities": ("PriorityScenarioResult", "run_opportunistic", "run_weighted_lbm"),
        ".summary": ("Table4Result", "run_table4"),
    },
)

__all__ = [
    "FIG3_BATCH",
    "Fig3Result",
    "run_fig3",
    "MARKING_CAPS",
    "RANKING_VARIANTS",
    "STATIC_DURATIONS",
    "SweepResult",
    "batching_choice_sweep",
    "marking_cap_sweep",
    "ranking_scheme_sweep",
    "AggregateResult",
    "default_workload_count",
    "run_aggregate",
    "CASE_STUDIES",
    "CaseStudyResult",
    "run_case_study",
    "CharacterizationResult",
    "run_characterization",
    "SCHEDULERS",
    "TABLE4",
    "PriorityScenarioResult",
    "run_opportunistic",
    "run_weighted_lbm",
    "Table4Result",
    "run_table4",
]
