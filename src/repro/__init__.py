"""repro: a reproduction of *Parallelism-Aware Batch Scheduling* (PAR-BS).

Mutlu & Moscibroda, ISCA 2008 — a shared-DRAM scheduler that batches
requests for fairness/starvation-freedom and ranks threads within a batch
(shortest-job-first over per-bank loads) to preserve each thread's
bank-level parallelism.

Quick start::

    from repro import ExperimentRunner, CASE_STUDY_1

    runner = ExperimentRunner()
    results = runner.compare_schedulers(CASE_STUDY_1)
    for name, result in results.items():
        print(name, f"unfairness={result.unfairness:.2f}",
              f"wspeedup={result.weighted_speedup:.2f}")

Package layout:

* :mod:`repro.core` — the paper's contribution (PAR-BS, batching, ranking);
* :mod:`repro.schedulers` — FCFS, FR-FCFS, NFQ and STFM baselines;
* :mod:`repro.dram` — banks, buses, channels, the memory controller;
* :mod:`repro.cpu` — trace-driven core model (traces are L2-miss streams);
* :mod:`repro.workloads` — Table 3 profiles, trace generator, mixes;
* :mod:`repro.sim` / :mod:`repro.metrics` — runners and paper metrics;
* :mod:`repro.experiments` — drivers reproducing every table and figure.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".config": (
            "CoreConfig",
            "DramConfig",
            "SCHEDULER_NAMES",
            "SystemConfig",
            "baseline_system",
        ),
        ".core.batcher": ("OPPORTUNISTIC",),
        ".core.parbs": ("ParBsScheduler",),
        ".metrics.fairness": ("unfairness",),
        ".metrics.summary": ("WorkloadResult", "geomean"),
        ".schedulers.fcfs": ("FcfsScheduler",),
        ".schedulers.frfcfs": ("FrFcfsScheduler",),
        ".schedulers.nfq": ("NfqScheduler",),
        ".schedulers.stfm": ("StfmScheduler",),
        ".sim.factory": ("make_scheduler",),
        ".sim.runner": ("ExperimentRunner",),
        ".sim.system": ("System",),
        ".workloads.generator": ("generate_trace",),
        ".workloads.mixes": (
            "CASE_STUDY_1",
            "CASE_STUDY_2",
            "CASE_STUDY_3",
            "EIGHT_CORE_MIX",
            "FIG8_SAMPLE_MIXES",
            "SIXTEEN_CORE_MIXES",
            "random_mixes",
        ),
        ".workloads.profiles": ("PROFILES", "profile"),
    },
)

__version__ = "1.0.0"

__all__ = [
    "CoreConfig",
    "DramConfig",
    "SystemConfig",
    "baseline_system",
    "OPPORTUNISTIC",
    "ParBsScheduler",
    "WorkloadResult",
    "geomean",
    "unfairness",
    "FcfsScheduler",
    "FrFcfsScheduler",
    "NfqScheduler",
    "StfmScheduler",
    "SCHEDULER_NAMES",
    "ExperimentRunner",
    "System",
    "make_scheduler",
    "CASE_STUDY_1",
    "CASE_STUDY_2",
    "CASE_STUDY_3",
    "EIGHT_CORE_MIX",
    "FIG8_SAMPLE_MIXES",
    "SIXTEEN_CORE_MIXES",
    "PROFILES",
    "generate_trace",
    "profile",
    "random_mixes",
    "__version__",
]
