"""Extension — adaptive Marking-Cap (the paper's future-work suggestion).

Section 8.3.1 notes "it is possible to improve our mechanism by making the
Marking-Cap adaptive."  This bench compares the self-tuning cap
(:class:`repro.core.batcher.AdaptiveCapBatcher`) against fixed caps 1 and
5 and the uncapped scheduler over a small mix set.  Expected shape: the
adaptive cap tracks the fixed sweet spot (no worse than a few percent on
fairness and throughput) without per-workload tuning.
"""

import os

from conftest import bench_instructions, run_once

from repro.campaign.spec import CampaignSpec, Variant
from repro.experiments.ablations import run_sweep


def test_ext_adaptive_marking_cap(benchmark):
    count = max(1, int(os.environ.get("REPRO_WORKLOADS", "4")) // 2)
    spec = CampaignSpec(
        name="adaptive-cap",
        description="Extension: adaptive vs fixed Marking-Cap",
        variants=(
            Variant("c=1", "PAR-BS", (("marking_cap", 1),)),
            Variant("c=5", "PAR-BS", (("marking_cap", 5),)),
            Variant("no-c", "PAR-BS", (("marking_cap", None),)),
            Variant("adaptive", "PAR-BS", (("batching", "adaptive"),)),
        ),
        mix_count=count,
        mix_seed=42,
        include_case_studies=True,
        instructions=bench_instructions(),
    )

    result = run_once(benchmark, lambda: run_sweep(spec))
    summary = result.summary()
    print()
    print(result.report("Extension: adaptive Marking-Cap"))

    # The adaptive cap must stay competitive with the best fixed setting.
    best_ws = max(v["wspeedup"] for v in summary.values())
    best_unf = min(v["unfairness"] for v in summary.values())
    assert summary["adaptive"]["wspeedup"] >= 0.93 * best_ws
    assert summary["adaptive"]["unfairness"] <= 1.25 * best_unf
