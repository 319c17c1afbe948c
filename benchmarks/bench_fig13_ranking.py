"""Figure 13 — within-batch scheduling ablations.

Compares Max-Total (PAR-BS) against Total-Max, random and round-robin
rankings and against rank-free FR-FCFS/FCFS within batches (batching
without parallelism-awareness), plus STFM for reference — on random mixes
and on the two homogeneous workloads of the figure (4x lbm, 4x matlab).
Expected shape (paper): the shortest-job-first rankings (Max-Total,
Total-Max) beat random/round-robin and no-rank on throughput; the
parallelism benefit is large for the high-BLP workload (4x lbm) and
negligible for the low-BLP one (4x matlab).
"""

import os

from conftest import bench_instructions, run_once

from repro.experiments.ablations import ranking_scheme_sweep


def test_fig13_within_batch_ranking(benchmark):
    count = max(1, int(os.environ.get("REPRO_WORKLOADS", "4")) // 2)
    extra = [["lbm"] * 4, ["matlab"] * 4]
    result = run_once(
        benchmark,
        lambda: ranking_scheme_sweep(
            count=count, instructions=bench_instructions(), extra_mixes=extra
        ),
    )
    print()
    print(result.report("Figure 13: within-batch ranking (all mixes)"))
    print("\n4x lbm hmean speedups:")
    for variant in result.variants:
        r = result.variants[variant][0]
        print(f"  {variant:<18} {r.hmean_speedup:.3f}")

    summary = result.summary()
    sjf = summary["max-total(PAR-BS)"]["hspeedup"]
    # Shortest-job-first ranking sustains throughput vs the non-SJF
    # alternatives (paper: 5.7%-9.8% better than random/round-robin).
    assert sjf >= 0.97 * summary["total-max"]["hspeedup"]
    assert sjf >= summary["random"]["hspeedup"] * 0.98
    # Parallelism-awareness matters on the high-BLP homogeneous workload.
    lbm_par = result.variants["max-total(PAR-BS)"][0].weighted_speedup
    lbm_norank = result.variants["no-rank(FCFS)"][0].weighted_speedup
    assert lbm_par > 0.98 * lbm_norank
