"""Figure 10 — 16-core aggregate.

Runs 16-core mixes (two of the figure's named mixes plus random ones) and
reports geometric-mean unfairness and throughput.  Expected shape (paper):
the DRAM system becomes a bigger bottleneck at 16 cores; STFM and PAR-BS
remain far fairer than FR-FCFS/FCFS/NFQ, with PAR-BS best on both metrics.
"""

from conftest import bench_instructions, bench_workloads, run_once

from repro.experiments.aggregate import run_aggregate


def test_fig10_16core_average(benchmark):
    count = bench_workloads(16)
    result = run_once(
        benchmark,
        lambda: run_aggregate(16, count=count, instructions=bench_instructions()),
    )
    print()
    print(result.report())

    summary = result.summary()
    # At the default mix count the 16-core sample is statistically thin
    # (the paper used 12 mixes); assert the robust shapes only.
    assert summary["PAR-BS"]["unfairness"] < max(
        summary["FR-FCFS"]["unfairness"], summary["FCFS"]["unfairness"]
    )
    best_prev = max(
        summary[s]["wspeedup"] for s in ("FR-FCFS", "FCFS", "NFQ", "STFM")
    )
    assert summary["PAR-BS"]["wspeedup"] > 0.9 * best_prev
    # Batching keeps the worst-case latency bounded at 16 cores.
    assert summary["PAR-BS"]["wc_latency"] < 1.5 * summary["STFM"]["wc_latency"]
