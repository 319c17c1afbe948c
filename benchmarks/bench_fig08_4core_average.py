"""Figure 8 — 4-core aggregate: unfairness and throughput over many mixes.

Runs the ten sample mixes from the figure plus ``REPRO_WORKLOADS``
pseudo-random category-balanced mixes (paper: 100) and reports
geometric-mean unfairness and weighted/hmean speedup per scheduler.
Expected shape (paper): FR-FCFS most unfair; the QoS schedulers (NFQ,
STFM, PAR-BS) cluster at much lower unfairness with PAR-BS/STFM ahead on
throughput.
"""

from conftest import bench_instructions, bench_workloads, run_once

from repro.experiments.aggregate import run_aggregate


def test_fig8_4core_average(benchmark):
    count = bench_workloads(4)
    result = run_once(
        benchmark,
        lambda: run_aggregate(
            4,
            count=count,
            instructions=bench_instructions(),
            include_sample_mixes=True,
        ),
    )
    print()
    print(result.report())

    summary = result.summary()
    assert summary["PAR-BS"]["unfairness"] < summary["FR-FCFS"]["unfairness"]
    assert summary["STFM"]["unfairness"] < summary["FR-FCFS"]["unfairness"]
    # Throughput: PAR-BS comparable to the best previous scheduler.
    best_prev = max(
        summary[s]["wspeedup"] for s in ("FR-FCFS", "FCFS", "NFQ", "STFM")
    )
    assert summary["PAR-BS"]["wspeedup"] > 0.93 * best_prev
