"""Figure 12 — batching discipline: static vs empty-slot vs full batching.

Sweeps time-based static batching over the paper's durations plus eslot
and full batching on a mix set including Case Studies I and II.  Expected
shape (paper): very small static durations degenerate to FR-FCFS-like
unfairness (most requests marked -> no batch boundary), very large
durations also eliminate batching; full batching gives the best average
fairness and throughput.
"""

import os

from conftest import bench_instructions, run_once

from repro.experiments.ablations import batching_choice_sweep


def test_fig12_batching_choice(benchmark):
    durations = [400, 1600, 3200, 12800, 25600]
    count = max(1, int(os.environ.get("REPRO_WORKLOADS", "4")) // 2)
    result = run_once(
        benchmark,
        lambda: batching_choice_sweep(
            durations=durations, count=count, instructions=bench_instructions()
        ),
    )
    print()
    print(result.report("Figure 12: batching choice"))

    summary = result.summary()
    for vals in summary.values():
        assert vals["unfairness"] >= 1.0
        assert vals["wspeedup"] > 0
    # Empty-slot batching admits late arrivals into the current batch, so
    # it cannot lose throughput relative to full batching.
    assert summary["eslot"]["wspeedup"] >= 0.95 * summary["full"]["wspeedup"]
    # Full batching's starvation-freedom bounds its worst-case latency at
    # or below the static variants' (which give no strict guarantee).
    full_wc = max(r.worst_case_latency for r in result.variants["full"])
    static_wc = max(
        r.worst_case_latency
        for label, results in result.variants.items()
        if label.startswith("st-")
        for r in results
    )
    assert full_wc <= 1.3 * static_wc
    # NOTE (recorded in EXPERIMENTS.md): the paper's *average* fairness
    # advantage of full batching over well-tuned static durations does not
    # reproduce at this substrate scale — with shallow per-bank queues the
    # batch-boundary miss penalty outweighs the capture effects batching
    # prevents; the per-thread effects (streaming-thread punishment by
    # eslot/static) are visible in the case-study slowdowns.
