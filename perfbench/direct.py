"""The ``direct-python`` workload: the library call a script author makes.

``ExperimentRunner.compare_schedulers`` runs the paper's five schedulers
over each of four traced mixes on the python reference backend, fanning
each call out over a process pool (``run_many`` -> ``pool.run_jobs``).
This is the only workload off the campaign path.

    python3 perfbench/direct.py --seed N --instructions I --jobs J \
        --backend python --out ROWS.json

Add ``--setup-only`` instead of ``--out`` to stop after import, runner
construction and mix resolution: the workload's set-up, timed from
outside.  The rows file holds the same check fields that ``check.py``
prints for a campaign.
"""

from __future__ import annotations

import argparse
import json
import sys

from check import digest

MIXES = ("tmix1", "tmix3", "tmix6", "tmix7")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="direct.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--instructions", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--backend", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.config import baseline_system
    from repro.sim.runner import ExperimentRunner
    from repro.workloads.mixes import get_mix

    runner = ExperimentRunner(
        baseline_system(4),
        instructions=args.instructions,
        seed=args.seed,
        jobs=args.jobs,
        backend=args.backend,
    )
    mixes = {name: list(get_mix(name)) for name in MIXES}
    if args.setup_only:
        return 0
    rows = []
    counts: dict[str, int] = {}
    for name, workload in mixes.items():
        for scheduler, result in runner.compare_schedulers(workload).items():
            rows.append(
                {
                    "mix": name,
                    "workload": "+".join(workload),
                    "scheduler": scheduler,
                    "unfairness": result.unfairness,
                    "wspeedup": result.weighted_speedup,
                    "hspeedup": result.hmean_speedup,
                    "ast": result.avg_stall_per_request,
                    "wc_latency": result.worst_case_latency,
                    "sim_cycles": result.sim_cycles,
                    "row_hit_rate": result.row_hit_rate,
                }
            )
            for field, value in (
                ("sim.cycles", result.sim_cycles),
                ("sim.events_logical", result.events_logical),
                ("sim.events_processed", result.events_processed),
                ("sim.events_elided", result.events_elided),
                ("sim.min_rebuilds", result.min_rebuilds),
                ("sim.row_hits", result.total_row_hits),
                ("sim.row_conflicts", result.total_row_conflicts),
            ):
                counts[field] = counts.get(field, 0) + value
    summary = {
        "digest": digest(rows),
        "jobs": len(rows),
        "done": len(rows),
        "failed": 0,
        "counts": dict(sorted(counts.items())),
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
