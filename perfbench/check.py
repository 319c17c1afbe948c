"""Read a finished campaign back out of its store, for the correctness check.

Prints one JSON object: the digest of the ``campaign export`` rows, the
job counts, and the campaign's summed ``sim.*`` counters.  Run after a
workload's timed steps, outside the timed window::

    python3 perfbench/check.py SPEC DB
"""

from __future__ import annotations

import hashlib
import json
import sys


def digest(rows: list[dict]) -> str:
    """SHA-256 of result rows, without the program's own job keys.

    Keys are content hashes the program is free to re-derive; what must
    not change is the simulated outcome of each (mix, scheduler) cell.
    Floats are written with ``repr`` precision, so any change shows.
    """
    rows = [{k: v for k, v in row.items() if k != "key"} for row in rows]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: check.py SPEC DB", file=sys.stderr)
        return 2
    from repro.campaign import (
        ResultStore,
        export_rows,
        load_spec,
        merged_metrics,
        watch_counts,
    )

    spec = load_spec(argv[0])
    with ResultStore(argv[1]) as store:
        rows = export_rows(spec, store)
        counts = watch_counts(spec, store)
        counters = merged_metrics(spec, store).snapshot()["counters"]
    print(
        json.dumps(
            {
                "digest": digest(rows),
                "jobs": counts["total"],
                "done": counts["done"],
                "failed": counts["failed"],
                "counts": {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("sim.")
                },
            },
            sort_keys=True,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
