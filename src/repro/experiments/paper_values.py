"""Published numbers from the paper, for paper-vs-measured reporting.

All values are transcribed from the paper's figures and tables (ISCA 2008).
Figure values read off bar charts are approximate; table values are exact.
"""

from __future__ import annotations

__all__ = [
    "FIG5_UNFAIRNESS",
    "FIG6_UNFAIRNESS",
    "FIG7_UNFAIRNESS",
    "FIG9_UNFAIRNESS",
    "TABLE4",
    "SCHEDULERS",
]

SCHEDULERS = ["FR-FCFS", "FCFS", "NFQ", "STFM", "PAR-BS"]

# Case-study unfairness (Figures 5, 6, 7 and 9, printed above the bars).
FIG5_UNFAIRNESS = {"FR-FCFS": 5.26, "FCFS": 1.72, "NFQ": 1.71, "STFM": 1.42, "PAR-BS": 1.07}
FIG6_UNFAIRNESS = {"FR-FCFS": 3.90, "FCFS": 1.47, "NFQ": 1.87, "STFM": 1.30, "PAR-BS": 1.19}
FIG7_UNFAIRNESS = {"FR-FCFS": 1.00, "FCFS": 1.00, "NFQ": 1.00, "STFM": 1.00, "PAR-BS": 1.00}
FIG9_UNFAIRNESS = {"FR-FCFS": 4.78, "FCFS": 4.54, "NFQ": 3.21, "STFM": 1.66, "PAR-BS": 1.39}

# Table 4: geometric means over all workloads per system size.
# Metrics: unfairness, weighted speedup, hmean speedup, AST/req, worst-case
# request latency.  Every hmean speedup is in the unit of
# :func:`repro.metrics.speedup.hmean_speedup`, a harmonic mean of
# per-thread speedups that is at most about 1.  The 16-core values read
# 2.69-3.50 as printed, ten times that unit (the x10 scale of the paper's
# Figure 10), so they are stored divided by 10.
TABLE4: dict[int, dict[str, dict[str, float]]] = {
    4: {
        "FR-FCFS": {"unfairness": 3.12, "wspeedup": 1.70, "hspeedup": 0.43, "ast": 374, "wc_latency": 18481},
        "FCFS": {"unfairness": 1.64, "wspeedup": 1.53, "hspeedup": 0.45, "ast": 364, "wc_latency": 13728},
        "NFQ": {"unfairness": 1.56, "wspeedup": 1.73, "hspeedup": 0.47, "ast": 346, "wc_latency": 19801},
        "STFM": {"unfairness": 1.36, "wspeedup": 1.79, "hspeedup": 0.52, "ast": 301, "wc_latency": 20305},
        "PAR-BS": {"unfairness": 1.22, "wspeedup": 1.87, "hspeedup": 0.57, "ast": 281, "wc_latency": 13866},
    },
    8: {
        "FR-FCFS": {"unfairness": 4.10, "wspeedup": 1.99, "hspeedup": 0.29, "ast": 605, "wc_latency": 34655},
        "FCFS": {"unfairness": 2.23, "wspeedup": 1.77, "hspeedup": 0.28, "ast": 633, "wc_latency": 20114},
        "NFQ": {"unfairness": 2.45, "wspeedup": 2.04, "hspeedup": 0.31, "ast": 525, "wc_latency": 59117},
        "STFM": {"unfairness": 1.41, "wspeedup": 2.11, "hspeedup": 0.34, "ast": 484, "wc_latency": 57764},
        "PAR-BS": {"unfairness": 1.31, "wspeedup": 2.20, "hspeedup": 0.37, "ast": 457, "wc_latency": 25614},
    },
    16: {
        "FR-FCFS": {"unfairness": 4.99, "wspeedup": 3.62, "hspeedup": 0.293, "ast": 968, "wc_latency": 35117},
        "FCFS": {"unfairness": 3.06, "wspeedup": 3.23, "hspeedup": 0.269, "ast": 964, "wc_latency": 36549},
        "NFQ": {"unfairness": 3.74, "wspeedup": 3.75, "hspeedup": 0.293, "ast": 774, "wc_latency": 88732},
        "STFM": {"unfairness": 1.81, "wspeedup": 3.85, "hspeedup": 0.333, "ast": 712, "wc_latency": 86577},
        "PAR-BS": {"unfairness": 1.63, "wspeedup": 3.97, "hspeedup": 0.350, "ast": 676, "wc_latency": 41115},
    },
}
