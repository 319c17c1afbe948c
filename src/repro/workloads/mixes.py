"""Multiprogrammed workload mixes from the paper's evaluation (Section 7).

Provides the three 4-core case studies, the 10 sample mixes of Figure 8,
the 8-core mix of Figure 9, the 16-core mixes of Figure 10, and the
pseudo-random category-balanced samplers used for the aggregate results
(100 4-core, 16 8-core and 12 16-core combinations in the paper; the
counts are configurable here).

Mixes are addressable by name through :data:`MIX_REGISTRY` /
:func:`get_mix` (the CLI and campaign specs resolve strings through it),
and the registry includes the ``tmix1``–``tmix7`` suite over the
committed sample *trace* files: ``trace:<name>`` workload entries are
real memory-access streams ingested by :mod:`repro.traces` rather than
synthetic generators, laddered from all-intensive (``tmix1``) down to
all-light (``tmix5``), plus a clone mix and a traced+synthetic hybrid.
"""

from __future__ import annotations

import random

from .profiles import PROFILES, BenchmarkProfile, by_category, profile

__all__ = [
    "CASE_STUDY_1",
    "CASE_STUDY_2",
    "CASE_STUDY_3",
    "EIGHT_CORE_MIX",
    "FIG8_SAMPLE_MIXES",
    "MIX_REGISTRY",
    "SIXTEEN_CORE_MIXES",
    "TRACE_MIXES",
    "UnknownMixError",
    "Workload",
    "get_mix",
    "random_mixes",
]

# A workload is an ordered list of benchmark names, one per core.
Workload = list[str]

# Case Study I (Fig. 5): four memory-intensive benchmarks, one with very
# high bank-level parallelism (mcf).
CASE_STUDY_1: Workload = ["libquantum", "mcf", "GemsFDTD", "xalancbmk"]

# Case Study II (Fig. 6): three non-intensive benchmarks plus matlab; only
# omnetpp has high bank-level parallelism.
CASE_STUDY_2: Workload = ["matlab", "h264ref", "omnetpp", "hmmer"]

# Case Study III (Fig. 7): four identical copies of lbm (high BLP).
CASE_STUDY_3: Workload = ["lbm"] * 4

# Figure 9: 8-core mix of 3 intensive + 5 non-intensive applications.
EIGHT_CORE_MIX: Workload = [
    "mcf",
    "xml-parser",
    "cactusADM",
    "astar",
    "hmmer",
    "h264ref",
    "gromacs",
    "bzip2",
]

# The ten sample 4-core mixes shown in Figure 8 (left), in order.
FIG8_SAMPLE_MIXES: list[Workload] = [
    ["libquantum", "h264ref", "omnetpp", "hmmer"],
    ["lbm", "matlab", "GemsFDTD", "omnetpp"],
    ["GemsFDTD", "omnetpp", "astar", "hmmer"],
    ["libquantum", "xml-parser", "astar", "hmmer"],
    ["matlab", "omnetpp", "astar", "bzip2"],
    ["leslie3d", "leslie3d", "leslie3d", "leslie3d"],
    ["sphinx3", "libquantum", "h264ref", "omnetpp"],
    ["libquantum", "mcf", "xalancbmk", "gromacs"],
    ["lbm", "matlab", "astar", "hmmer"],
    ["lbm", "astar", "h264ref", "gromacs"],
]


def _by_numbers(numbers: list[int]) -> Workload:
    return [profile(n).name for n in numbers]


def _intensity_sorted() -> list[BenchmarkProfile]:
    return sorted(PROFILES.values(), key=lambda p: (-p.mcpi, p.number))


def _sixteen_core_mixes() -> dict[str, Workload]:
    ranked = _intensity_sorted()
    return {
        # Benchmark-number mixes labeled on Figure 10's x-axis.
        "1,5,6,9,13-22,27,28": _by_numbers([1, 5, 6, 9] + list(range(13, 23)) + [27, 28]),
        "9,13-22,24-28": _by_numbers([9] + list(range(13, 23)) + list(range(24, 29))),
        "intensive16": [p.name for p in ranked[:16]],
        "middle16": [p.name for p in ranked[6:22]],
        "non-intensive16": [p.name for p in ranked[-16:]],
    }


SIXTEEN_CORE_MIXES: dict[str, Workload] = _sixteen_core_mixes()


def random_mixes(
    num_cores: int = 4,
    count: int = 100,
    seed: int = 42,
) -> list[Workload]:
    """Pseudo-random category-balanced workload mixes (paper Section 7).

    Each mix is formed by pseudo-randomly choosing ``num_cores`` of the
    eight benchmark categories (without replacement while possible, so
    different category combinations are evaluated) and then a random
    benchmark from each chosen category.
    """
    if num_cores < 1 or count < 1:
        raise ValueError("num_cores and count must be positive")
    rng = random.Random(seed)
    categories = list(range(8))
    mixes: list[Workload] = []
    seen: set[tuple[str, ...]] = set()
    attempts = 0
    while len(mixes) < count and attempts < count * 50:
        attempts += 1
        pool: list[int] = []
        while len(pool) < num_cores:
            remaining = [c for c in categories if c not in pool] or categories
            pool.append(rng.choice(remaining))
        workload = [rng.choice(by_category(c)).name for c in pool]
        key = tuple(sorted(workload))
        if key in seen:
            continue
        seen.add(key)
        mixes.append(workload)
    return mixes


# -- named-mix registry -------------------------------------------------------

# 4-core mixes over the committed sample trace files, laddered by memory
# intensity: tmix1 = four memory hogs, tmix5 = four light threads, with
# the rungs between mixing the two ends (the shape of the paper's Fig. 8
# sample mixes, but over *real* ingested access streams).  tmix6 is four
# clones of the nastiest trace (the Case-Study-III shape) and tmix7
# composes traced and synthetic threads in one workload — the property
# the trace front-end exists to provide.
TRACE_MIXES: dict[str, Workload] = {
    "tmix1": [
        "trace:stream-hi",
        "trace:chase-hi",
        "trace:rowlocal-hi",
        "trace:conflict-hi",
    ],
    "tmix2": [
        "trace:stream-hi",
        "trace:chase-hi",
        "trace:rowlocal-hi",
        "trace:conflict-lo",
    ],
    "tmix3": [
        "trace:stream-hi",
        "trace:chase-hi",
        "trace:rowlocal-lo",
        "trace:conflict-lo",
    ],
    "tmix4": [
        "trace:stream-hi",
        "trace:chase-lo",
        "trace:rowlocal-lo",
        "trace:conflict-lo",
    ],
    "tmix5": [
        "trace:stream-lo",
        "trace:chase-lo",
        "trace:rowlocal-lo",
        "trace:conflict-lo",
    ],
    "tmix6": ["trace:conflict-hi"] * 4,
    "tmix7": ["trace:stream-hi", "trace:chase-lo", "mcf", "libquantum"],
}


def _build_registry() -> dict[str, Workload]:
    registry: dict[str, Workload] = {
        "case1": CASE_STUDY_1,
        "case2": CASE_STUDY_2,
        "case3": CASE_STUDY_3,
        "eight-core": EIGHT_CORE_MIX,
    }
    for index, mix in enumerate(FIG8_SAMPLE_MIXES, start=1):
        registry[f"fig8-{index}"] = mix
    registry.update(SIXTEEN_CORE_MIXES)
    registry.update(TRACE_MIXES)
    return registry


MIX_REGISTRY: dict[str, Workload] = _build_registry()


class UnknownMixError(KeyError):
    """An unregistered mix name, with did-you-mean suggestions.

    ``KeyError.args[0]`` would quote-mangle a multi-line message, so the
    human-readable text lives on :attr:`message` and ``str()`` returns it
    verbatim.
    """

    def __init__(self, name: str) -> None:
        import difflib

        suggestions = difflib.get_close_matches(
            name, MIX_REGISTRY, n=3, cutoff=0.5
        )
        message = f"unknown mix {name!r}"
        if suggestions:
            message += f" — did you mean {', '.join(suggestions)}?"
        message += (
            f" (registered: {', '.join(sorted(MIX_REGISTRY))})"
        )
        super().__init__(name)
        self.message = message

    def __str__(self) -> str:
        return self.message


def get_mix(name: str) -> Workload:
    """Look up a registered mix by name.

    Raises :class:`UnknownMixError` — a :class:`KeyError` whose message
    carries close-match suggestions — instead of a bare ``KeyError``
    traceback, so CLI and spec errors read like diagnostics.
    """
    mix = MIX_REGISTRY.get(name)
    if mix is None:
        raise UnknownMixError(name)
    return list(mix)
