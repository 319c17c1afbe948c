"""Declarative campaign specifications and their deterministic expansion.

A *campaign* is the unit the paper's aggregate results are built from: a
grid of scheduler variants × workload mixes × core counts × seeds, every
cell an independent simulation.  :class:`CampaignSpec` describes that
grid declaratively (loadable from TOML/JSON or built in code) and
:meth:`CampaignSpec.expand` turns it into an ordered list of
:class:`CampaignJob` descriptions, each keyed by a content hash of
everything the simulation depends on — the same fingerprint discipline as
:mod:`repro.sim.diskcache`, so a job's identity survives process
boundaries, interruptions and spec-file reorderings of unrelated axes.

Expansion is deterministic: the same spec always produces the same jobs
in the same order (mix sampling is seeded, see
:func:`repro.workloads.mixes.random_mixes`), which is what lets the
result store resume an interrupted campaign exactly.

Spec files are TOML (or JSON with the same shape)::

    name = "smoke"
    schedulers = ["FR-FCFS", "PAR-BS"]   # shorthand for kwarg-free variants
    marking_caps = [1, 5, "none"]        # expands PAR-BS into one variant/cap
    num_cores = [4]
    mix_count = 2                        # seeded random mixes per core count
    mix_seed = 42
    seeds = [0]                          # simulation seed axis
    instructions = 50000
    mixes = [["mcf", "libquantum", "omnetpp", "hmmer"],  # explicit extras
             "tmix1"]                    # or registered mix names

    [[variants]]                         # fully explicit variants
    label = "eslot"
    scheduler = "PAR-BS"
    kwargs = { batching = "eslot" }

External trace files enter a campaign as ``trace:<name>`` workload
entries — sample-library names, or aliases declared in a
``[trace_files]`` table::

    decoder = "dramsim2"                 # address bit-field layout
    mixes = [["trace:myapp", "trace:stream-hi", "mcf", "libquantum"]]

    [trace_files]
    myapp = "traces/myapp.k6.gz"         # alias -> path (hash computed)
    [trace_files.pinned]
    path = "traces/pinned.mase.gz"       # explicit pin: load fails if the
    sha256 = "3f0c..."                   # file's content drifted

Job identity is *content-addressed*: the job key hashes each trace
entry as ``trace:<sha256-of-decompressed-content>:<decoder>``, never as
an alias or path — so renaming, moving or recompressing a trace file
leaves stored results resumable, while any content change re-simulates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..config import (
    MIN_INSTRUCTIONS,
    SystemConfig,
    baseline_system,
    default_instructions,
    default_workload_count,
    scheduler_name,
)
from ..sim.diskcache import SIM_FINGERPRINT, content_key
from ..workloads.mixes import (
    CASE_STUDY_1,
    CASE_STUDY_2,
    FIG8_SAMPLE_MIXES,
    SIXTEEN_CORE_MIXES,
    get_mix,
    random_mixes,
)
from ..workloads.profiles import PROFILES

_TRACE_PREFIX = "trace:"

__all__ = [
    "CampaignJob",
    "CampaignSpec",
    "Variant",
    "job_key",
    "load_spec",
    "spec_from_dict",
]


def _freeze_kwargs(kwargs: Mapping[str, Any] | Iterable[tuple[str, Any]]) -> tuple:
    items = kwargs.items() if isinstance(kwargs, Mapping) else kwargs
    return tuple(sorted((str(k), v) for k, v in items))


@dataclass(frozen=True)
class Variant:
    """One scheduler configuration under test, e.g. ``PAR-BS`` with a
    specific Marking-Cap.  ``kwargs`` is a sorted tuple of pairs so the
    variant is hashable and content-hash stable."""

    label: str
    scheduler: str
    kwargs: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("variant label must be non-empty")
        object.__setattr__(self, "kwargs", _freeze_kwargs(self.kwargs))
        # Fail at spec time, not mid-campaign.  Every scheduler builds
        # without keyword arguments, so a kwarg-free variant is checked by
        # name alone; otherwise instantiating the scheduler validates both
        # the name and the keyword arguments.
        try:
            if self.kwargs:
                from ..sim.factory import make_scheduler

                make_scheduler(self.scheduler, 2, **self.kwargs_dict())
            else:
                scheduler_name(self.scheduler)
        except (ValueError, TypeError) as exc:
            raise ValueError(
                f"variant {self.label!r} is not instantiable: {exc}"
            ) from None

    def kwargs_dict(self) -> dict[str, Any]:
        return dict(self.kwargs)


@dataclass(frozen=True)
class CampaignJob:
    """One cell of the expanded grid: a single independent simulation.

    ``key`` is the full (untruncated) content hash of every input the
    simulation depends on; it is the job's primary key in the result
    store and stays stable across processes and campaign re-expansions.
    """

    key: str
    num_cores: int
    workload: tuple[str, ...]
    mix_index: int  # position in the per-core-count mix list
    variant: str
    scheduler: str
    kwargs: tuple[tuple[str, Any], ...]
    seed: int
    instructions: int
    # External trace wiring carried to the worker: (alias, path) pairs
    # for the spec's ``[trace_files]`` table and the decoder layout.
    # ``key`` already pins the traces by content hash; these are the
    # *locations* the worker reads the bytes from.
    trace_files: tuple[tuple[str, str], ...] = ()
    decoder: str = "dramsim2"

    def kwargs_dict(self) -> dict[str, Any]:
        return dict(self.kwargs)


def job_key(
    config: SystemConfig | Mapping[str, Any],
    workload: Iterable[str],
    scheduler: str,
    kwargs: Mapping[str, Any] | Iterable[tuple[str, Any]],
    instructions: int,
    seed: int,
) -> str:
    """Content hash identifying one simulation (the store's primary key).

    Hashes exactly the fields :meth:`repro.sim.runner.ExperimentRunner._job_key`
    hashes — a simulation's identity is the same whether it is named by
    the runner, the pool or the campaign store.  ``config`` may come
    already flattened by ``dataclasses.asdict``: :func:`content_key`
    flattens it that way, so the key is the same.
    """
    return content_key(
        [
            SIM_FINGERPRINT,
            config,
            list(workload),
            scheduler,
            sorted(_freeze_kwargs(kwargs)),
            instructions,
            seed,
        ]
    )


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative experiment campaign.

    The grid is ``num_cores × seeds × mixes × variants``; per core count
    the mix list is (in order) the 4-core case studies, the paper's named
    sample mixes, explicit ``mixes`` whose length matches, then
    ``mix_count`` seeded category-balanced random mixes.
    """

    name: str
    variants: tuple[Variant, ...]
    num_cores: tuple[int, ...] = (4,)
    mix_count: int | None = None  # None = paper-scaled default; 0 = none
    mix_seed: int = 42
    mixes: tuple[tuple[str, ...], ...] = ()
    include_sample_mixes: bool = False
    include_case_studies: bool = False
    seeds: tuple[int, ...] = (0,)
    instructions: int | None = None  # None = default_instructions()
    description: str = ""
    # External trace files: (alias, path, sha256) triples.  An empty
    # sha256 is resolved from the file at spec-construction time; a
    # provided one is *verified* against the file, so a spec pinning a
    # hash fails at load when the bytes drifted.
    trace_files: tuple[tuple[str, str, str], ...] = ()
    decoder: str = "dramsim2"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        object.__setattr__(self, "variants", tuple(self.variants))
        object.__setattr__(self, "num_cores", tuple(self.num_cores))
        object.__setattr__(
            self, "mixes", tuple(tuple(m) for m in self.mixes)
        )
        object.__setattr__(self, "seeds", tuple(self.seeds))
        if not self.variants:
            raise ValueError("campaign needs at least one variant")
        labels = [v.label for v in self.variants]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate variant labels in {labels}")
        if not self.num_cores or any(c < 1 for c in self.num_cores):
            raise ValueError("num_cores must be a non-empty list of positives")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if self.mix_count is not None and self.mix_count < 0:
            raise ValueError("mix_count must be >= 0")
        if self.instructions is not None and self.instructions < 1:
            raise ValueError("instructions must be positive")
        object.__setattr__(
            self, "trace_files", self._resolve_trace_files(self.trace_files)
        )
        unknown = {
            b
            for mix in self.mixes
            for b in mix
            if not b.startswith(_TRACE_PREFIX) and b not in PROFILES
        }
        if unknown:
            raise ValueError(f"unknown benchmarks in mixes: {sorted(unknown)}")
        aliases = {alias for alias, _path, _sha in self.trace_files}
        samples = {
            b
            for mix in self.mixes
            for b in mix
            if b.startswith(_TRACE_PREFIX) and b[len(_TRACE_PREFIX):] not in aliases
        }
        if samples:
            from ..traces.library import SAMPLE_TRACES

            unknown_traces = {
                b for b in samples if b[len(_TRACE_PREFIX):] not in SAMPLE_TRACES
            }
            if unknown_traces:
                raise ValueError(
                    f"unknown traces in mixes: {sorted(unknown_traces)} "
                    f"(declare them in [trace_files] or use a sample trace: "
                    f"{', '.join(sorted(SAMPLE_TRACES))})"
                )
        usable = {len(m) for m in self.mixes}
        cores = set(self.num_cores)
        has_generated = self.mix_count != 0 or self.include_sample_mixes or self.include_case_studies
        if not has_generated and not usable & cores:
            raise ValueError(
                "campaign has no mixes: mix_count=0 and no explicit mix "
                f"matches num_cores={sorted(cores)}"
            )
        # Generated mixes are all synthetic; explicit ones only count
        # where their length puts them in the grid.
        synthetic = has_generated or any(
            not b.startswith(_TRACE_PREFIX)
            for mix in self.mixes
            if len(mix) in cores
            for b in mix
        )
        if (
            synthetic
            and self.instructions is not None
            and self.instructions < MIN_INSTRUCTIONS
        ):
            raise ValueError(
                f"instructions={self.instructions} is below the synthetic "
                f"trace generator's minimum of {MIN_INSTRUCTIONS} (only "
                "campaigns whose mixes are all trace: entries may go lower)"
            )

    # -- external traces -----------------------------------------------------
    @staticmethod
    def _resolve_trace_files(
        entries: Iterable[tuple[str, str, str]],
    ) -> tuple[tuple[str, str, str], ...]:
        """Fill in (and verify) content hashes for the trace-file table."""
        entries = tuple(entries)
        if not entries:
            return ()
        from ..traces.source import trace_content_sha256

        resolved = []
        for alias, path, sha256 in entries:
            if not Path(path).exists():
                raise ValueError(
                    f"trace_files[{alias!r}]: file not found: {path}"
                )
            actual = trace_content_sha256(path)
            if sha256 and actual != sha256:
                raise ValueError(
                    f"trace_files[{alias!r}]: {path} content hash "
                    f"{actual[:12]}... does not match the spec's pinned "
                    f"{sha256[:12]}..."
                )
            resolved.append((alias, str(path), actual))
        return tuple(resolved)

    def trace_hashes(self) -> dict[str, str]:
        """Content hash (sha256) per trace alias the campaign references:
        the ``[trace_files]`` table plus any sample-library names used in
        mixes.  Sample hashes come from the library's pinned registry —
        no file access — except unpinned samples, which are generated on
        demand and hashed."""
        hashes = {alias: sha for alias, _path, sha in self.trace_files}
        for cores in self.num_cores:
            for mix in self.mixes_for(cores):
                for entry in mix:
                    if not entry.startswith(_TRACE_PREFIX):
                        continue
                    name = entry[len(_TRACE_PREFIX):]
                    if name in hashes:
                        continue
                    from ..traces.library import SAMPLE_TRACES

                    sample = SAMPLE_TRACES.get(name)
                    if sample is None:
                        continue  # __post_init__ already rejected unknowns
                    if sample.sha256:
                        hashes[name] = sample.sha256
                    else:
                        from ..traces.library import ensure_sample_trace
                        from ..traces.source import trace_content_sha256

                        hashes[name] = trace_content_sha256(
                            ensure_sample_trace(name)
                        )
        return hashes

    def _canonical_mix(
        self, mix: Iterable[str], hashes: Mapping[str, str]
    ) -> list[str]:
        """Mix entries for job-key hashing: ``trace:`` entries become
        ``trace:<sha256>:<decoder>`` (identity independent of alias and
        path); synthetic names pass through, keeping pre-existing job
        keys byte-identical."""
        return [
            f"{_TRACE_PREFIX}{hashes[b[len(_TRACE_PREFIX):]]}:{self.decoder}"
            if b.startswith(_TRACE_PREFIX)
            else b
            for b in mix
        ]

    # -- mixes ---------------------------------------------------------------
    def mixes_for(self, cores: int) -> list[list[str]]:
        """The ordered mix list for one core count (deterministic)."""
        out: list[list[str]] = []
        if self.include_case_studies and cores == 4:
            out.append(list(CASE_STUDY_1))
            out.append(list(CASE_STUDY_2))
        if self.include_sample_mixes:
            if cores == 4:
                out.extend(list(m) for m in FIG8_SAMPLE_MIXES)
            elif cores == 16:
                out.extend(list(m) for m in SIXTEEN_CORE_MIXES.values())
        out.extend(list(m) for m in self.mixes if len(m) == cores)
        if self.mix_count != 0:
            count = (
                self.mix_count
                if self.mix_count is not None
                else default_workload_count(cores)
            )
            out.extend(random_mixes(cores, count=count, seed=self.mix_seed))
        return out

    # -- identity ------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable canonical form (spec files round-trip).

        Trace keys appear only when used, so specs without traces
        serialize — and fingerprint — exactly as before they existed.
        """
        data: dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "variants": [
                {
                    "label": v.label,
                    "scheduler": v.scheduler,
                    "kwargs": {k: val for k, val in v.kwargs},
                }
                for v in self.variants
            ],
            "num_cores": list(self.num_cores),
            "mix_count": self.mix_count,
            "mix_seed": self.mix_seed,
            "mixes": [list(m) for m in self.mixes],
            "include_sample_mixes": self.include_sample_mixes,
            "include_case_studies": self.include_case_studies,
            "seeds": list(self.seeds),
            "instructions": self.instructions,
        }
        if self.trace_files:
            data["trace_files"] = {
                alias: {"path": path, "sha256": sha}
                for alias, path, sha in self.trace_files
            }
        if self.decoder != "dramsim2":
            data["decoder"] = self.decoder
        return data

    def fingerprint(self) -> str:
        """Content hash identifying this spec (the store's campaign key).

        The resolved instruction count is hashed in, so the "same" spec
        under a different ``REPRO_SCALE`` is a different campaign — its
        results are not interchangeable.  Trace files are hashed by
        *content* (paths stripped), so relocating a trace file leaves
        the campaign identity — and its stored results — intact.
        """
        data = self.to_dict()
        if "trace_files" in data:
            data["trace_files"] = {
                alias: {"sha256": entry["sha256"]}
                for alias, entry in data["trace_files"].items()
            }
        return content_key([data, self.resolved_instructions()])

    def resolved_instructions(self) -> int:
        return self.instructions or default_instructions()

    # -- expansion -----------------------------------------------------------
    def _expand_inputs(self) -> tuple:
        """What :meth:`expand` reads from the environment: the resolved
        instruction count (``REPRO_SCALE``) and, when ``mix_count`` is
        None, the per-core-count mix counts (``REPRO_WORKLOADS``)."""
        if self.mix_count is not None:
            return (self.resolved_instructions(),)
        return (
            self.resolved_instructions(),
            tuple(default_workload_count(cores) for cores in self.num_cores),
        )

    def expand(self) -> list[CampaignJob]:
        """The full deterministic job grid, in canonical order.

        Order is cores-major, then seed, then mix, then variant — so all
        variants of one mix are adjacent (the grouping the reports use).
        The grid is computed once per spec instance and environment;
        each call returns a fresh list over the same frozen jobs.
        """
        inputs = self._expand_inputs()
        memo = self.__dict__.get("_expand_memo")
        if memo is None or memo[0] != inputs:
            memo = (inputs, tuple(self._expand_grid()))
            object.__setattr__(self, "_expand_memo", memo)
        return list(memo[1])

    def _expand_grid(self) -> list[CampaignJob]:
        instructions = self.resolved_instructions()
        hashes = self.trace_hashes()
        carried = tuple((alias, path) for alias, path, _sha in self.trace_files)
        jobs: list[CampaignJob] = []
        for cores in self.num_cores:
            # Flattened once here instead of once per job in content_key.
            config = asdict(baseline_system(cores))
            mixes = self.mixes_for(cores)
            for seed in self.seeds:
                for mix_index, mix in enumerate(mixes):
                    for variant in self.variants:
                        jobs.append(
                            CampaignJob(
                                key=job_key(
                                    config,
                                    self._canonical_mix(mix, hashes),
                                    variant.scheduler,
                                    variant.kwargs,
                                    instructions,
                                    seed,
                                ),
                                num_cores=cores,
                                workload=tuple(mix),
                                mix_index=mix_index,
                                variant=variant.label,
                                scheduler=variant.scheduler,
                                kwargs=variant.kwargs,
                                seed=seed,
                                instructions=instructions,
                                trace_files=carried,
                                decoder=self.decoder,
                            )
                        )
        return jobs

    def describe(self) -> str:
        """Dry-run summary: the grid's shape and size, no simulation."""
        lines = [
            f"campaign {self.name!r} (fingerprint {self.fingerprint()[:12]})",
            f"  instructions/thread: {self.resolved_instructions()}",
            f"  variants ({len(self.variants)}): "
            + ", ".join(v.label for v in self.variants),
            f"  seeds: {list(self.seeds)}",
        ]
        total = 0
        for cores in self.num_cores:
            mixes = self.mixes_for(cores)
            cell = len(mixes) * len(self.variants) * len(self.seeds)
            total += cell
            lines.append(f"  {cores}-core: {len(mixes)} mixes -> {cell} jobs")
        lines.append(f"  total: {total} jobs")
        return "\n".join(lines)


# -- spec files ---------------------------------------------------------------
_CAP_NONE = ("none", "nocap", "no-cap", "null")


def spec_from_dict(data: Mapping[str, Any]) -> CampaignSpec:
    """Build a validated spec from a plain dict (TOML/JSON shape).

    ``schedulers`` is shorthand for kwarg-free variants; ``marking_caps``
    expands the PAR-BS entry into one variant per cap (use ``"none"`` for
    the uncapped point, matching Figure 11's x-axis).  A string entry in
    ``mixes`` names a registered mix (resolved via
    :func:`repro.workloads.mixes.get_mix`, which raises a did-you-mean
    error on typos); ``[trace_files]`` maps aliases onto trace files as
    a bare path or a ``{path, sha256}`` pin.
    """
    data = dict(data)
    if "mixes" in data:
        data["mixes"] = [
            get_mix(m) if isinstance(m, str) else m for m in data["mixes"] or []
        ]
    trace_files: list[tuple[str, str, str]] = []
    for alias, entry in (data.pop("trace_files", None) or {}).items():
        if isinstance(entry, str):
            trace_files.append((str(alias), entry, ""))
        elif isinstance(entry, Mapping) and entry.get("path"):
            trace_files.append(
                (str(alias), str(entry["path"]), str(entry.get("sha256", "")))
            )
        else:
            raise ValueError(
                f"trace_files[{alias!r}] must be a path string or a "
                f"{{path, sha256}} table, got {entry!r}"
            )
    decoder = str(data.pop("decoder", "dramsim2"))
    variants: list[Variant] = []
    caps = data.pop("marking_caps", None)
    for name in data.pop("schedulers", []) or []:
        if caps and str(name).strip().lower() in ("par-bs", "parbs"):
            for cap in caps:
                if isinstance(cap, str) and cap.strip().lower() in _CAP_NONE:
                    cap = None
                label = f"c={cap}" if cap is not None else "no-c"
                variants.append(
                    Variant(label, "PAR-BS", (("marking_cap", cap),))
                )
        else:
            variants.append(Variant(str(name), str(name)))
    if caps and not any(v.scheduler.lower().startswith("par") for v in variants):
        raise ValueError("marking_caps requires PAR-BS in schedulers")
    for entry in data.pop("variants", []) or []:
        scheduler = entry.get("scheduler")
        if not scheduler:
            raise ValueError(f"variant entry missing 'scheduler': {entry!r}")
        variants.append(
            Variant(
                str(entry.get("label") or scheduler),
                str(scheduler),
                _freeze_kwargs(entry.get("kwargs", {})),
            )
        )
    known = {
        "name",
        "description",
        "num_cores",
        "mix_count",
        "mix_seed",
        "mixes",
        "include_sample_mixes",
        "include_case_studies",
        "seeds",
        "instructions",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown campaign spec keys {sorted(unknown)}; known: "
            f"{sorted(known | {'schedulers', 'marking_caps', 'variants'})}"
        )
    kwargs: dict[str, Any] = {k: data[k] for k in known & set(data)}
    if "num_cores" in kwargs and isinstance(kwargs["num_cores"], int):
        kwargs["num_cores"] = (kwargs["num_cores"],)
    if "seeds" in kwargs and isinstance(kwargs["seeds"], int):
        kwargs["seeds"] = (kwargs["seeds"],)
    if not kwargs.get("name"):
        raise ValueError("campaign spec needs a 'name'")
    return CampaignSpec(
        variants=tuple(variants),
        trace_files=tuple(trace_files),
        decoder=decoder,
        **kwargs,
    )


def load_spec(path: str | Path) -> CampaignSpec:
    """Load a campaign spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    text = path.read_text()
    if path.suffix.lower() == ".json":
        return spec_from_dict(json.loads(text))
    try:
        import tomllib
    except ImportError as exc:  # pragma: no cover - Python < 3.11
        raise RuntimeError(
            "TOML campaign specs need Python 3.11+ (tomllib); "
            "use a .json spec instead"
        ) from exc
    return spec_from_dict(tomllib.loads(text))
