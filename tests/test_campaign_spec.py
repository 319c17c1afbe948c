"""Tests for campaign specs: validation, deterministic expansion, files."""

import json

import pytest

from repro.campaign.spec import (
    CampaignSpec,
    Variant,
    job_key,
    load_spec,
    spec_from_dict,
)
from repro.config import MIN_INSTRUCTIONS, SCHEDULER_NAMES, baseline_system, scheduler_name
from repro.core.parbs import ParBsScheduler
from repro.sim.factory import make_scheduler
from repro.workloads.mixes import CASE_STUDY_1, CASE_STUDY_2, random_mixes


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="t",
        variants=(Variant("FCFS", "FCFS"), Variant("PAR-BS", "PAR-BS")),
        mix_count=2,
        instructions=20_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


# -- validation ---------------------------------------------------------------
def test_variant_validates_scheduler_name():
    with pytest.raises(ValueError) as info:
        Variant("bogus", "NO-SUCH-SCHEDULER")
    assert str(info.value) == (
        "variant 'bogus' is not instantiable: unknown scheduler "
        "'NO-SUCH-SCHEDULER'; known: ['FR-FCFS', 'FCFS', 'NFQ', 'STFM', 'PAR-BS']"
    )


def test_variant_validates_kwargs():
    with pytest.raises(TypeError) as built:
        ParBsScheduler(2, not_a_kwarg=3)
    with pytest.raises(ValueError) as info:
        Variant("bad", "PAR-BS", (("not_a_kwarg", 3),))
    assert str(info.value) == f"variant 'bad' is not instantiable: {built.value}"
    with pytest.raises(ValueError) as info:
        Variant("cap", "PAR-BS", (("marking_cap", 0),))
    assert str(info.value) == (
        "variant 'cap' is not instantiable: marking_cap must be >= 1 (or None for no cap)"
    )


@pytest.mark.parametrize("threads", [1, 2, 16])
@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_every_scheduler_builds_without_kwargs(name, threads):
    """Why a kwarg-free variant is checked by its name alone."""
    assert make_scheduler(name, threads) is not None


@pytest.mark.parametrize(
    "spelling, name",
    [
        ("fr-fcfs", "FR-FCFS"),
        ("frfcfs", "FR-FCFS"),
        (" FCFS ", "FCFS"),
        ("nfq", "NFQ"),
        ("Stfm", "STFM"),
        ("par_bs", "PAR-BS"),
        ("parbs", "PAR-BS"),
    ],
)
def test_scheduler_spellings_name_one_scheduler(spelling, name):
    assert scheduler_name(spelling) == name
    assert Variant("v", spelling).scheduler == spelling
    assert type(make_scheduler(spelling, 2)) is type(make_scheduler(name, 2))


@pytest.mark.parametrize("spelling", ["", "fr_fcfs_", "par-b-s", "SJF"])
def test_unknown_spellings_are_rejected(spelling):
    with pytest.raises(ValueError, match="unknown scheduler"):
        scheduler_name(spelling)
    with pytest.raises(ValueError, match="unknown scheduler"):
        make_scheduler(spelling, 2)


def test_variant_kwargs_sorted_for_hash_stability():
    a = Variant("x", "PAR-BS", (("marking_cap", 5), ("batching", "eslot")))
    b = Variant("x", "PAR-BS", (("batching", "eslot"), ("marking_cap", 5)))
    assert a == b


def test_spec_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate"):
        _spec(variants=(Variant("x", "FCFS"), Variant("x", "NFQ")))


def test_spec_rejects_empty_variants():
    with pytest.raises(ValueError, match="at least one variant"):
        _spec(variants=())


def test_spec_rejects_unknown_benchmarks():
    with pytest.raises(ValueError, match="unknown benchmarks"):
        _spec(mixes=(("doom", "quake", "myst", "hexen"),))


def test_spec_rejects_empty_grid():
    with pytest.raises(ValueError, match="no mixes"):
        _spec(mix_count=0)


def test_spec_rejects_bad_cores_and_seeds():
    with pytest.raises(ValueError):
        _spec(num_cores=())
    with pytest.raises(ValueError):
        _spec(num_cores=(0,))
    with pytest.raises(ValueError):
        _spec(seeds=())


def test_spec_rejects_instructions_below_generator_minimum():
    """A synthetic mix below the generator's minimum would register its
    grid and then fail every job at run time; refuse it up front."""
    with pytest.raises(ValueError, match=f"minimum of {MIN_INSTRUCTIONS}"):
        _spec(instructions=MIN_INSTRUCTIONS - 1)
    # One synthetic entry in a mix that is in the grid is enough.
    with pytest.raises(ValueError, match="minimum"):
        _spec(
            mix_count=0,
            mixes=(("trace:stream-hi", "mcf", "trace:chase-lo", "hmmer"),),
            instructions=500,
        )
    assert _spec(instructions=MIN_INSTRUCTIONS).instructions == MIN_INSTRUCTIONS
    # Trace-only grids are sliced from the trace file, not generated:
    # any positive count stays valid.
    traced = _spec(
        mix_count=0,
        mixes=(("trace:stream-hi", "trace:chase-lo") * 2,),
        instructions=500,
    )
    assert [job.instructions for job in traced.expand()] == [500, 500]


# -- mixes and expansion ------------------------------------------------------
def test_mixes_for_order_and_content():
    spec = _spec(
        include_case_studies=True,
        mixes=(tuple(CASE_STUDY_1),),  # explicit extra, 4 benchmarks
        mix_count=2,
        mix_seed=7,
    )
    mixes = spec.mixes_for(4)
    assert mixes[0] == list(CASE_STUDY_1)
    assert mixes[1] == list(CASE_STUDY_2)
    assert mixes[2] == list(CASE_STUDY_1)  # the explicit one
    assert mixes[3:] == random_mixes(4, count=2, seed=7)


def test_explicit_mixes_filtered_by_length():
    spec = _spec(num_cores=(4, 8), mixes=(tuple(CASE_STUDY_1),), mix_count=1)
    assert list(CASE_STUDY_1) in spec.mixes_for(4)
    assert list(CASE_STUDY_1) not in spec.mixes_for(8)


def test_expand_is_deterministic_and_ordered():
    spec = _spec(num_cores=(4, 8), seeds=(0, 1))
    a, b = spec.expand(), spec.expand()
    assert [j.key for j in a] == [j.key for j in b]
    # cores-major, then seed, then mix, then variant
    assert a[0].num_cores == 4 and a[-1].num_cores == 8
    labels = [j.variant for j in a]
    assert labels[: len(spec.variants)] == [v.label for v in spec.variants]
    # 2 cores x 2 seeds x 2 mixes x 2 variants
    assert len(a) == 16
    assert len({j.key for j in a}) == 16


def test_expand_is_memoized_per_environment(monkeypatch):
    """The grid is hashed once per spec; a change to an environment knob
    expand() reads yields the freshly expanded grid."""
    import repro.campaign.spec as spec_module

    hashed = []
    real_job_key = spec_module.job_key

    def counting_job_key(*args):
        hashed.append(args)
        return real_job_key(*args)

    monkeypatch.setattr(spec_module, "job_key", counting_job_key)
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    monkeypatch.delenv("REPRO_WORKLOADS", raising=False)
    spec = _spec(instructions=None, mix_count=None)
    first = spec.expand()
    assert len(hashed) == len(first)
    second = spec.expand()
    assert len(hashed) == len(first)  # no new job_key hashing
    assert second == first
    assert second is not first  # callers may mutate their list
    second.clear()
    assert spec.expand() == first

    monkeypatch.setenv("REPRO_SCALE", "0.5")
    scaled = spec.expand()
    assert scaled == _spec(instructions=None, mix_count=None).expand()
    assert {job.instructions for job in scaled} != {
        job.instructions for job in first
    }

    monkeypatch.setenv("REPRO_WORKLOADS", "3")
    more = spec.expand()
    assert more == _spec(instructions=None, mix_count=None).expand()
    assert len(more) == 3 * len(spec.variants)


def test_job_keys_are_full_content_hashes():
    spec = _spec()
    for job in spec.expand():
        assert len(job.key) == 64
        int(job.key, 16)  # hex


def test_expanded_keys_equal_content_key_of_payloads():
    """Expansion flattens each core count's config once; every key must
    still be the content hash of the payload with the config dataclass
    itself, since keys are the store's primary keys."""
    from repro.sim.diskcache import SIM_FINGERPRINT, content_key
    from repro.traces.library import SAMPLE_TRACES

    spec = _spec(
        variants=(
            Variant("FCFS", "FCFS"),
            Variant("c=5", "PAR-BS", (("marking_cap", 5),)),
        ),
        num_cores=(1, 4, 16),
        seeds=(0, 1),
        mix_count=0,
        mixes=(
            ("trace:stream-hi",),
            ("mcf",),
            ("trace:stream-hi", "mcf", "trace:chase-lo", "hmmer"),
            ("trace:chase-lo", "lbm", "milc", "gcc") * 4,
        ),
    )
    jobs = spec.expand()
    assert {job.num_cores for job in jobs} == {1, 4, 16}
    assert any(b.startswith("trace:") for job in jobs for b in job.workload)
    for job in jobs:
        workload = [
            f"trace:{SAMPLE_TRACES[b[6:]].sha256}:dramsim2"
            if b.startswith("trace:")
            else b
            for b in job.workload
        ]
        assert job.key == content_key(
            [
                SIM_FINGERPRINT,
                baseline_system(job.num_cores),
                workload,
                job.scheduler,
                sorted(job.kwargs),
                job.instructions,
                job.seed,
            ]
        )


def test_job_key_matches_runner_job_key():
    """The campaign and the runner must name the same simulation
    identically (the runner truncates its key for trace filenames), or
    the store and trace layers would silently diverge."""
    from repro.sim.runner import ExperimentRunner

    config = baseline_system(4)
    runner = ExperimentRunner(config, instructions=20_000, seed=0)
    workload = list(CASE_STUDY_1)
    kwargs = {"marking_cap": 5}
    full = job_key(config, workload, "PAR-BS", kwargs, 20_000, 0)
    assert full[:20] == runner._job_key(workload, "PAR-BS", kwargs)


def test_fingerprint_changes_with_contents():
    assert _spec().fingerprint() != _spec(mix_seed=43).fingerprint()
    assert _spec().fingerprint() != _spec(instructions=30_000).fingerprint()
    assert _spec().fingerprint() == _spec().fingerprint()


def test_describe_mentions_shape():
    text = _spec().describe()
    assert "2 mixes" in text
    assert "total: 4 jobs" in text


# -- spec files ---------------------------------------------------------------
def test_spec_from_dict_scheduler_shorthand():
    spec = spec_from_dict(
        {"name": "s", "schedulers": ["FCFS", "NFQ"], "mix_count": 1}
    )
    assert [v.label for v in spec.variants] == ["FCFS", "NFQ"]
    assert all(v.kwargs == () for v in spec.variants)


def test_spec_from_dict_marking_caps_expand_parbs():
    spec = spec_from_dict(
        {
            "name": "caps",
            "schedulers": ["FR-FCFS", "PAR-BS"],
            "marking_caps": [1, 5, "none"],
            "mix_count": 1,
        }
    )
    assert [v.label for v in spec.variants] == ["FR-FCFS", "c=1", "c=5", "no-c"]
    assert dict(spec.variants[3].kwargs) == {"marking_cap": None}


def test_spec_from_dict_marking_caps_require_parbs():
    with pytest.raises(ValueError, match="marking_caps"):
        spec_from_dict(
            {"name": "x", "schedulers": ["FCFS"], "marking_caps": [1]}
        )


def test_spec_from_dict_explicit_variants():
    spec = spec_from_dict(
        {
            "name": "v",
            "mix_count": 1,
            "variants": [
                {"label": "eslot", "scheduler": "PAR-BS", "kwargs": {"batching": "eslot"}},
                {"scheduler": "STFM"},
            ],
        }
    )
    assert [v.label for v in spec.variants] == ["eslot", "STFM"]
    assert dict(spec.variants[0].kwargs) == {"batching": "eslot"}


def test_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown campaign spec keys"):
        spec_from_dict({"name": "x", "schedulers": ["FCFS"], "turbo": True})


def test_spec_from_dict_scalar_coercion():
    spec = spec_from_dict(
        {"name": "x", "schedulers": ["FCFS"], "num_cores": 8, "seeds": 3, "mix_count": 1}
    )
    assert spec.num_cores == (8,)
    assert spec.seeds == (3,)


def test_load_spec_toml_and_json_agree(tmp_path):
    data = {
        "name": "file",
        "schedulers": ["FCFS", "PAR-BS"],
        "mix_count": 2,
        "instructions": 20000,
    }
    json_path = tmp_path / "c.json"
    json_path.write_text(json.dumps(data))
    toml_path = tmp_path / "c.toml"
    toml_path.write_text(
        'name = "file"\nschedulers = ["FCFS", "PAR-BS"]\n'
        "mix_count = 2\ninstructions = 20000\n"
    )
    assert load_spec(json_path).fingerprint() == load_spec(toml_path).fingerprint()


def test_to_dict_round_trips():
    spec = _spec(include_case_studies=True, seeds=(0, 1))
    clone = spec_from_dict(spec.to_dict())
    assert clone.fingerprint() == spec.fingerprint()
    assert [j.key for j in clone.expand()] == [j.key for j in spec.expand()]
