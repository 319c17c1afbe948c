"""Tests for resumable campaign execution.

The acceptance bar: interrupting a campaign and re-running it must resume
*exactly* — no completed cell re-simulated (verified against the worker
job counter), store row counts correct at every step, and the final
report byte-identical to an uninterrupted run's.
"""

from pathlib import Path

import pytest

from repro.campaign.orchestrator import run_and_collect, run_campaign
from repro.campaign.report import campaign_report, export_text, status_report
from repro.campaign.spec import CampaignSpec, Variant, load_spec
from repro.campaign.store import ResultStore
from repro.config import baseline_system
from repro.obs.trace import RingBufferSink, Tracer
from repro.sim import pool
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import CASE_STUDY_1, CASE_STUDY_2, random_mixes


def _spec(**overrides) -> CampaignSpec:
    base = dict(
        name="orch",
        variants=(Variant("FCFS", "FCFS"), Variant("FR-FCFS", "FR-FCFS")),
        mix_count=2,
        instructions=20_000,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def test_run_campaign_completes_grid(tmp_path):
    spec = _spec()
    with ResultStore(tmp_path / "db.sqlite") as store:
        stats = run_campaign(spec, store, jobs=1)
        assert (stats.total, stats.ran, stats.skipped, stats.failed) == (4, 4, 0, 0)
        assert store.counts(spec.fingerprint())["done"] == 4


def test_interrupted_run_resumes_exactly(tmp_path):
    """--limit models an interruption; the resumed run must simulate
    only the missing cells (worker job counter proves it) and end with
    a report byte-identical to an uninterrupted run's."""
    spec = _spec()
    db = tmp_path / "interrupted.sqlite"

    with ResultStore(db) as store:
        pool.JOB_STATS["executed"] = 0
        stats = run_campaign(spec, store, jobs=1, limit=1)
        assert (stats.ran, stats.deferred) == (1, 3)
        assert pool.JOB_STATS["executed"] == 1
        assert store.counts(spec.fingerprint())["done"] == 1

    with ResultStore(db) as store:  # "new process": fresh connection
        pool.JOB_STATS["executed"] = 0
        stats = run_campaign(spec, store, jobs=1)
        assert (stats.ran, stats.skipped) == (3, 1)
        assert pool.JOB_STATS["executed"] == 3  # nothing re-simulated
        assert store.counts(spec.fingerprint())["done"] == 4

    with ResultStore(db) as store:
        pool.JOB_STATS["executed"] = 0
        stats = run_campaign(spec, store, jobs=1)
        assert (stats.ran, stats.skipped) == (0, 4)
        assert pool.JOB_STATS["executed"] == 0

    # Byte-identical reports, interrupted+resumed vs uninterrupted.
    clean_db = tmp_path / "clean.sqlite"
    with ResultStore(clean_db) as store:
        run_campaign(spec, store, jobs=1)
    with ResultStore(db) as resumed, ResultStore(clean_db) as clean:
        for fmt in ("markdown", "csv"):
            assert campaign_report(spec, resumed, fmt=fmt) == campaign_report(
                spec, clean, fmt=fmt
            )
        assert export_text(spec, resumed) == export_text(spec, clean)
        assert status_report(spec, resumed) == status_report(spec, clean)


def test_run_and_collect_grid_order_and_equivalence(tmp_path):
    """Campaign results are bit-identical to the direct runner path."""
    spec = _spec()
    with ResultStore(tmp_path / "db.sqlite") as store:
        results = run_and_collect(spec, store, jobs=1)
    runner = ExperimentRunner(baseline_system(4), instructions=20_000)
    grid = spec.expand()
    assert len(results) == len(grid)
    for job, result in zip(grid, results):
        direct = runner.run_workload(
            list(job.workload), job.scheduler, **job.kwargs_dict()
        )
        assert result == direct


def test_retries_then_success(tmp_path, monkeypatch):
    """A transiently failing worker job is retried and ends up committed."""
    spec = _spec(variants=(Variant("FCFS", "FCFS"),), mix_count=1)
    real_run_job = pool.run_job
    calls = {"n": 0}

    def flaky(sim):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("transient worker crash")
        return real_run_job(sim)

    monkeypatch.setattr(pool, "run_job", flaky)
    with ResultStore(tmp_path / "db.sqlite") as store:
        stats = run_campaign(spec, store, jobs=1, retries=2, backoff_s=0.0)
        assert (stats.ran, stats.failed, stats.retried) == (1, 0, 1)
        assert store.counts(spec.fingerprint())["done"] == 1


def test_exhausted_retries_recorded_as_failed(tmp_path, monkeypatch):
    spec = _spec(variants=(Variant("FCFS", "FCFS"),), mix_count=1)

    def always_broken(sim):
        raise RuntimeError("permanent failure")

    monkeypatch.setattr(pool, "run_job", always_broken)
    with ResultStore(tmp_path / "db.sqlite") as store:
        stats = run_campaign(spec, store, jobs=1, retries=1, backoff_s=0.0)
        assert (stats.ran, stats.failed, stats.retried) == (0, 1, 1)
        failures = store.failures_for(j.key for j in spec.expand())
        assert list(failures.values()) == ["RuntimeError: permanent failure"]
        # run_and_collect refuses to average over a partial grid.
        with pytest.raises(RuntimeError, match="did not complete"):
            run_and_collect(spec, store, jobs=1)


def test_failed_jobs_retried_by_next_run(tmp_path, monkeypatch):
    spec = _spec(variants=(Variant("FCFS", "FCFS"),), mix_count=1)

    def broken(sim):
        raise RuntimeError("boom")

    with ResultStore(tmp_path / "db.sqlite") as store:
        monkeypatch.setattr(pool, "run_job", broken)
        run_campaign(spec, store, jobs=1, retries=0, backoff_s=0.0)
        assert store.counts(spec.fingerprint())["failed"] == 1
        monkeypatch.undo()
        stats = run_campaign(spec, store, jobs=1)
        assert (stats.ran, stats.failed) == (1, 0)
        assert store.counts(spec.fingerprint())["done"] == 1


def test_parallel_run_matches_serial(tmp_path):
    """Worker fan-out commits the same bits as the serial path."""
    spec = _spec()
    with ResultStore(tmp_path / "serial.sqlite") as store:
        serial = run_and_collect(spec, store, jobs=1)
    with ResultStore(tmp_path / "parallel.sqlite") as store:
        parallel = run_and_collect(spec, store, jobs=2)
    assert serial == parallel


def test_campaign_probe_events(tmp_path):
    spec = _spec(variants=(Variant("FCFS", "FCFS"),), mix_count=1)
    ring = RingBufferSink()
    tracer = Tracer([ring])
    with ResultStore(tmp_path / "db.sqlite") as store:
        run_campaign(spec, store, jobs=1, probe=tracer.probe("campaign"))
    events = [e["ev"] for e in ring]
    assert events[0] == "campaign.start"
    assert events[-1] == "campaign.done"
    assert "campaign.job" in events


@pytest.mark.parametrize("jobs, parent_reads", [(1, 7), (2, 4)])
def test_run_registers_and_reads_the_grid_once(
    tmp_path, monkeypatch, jobs, parent_reads
):
    """One run registers the grid and reads its statuses once; the drain
    trusts the pending keys it is handed and re-reads statuses only to
    settle jobs a peer finished (once per claim).  ``parent_reads`` is
    what a run took when the drain registered and read the grid again."""
    spec = load_spec(Path(__file__).parents[1] / "examples" / "campaign_smoke.toml")
    calls = dict.fromkeys(("register", "statuses"), 0)
    for name in calls:

        def counted(self, *args, _real=getattr(ResultStore, name), _name=name):
            calls[_name] += 1
            return _real(self, *args)

        monkeypatch.setattr(ResultStore, name, counted)
    with ResultStore(tmp_path / "db.sqlite") as store:
        stats = run_campaign(spec, store, jobs=jobs)
    assert stats.summary_line(spec.name) == (
        "campaign smoke: total=4 ran=4 skipped=0 failed=0 deferred=0"
    )
    assert calls["register"] == 1
    assert calls["statuses"] < parent_reads


def test_aggregate_via_campaign_matches_direct_run_many(tmp_path):
    """`repro aggregate` routed through the campaign store must match the
    same (mix, scheduler) grid run through ExperimentRunner.run_many
    bit-for-bit."""
    from repro.experiments.aggregate import run_aggregate
    from repro.experiments.paper_values import SCHEDULERS

    with ResultStore(tmp_path / "agg.sqlite") as store:
        via_campaign = run_aggregate(
            4, count=1, instructions=20_000, seed=42, jobs=1, store=store
        )
    mixes = random_mixes(4, count=1, seed=42)
    specs = [(mix, scheduler, {}) for mix in mixes for scheduler in SCHEDULERS]
    runner = ExperimentRunner(baseline_system(4), instructions=20_000)
    per_mix = {scheduler: [] for scheduler in SCHEDULERS}
    for (_mix, scheduler, _kwargs), result in zip(specs, runner.run_many(specs, jobs=1)):
        per_mix[scheduler].append(result)
    assert via_campaign.mixes == mixes
    assert via_campaign.per_mix == per_mix


def test_sweep_via_campaign_matches_direct(tmp_path):
    """Ablation sweeps keep their legacy labels and per-mix numbers."""
    from repro.experiments.ablations import marking_cap_sweep

    runner = ExperimentRunner(baseline_system(4), instructions=20_000)
    with ResultStore(tmp_path / "sweep.sqlite") as store:
        result = marking_cap_sweep(
            caps=[1, None],
            count=1,
            include_case_studies=False,
            instructions=20_000,
            store=store,
        )
    assert list(result.variants) == ["c=1", "no-c"]
    for label, cap in (("c=1", 1), ("no-c", None)):
        for mix, got in zip(result.mixes, result.variants[label]):
            assert got == runner.run_workload(mix, "PAR-BS", marking_cap=cap)


def test_ranking_sweep_with_case_studies_and_extras_uses_campaign_order(tmp_path):
    """Case studies, then extra mixes, then random mixes: the order
    CampaignSpec.mixes_for defines, with every cell equal to a direct
    run of the same variant."""
    from repro.experiments.ablations import RANKING_VARIANTS, ranking_scheme_sweep

    extra = [["lbm"] * 4]
    with ResultStore(tmp_path / "ranking.sqlite") as store:
        result = ranking_scheme_sweep(
            count=1,
            instructions=20_000,
            include_case_studies=True,
            extra_mixes=extra,
            store=store,
        )
    assert result.mixes == [
        list(CASE_STUDY_1),
        list(CASE_STUDY_2),
        *extra,
        *random_mixes(4, count=1, seed=42),
    ]
    runner = ExperimentRunner(baseline_system(4), instructions=20_000)
    assert list(result.variants) == [*RANKING_VARIANTS, "STFM"]
    for mix_index, mix in enumerate(result.mixes):
        for label, kwargs in RANKING_VARIANTS.items():
            want = runner.run_workload(mix, "PAR-BS", **kwargs)
            assert result.variants[label][mix_index] == want
        assert result.variants["STFM"][mix_index] == runner.run_workload(mix, "STFM")


def test_run_sweep_rejects_multi_axis_specs(tmp_path):
    from repro.experiments.ablations import run_sweep

    with ResultStore(tmp_path / "db.sqlite") as store:
        for spec in (_spec(num_cores=(4, 8)), _spec(seeds=(0, 1))):
            with pytest.raises(ValueError, match="one core count and one seed"):
                run_sweep(spec, store)
