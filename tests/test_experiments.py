"""Smoke tests for the experiment drivers (small scales)."""

import pytest

from repro.experiments.abstract_fig3 import FIG3_BATCH, run_fig3
from repro.experiments.ablations import (
    batching_choice_sweep,
    marking_cap_sweep,
    ranking_scheme_sweep,
)
from repro.experiments.aggregate import default_workload_count, run_aggregate
from repro.experiments.case_studies import CASE_STUDIES, run_case_study
from repro.experiments.characterization import run_characterization
from repro.experiments.paper_values import SCHEDULERS, TABLE4
from repro.experiments.priorities import run_opportunistic, run_weighted_lbm
from repro.experiments.reporting import format_table
from repro.sim.runner import ExperimentRunner

INSTRUCTIONS = 25_000


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(instructions=INSTRUCTIONS)


def test_fig3_policy_ordering():
    result = run_fig3()
    fcfs = result.schedules["fcfs"].average_completion
    frfcfs = result.schedules["fr-fcfs"].average_completion
    parbs = result.schedules["par-bs"].average_completion
    assert parbs < frfcfs < fcfs


def test_fig3_layout_matches_paper_constraints():
    loads_by_thread = {}
    per_bank = {}
    for r in FIG3_BATCH.requests:
        per_bank.setdefault((r.thread, r.bank), 0)
        per_bank[(r.thread, r.bank)] += 1
    max_load = {}
    for (t, _b), n in per_bank.items():
        max_load[t] = max(max_load.get(t, 0), n)
    assert max_load[1] == 1
    assert max_load[2] == 2
    assert max_load[3] == 2
    assert max_load[4] == 5


def test_case_study_driver_small(runner):
    result = run_case_study("fig5_case_study_1", runner=runner)
    assert set(result.results) == set(SCHEDULERS)
    assert "unfairness" in result.report()


def test_case_study_unknown_name():
    with pytest.raises(ValueError):
        run_case_study("fig99")


def test_case_studies_registry():
    assert set(CASE_STUDIES) == {
        "fig5_case_study_1",
        "fig6_case_study_2",
        "fig7_case_study_3",
        "fig9_8core_mix",
    }


def test_aggregate_driver_small():
    result = run_aggregate(4, count=2, instructions=INSTRUCTIONS)
    summary = result.summary()
    assert set(summary) == set(SCHEDULERS)
    for vals in summary.values():
        assert vals["unfairness"] >= 1.0
        assert vals["wspeedup"] > 0
    assert "aggregate" in result.report()


def test_default_workload_count_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKLOADS", "3")
    assert default_workload_count(4) == 3
    monkeypatch.delenv("REPRO_WORKLOADS")
    assert default_workload_count(4) > 0


def test_marking_cap_sweep_small():
    result = marking_cap_sweep(
        caps=[1, 5], count=1, instructions=INSTRUCTIONS, include_case_studies=False
    )
    assert set(result.variants) == {"c=1", "c=5"}
    assert "c=1" in result.report("caps")


def test_batching_choice_sweep_small():
    result = batching_choice_sweep(
        durations=[3200],
        count=1,
        instructions=INSTRUCTIONS,
        include_case_studies=False,
    )
    assert set(result.variants) == {"st-3200", "eslot", "full"}


def test_ranking_sweep_small():
    result = ranking_scheme_sweep(count=1, instructions=INSTRUCTIONS)
    assert "max-total(PAR-BS)" in result.variants
    assert "STFM" in result.variants
    assert "no-rank(FCFS)" in result.variants


def test_priority_scenarios_small(runner):
    lbm = run_weighted_lbm(runner=runner)
    slowdowns = lbm.slowdowns("PAR-BS-pri-1-1-2-8")
    assert slowdowns[3] > slowdowns[0]  # priority 8 slower than priority 1
    opportunistic = run_opportunistic(runner=runner)
    parbs = opportunistic.slowdowns("PAR-BS-L-L-0-L")
    assert parbs[2] == min(parbs)


def test_characterization_small(runner):
    result = run_characterization(runner=runner, benchmarks=["mcf", "libquantum"])
    assert len(result.rows) == 2
    report = result.report()
    assert "mcf" in report and "libquantum" in report


def test_paper_values_complete():
    for cores in (4, 8, 16):
        assert set(TABLE4[cores]) == set(SCHEDULERS)
        for vals in TABLE4[cores].values():
            assert set(vals) == {"unfairness", "wspeedup", "hspeedup", "ast", "wc_latency"}


def test_paper_hmean_speedups_are_in_the_metric_unit():
    """``hmean_speedup`` is a harmonic mean of per-thread speedups (each
    at most about 1), so every Table 4 entry lies in (0, 1]."""
    for cores, table in TABLE4.items():
        for scheduler, vals in table.items():
            assert 0 < vals["hspeedup"] <= 1, (cores, scheduler)


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], ["xyz", 3.25]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("a")
