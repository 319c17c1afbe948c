"""Unit tests for reporting helpers and configuration presets."""

import pytest

from repro.config import DramConfig, SystemConfig, baseline_system
from repro.experiments.reporting import format_table
from repro.workloads.generator import TraceGenerator
from repro.workloads.profiles import BenchmarkProfile


def test_format_table_basic():
    text = format_table(["name", "value"], [["a", 1.5], ["bb", 200.0]])
    lines = text.splitlines()
    assert lines[0].split() == ["name", "value"]
    assert "1.500" in lines[2]
    assert "200" in lines[3]


def test_format_table_with_title():
    text = format_table(["x"], [[1]], title="My Table")
    assert text.splitlines()[0] == "My Table"


def test_format_table_pads_columns():
    text = format_table(["long-header", "y"], [["a", "b"]])
    header, sep, row = text.splitlines()
    assert len(header) == len(sep)


def test_dram_config_mapping_consistent():
    config = DramConfig(num_channels=2, num_banks=16)
    mapping = config.mapping()
    assert mapping.num_channels == 2
    assert mapping.num_banks == 16


def test_scaled_channels():
    config = SystemConfig(num_cores=16).scaled_channels()
    assert config.dram.num_channels == 4
    assert SystemConfig(num_cores=2).scaled_channels().dram.num_channels == 1


def test_baseline_core_parameters_match_table2():
    core = baseline_system(4).core
    assert core.window_size == 128
    assert core.width == 3
    assert core.mshrs == 32


def test_baseline_dram_parameters_match_table2():
    dram = baseline_system(4).dram
    assert dram.num_banks == 8
    assert dram.row_bytes == 2048
    assert dram.request_buffer_size == 128
    assert dram.write_buffer_size == 64


def test_configs_are_frozen():
    with pytest.raises(AttributeError):
        baseline_system(4).num_cores = 8


def test_generator_fallback_knobs_for_unknown_profile():
    custom = BenchmarkProfile(
        number=1,
        name="custom-app",
        kind="INT",
        mcpi=1.0,
        mpki=10.0,
        row_hit_rate=0.5,
        blp=2.0,
        ast_per_req=150,
        category=1,
    )
    generator = TraceGenerator()
    walkers, dep, cont = generator.parallelism_knobs(custom)
    assert walkers == 2  # round(blp)
    assert 0.0 <= dep <= 1.0 and cont == 0.0
    trace = generator.generate(custom, instructions=80_000, seed=0)
    assert trace.accesses_per_kilo_instruction() == pytest.approx(10.0, rel=0.25)


def test_profile_validation():
    with pytest.raises(ValueError):
        BenchmarkProfile(1, "x", "INT", 1, 1, 0.5, 1, 1, category=9)
    with pytest.raises(ValueError):
        BenchmarkProfile(1, "x", "INT", 1, 1, 1.5, 1, 1, category=0)
