"""Unit tests for instruction traces."""

import pytest

from repro.cpu.trace import Trace, TraceEntry


def test_entry_validation():
    with pytest.raises(ValueError):
        TraceEntry(gap=-1, address=0)
    with pytest.raises(ValueError):
        TraceEntry(gap=0, address=-64)
    with pytest.raises(ValueError):
        TraceEntry(gap=0, address=0, depends_on=-1)


def test_total_instructions_counts_gaps_and_accesses():
    trace = Trace([TraceEntry(9, 0), TraceEntry(4, 64)])
    assert trace.total_instructions == 15


def test_memory_access_counters():
    trace = Trace(
        [TraceEntry(0, 0), TraceEntry(0, 64, is_write=True), TraceEntry(0, 128)]
    )
    assert trace.memory_accesses == 3
    assert trace.reads == 2
    assert trace.writes == 1


def test_accesses_per_kilo_instruction():
    trace = Trace([TraceEntry(99, i * 64) for i in range(10)])
    assert trace.accesses_per_kilo_instruction() == pytest.approx(10.0)


def test_empty_trace():
    trace = Trace([])
    assert len(trace) == 0
    assert trace.total_instructions == 0
    assert trace.accesses_per_kilo_instruction() == 0.0


def test_iteration_and_indexing():
    entries = [TraceEntry(1, 64), TraceEntry(2, 128)]
    trace = Trace(entries)
    assert list(trace) == entries
    assert trace[1].address == 128

