"""Unit and property tests for the address mapping."""

import dataclasses
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_system
from repro.dram.address import CACHE_LINE_BYTES, AddressMapping
from repro.dram.fastctl import FastMemoryController
from repro.events import EventQueue
from repro.sim.factory import make_scheduler


def test_columns_per_row():
    assert AddressMapping(row_bytes=2048).columns_per_row == 32


def test_same_row_addresses_map_to_same_bank_and_row():
    m = AddressMapping()
    a = m.map(0)
    b = m.map(CACHE_LINE_BYTES)  # next line, same row
    assert (a.channel, a.bank, a.row) == (b.channel, b.bank, b.row)
    assert b.column == a.column + 1


def test_sequential_rows_change_bank_with_xor_hash():
    m = AddressMapping(xor_bank_hash=True)
    row_bytes = m.row_bytes
    banks = {m.map(i * row_bytes).bank for i in range(8)}
    assert len(banks) > 1  # a long stream spreads across banks


def test_compose_map_roundtrip_simple():
    m = AddressMapping(num_channels=2, num_banks=8)
    address = m.compose(channel=1, bank=3, row=77, column=5)
    coords = m.map(address)
    assert coords.channel == 1
    assert coords.bank == 3
    assert coords.row == 77
    assert coords.column == 5


def test_compose_respects_xor_disabled():
    m = AddressMapping(xor_bank_hash=False)
    coords = m.map(m.compose(0, 6, 1234, 7))
    assert coords.bank == 6
    assert coords.row == 1234


def test_negative_address_rejected():
    with pytest.raises(ValueError):
        AddressMapping().map(-1)


def test_compose_validates_ranges():
    m = AddressMapping(num_channels=1, num_banks=8)
    with pytest.raises(ValueError):
        m.compose(1, 0, 0, 0)  # channel out of range
    with pytest.raises(ValueError):
        m.compose(0, 8, 0, 0)  # bank out of range
    with pytest.raises(ValueError):
        m.compose(0, 0, -1, 0)
    with pytest.raises(ValueError):
        m.compose(0, 0, 0, 32)  # column out of range for 2 KB rows


def test_non_power_of_two_banks_rejected():
    with pytest.raises(ValueError):
        AddressMapping(num_banks=6)


def test_row_bytes_must_be_line_multiple():
    with pytest.raises(ValueError):
        AddressMapping(row_bytes=1000)


@given(
    channel=st.integers(0, 1),
    bank=st.integers(0, 7),
    row=st.integers(0, 10_000),
    column=st.integers(0, 31),
)
@settings(max_examples=200)
def test_compose_map_roundtrip_property(channel, bank, row, column):
    m = AddressMapping(num_channels=2, num_banks=8)
    coords = m.map(m.compose(channel, bank, row, column))
    assert (coords.channel, coords.bank, coords.row, coords.column) == (
        channel,
        bank,
        row,
        column,
    )


@given(line=st.integers(0, 1 << 30))
@settings(max_examples=200)
def test_map_compose_roundtrip_property(line):
    m = AddressMapping(num_channels=2, num_banks=8)
    address = line * CACHE_LINE_BYTES
    c = m.map(address)
    assert m.compose(c.channel, c.bank, c.row, c.column) == address


@given(line=st.integers(0, 1 << 24))
@settings(max_examples=100)
def test_distinct_lines_map_to_distinct_coordinates(line):
    m = AddressMapping()
    a = m.map(line * CACHE_LINE_BYTES)
    b = m.map((line + 1) * CACHE_LINE_BYTES)
    assert (a.channel, a.bank, a.row, a.column) != (
        b.channel,
        b.bank,
        b.row,
        b.column,
    )


@lru_cache(maxsize=None)
def _decode_controller(channels: int) -> FastMemoryController:
    config = baseline_system(4)
    dram = dataclasses.replace(config.dram, num_channels=channels)
    return FastMemoryController(
        EventQueue(), dram, make_scheduler("FR-FCFS", 4), num_threads=4
    )


@pytest.mark.parametrize("xor", [False, True])
@pytest.mark.parametrize("channels", [1, 2])
@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**40), max_size=64))
def test_predecode_matches_address_mapping(channels, xor, addresses):
    """The decode memo ``predecode`` fills is the only decode the fast
    backend uses on a predecoded run: every entry must equal
    ``AddressMapping.map``."""
    mapping = AddressMapping(num_channels=channels, xor_bank_hash=xor)
    controller = _decode_controller(channels)
    controller.install_mapping(mapping)  # also empties the memo
    controller.predecode(addresses)
    expected = {}
    for address in addresses:
        coords = mapping.map(address)
        expected[address] = (coords.channel, coords.bank, coords.row)
    assert controller._coords == expected
