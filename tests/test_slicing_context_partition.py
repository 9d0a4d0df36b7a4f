"""Unit + property tests for the slice-rate context and group partition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SliceRateError
from repro.slicing import GroupPartition, SliceContext, current_rate, slice_rate


class TestContext:
    def test_default_rate_is_full(self):
        assert current_rate() == 1.0

    def test_context_sets_and_restores(self):
        with slice_rate(0.5):
            assert current_rate() == 0.5
        assert current_rate() == 1.0

    def test_nested_contexts(self):
        with slice_rate(0.5):
            with slice_rate(0.25):
                assert current_rate() == 0.25
            assert current_rate() == 0.5

    def test_restores_after_exception(self):
        with pytest.raises(ValueError):
            with slice_rate(0.5):
                raise ValueError
        assert current_rate() == 1.0

    def test_invalid_rates_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(SliceRateError):
                with slice_rate(bad):
                    pass

    def test_object_style_api(self):
        with SliceContext.at(0.75):
            assert SliceContext.get() == 0.75


class TestGroupPartition:
    def test_full_rate_gives_full_width(self):
        assert GroupPartition(64, 8).width_for(1.0) == 64

    def test_exact_boundaries(self):
        part = GroupPartition(64, 8)
        assert part.width_for(0.5) == 32
        assert part.width_for(0.375) == 24
        assert part.width_for(0.25) == 16

    def test_minimum_one_group(self):
        part = GroupPartition(64, 8)
        assert part.width_for(0.01) == 8

    def test_rate_snaps_to_nearest_group(self):
        part = GroupPartition(64, 8)
        assert part.width_for(0.55) == part.width_for(0.5)

    def test_uneven_width_covers_everything(self):
        part = GroupPartition(10, 4)
        assert part.boundaries[-1] == 10
        slices = part.group_slices()
        assert slices[0][0] == 0
        for (a, b), (c, d) in zip(slices, slices[1:]):
            assert b == c

    def test_rate_of_width_roundtrip(self):
        part = GroupPartition(64, 8)
        assert part.rate_of_width(32) == 0.5
        with pytest.raises(SliceRateError):
            part.rate_of_width(33)

    def test_valid_rates(self):
        part = GroupPartition(16, 4)
        assert part.valid_rates() == [0.25, 0.5, 0.75, 1.0]

    def test_invalid_construction(self):
        with pytest.raises(SliceRateError):
            GroupPartition(0, 1)
        with pytest.raises(SliceRateError):
            GroupPartition(4, 5)
        with pytest.raises(SliceRateError):
            GroupPartition(4, 0)

    def test_equality_and_hash(self):
        assert GroupPartition(8, 2) == GroupPartition(8, 2)
        assert GroupPartition(8, 2) != GroupPartition(8, 4)
        assert hash(GroupPartition(8, 2)) == hash(GroupPartition(8, 2))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 256), st.integers(1, 32),
       st.floats(0.001, 1.0, allow_nan=False))
def test_partition_properties(width, groups, rate):
    """Prefix widths are monotone in rate, bounded, and group-aligned."""
    groups = min(groups, width)
    part = GroupPartition(width, groups)
    w = part.width_for(rate)
    assert 1 <= w <= width
    assert w in part.boundaries
    # Monotonicity in the rate.
    w_higher = part.width_for(min(1.0, rate + 0.3))
    assert w_higher >= w


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 128), st.integers(1, 16))
def test_group_slices_partition_the_width(width, groups):
    groups = min(groups, width)
    part = GroupPartition(width, groups)
    slices = part.group_slices()
    covered = []
    for a, b in slices:
        assert a < b
        covered.extend(range(a, b))
    assert covered == list(range(width))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 64))
def test_subsumption_of_prefixes(width):
    """Smaller rates always select a strict prefix of larger rates."""
    part = GroupPartition(width, min(8, width))
    rates = part.valid_rates()
    widths = [part.width_for(r) for r in rates]
    assert widths == sorted(widths)
    assert widths[-1] == width
