"""Range/profiler tests including hypothesis properties."""


import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.profiler import (
    RangeProfiler,
    learn_fp_ranges,
    learn_int_ranges,
)
from repro.core.ranges import RangeSet, ValueRange, merge_range_sets
from repro.errors import ReproError

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)


#: Ranges of every shape: positive, negative, straddling zero, touching
#: zero, points (zero among them), and float32-extreme bounds.
CONTAINS_RANGES = [
    ValueRange(2.0, 5.0), ValueRange(-5.0, -2.0), ValueRange(-3.0, 4.0),
    ValueRange(0.0, 3.0), ValueRange(-3.0, 0.0), ValueRange(1.5, 1.5),
    ValueRange(-1.5, -1.5), ValueRange(0.0, 0.0), ValueRange(1e-30, 3e38),
]
CONTAINS_VALUES = [
    0.0, -0.0, 1.0, -1.0, 1.5, -1.5, 2.0, 5.0, -5.0, 1.9999999, 5.0000001,
    0.75, 0.7500001, -0.75, 10.0, -10.0, 12.5, -12.5, 25.0, 3.4e38, 1e-31,
    float("nan"), float("inf"), float("-inf"),
]


@pytest.mark.parametrize("alpha", [1.0, 1.0000001, 2.0, 5.0, 1e30, float("inf")])
def test_range_set_contains_matches_scaled_ranges(alpha):
    """``RangeSet.contains`` scales bounds inline; it must answer, and
    raise, exactly as checking each ``ValueRange.scaled`` range does."""
    def reference(rs, value):
        if value != value or value in (float("inf"), float("-inf")):
            return False
        return any(r.scaled(rs.alpha).contains(value) for r in rs.ranges)

    sets = [[r] for r in CONTAINS_RANGES] + [
        CONTAINS_RANGES[:3], [CONTAINS_RANGES[1], CONTAINS_RANGES[5], CONTAINS_RANGES[0]], []]
    for ranges in sets:
        rs = RangeSet(ranges=list(ranges), alpha=alpha)
        for value in CONTAINS_VALUES:
            outcomes = []
            for check in (rs.contains, lambda v: reference(rs, v)):
                try:
                    outcomes.append(check(value))
                except ReproError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1], (ranges, alpha, value)


def test_range_set_contains_rejects_alpha_below_one():
    with pytest.raises(ReproError, match="alpha must be >= 1"):
        RangeSet(ranges=[ValueRange(0.0, 1.0)], alpha=0.5).contains(0.5)
    assert not RangeSet(alpha=0.5).contains(0.5)  # no range to scale


class TestValueRange:
    def test_contains(self):
        r = ValueRange(-2.0, 3.0)
        assert r.contains(0.0) and r.contains(-2.0) and r.contains(3.0)
        assert not r.contains(3.0001)
        assert not r.contains(float("nan"))

    def test_invalid(self):
        with pytest.raises(ReproError):
            ValueRange(2.0, 1.0)
        with pytest.raises(ReproError):
            ValueRange(float("nan"), 1.0)

    def test_widened(self):
        assert ValueRange(0.0, 1.0).widened(5.0) == ValueRange(0.0, 5.0)
        assert ValueRange(0.0, 1.0).widened(-5.0) == ValueRange(-5.0, 1.0)

    def test_scaled_loosens_positive(self):
        r = ValueRange(2.0, 10.0).scaled(10.0)
        assert r.lo == pytest.approx(0.2)
        assert r.hi == pytest.approx(100.0)

    def test_scaled_loosens_negative(self):
        r = ValueRange(-10.0, -2.0).scaled(10.0)
        assert r.lo == pytest.approx(-100.0)
        assert r.hi == pytest.approx(-0.2)

    def test_scaled_rejects_small_alpha(self):
        with pytest.raises(ReproError):
            ValueRange(0.0, 1.0).scaled(0.5)

    @given(finite_floats, finite_floats, st.floats(min_value=1.0, max_value=1e6))
    def test_scaling_only_grows(self, a, b, alpha):
        lo, hi = min(a, b), max(a, b)
        r = ValueRange(lo, hi)
        s = r.scaled(alpha)
        assert s.lo <= r.lo and s.hi >= r.hi

    def test_log_space_size(self):
        assert ValueRange(1.0, 100.0).log_space_size() == pytest.approx(2.0)
        assert ValueRange(-100.0, -1.0).log_space_size() == pytest.approx(2.0)
        assert ValueRange(5.0, 5.0).log_space_size() == 0.0
        assert ValueRange(-1.0, 1.0).log_space_size() > 70  # crosses zero


class TestRangeSet:
    def test_empty_admits_nothing(self):
        assert not RangeSet().contains(0.0)

    def test_contains_under_alpha(self):
        rs = RangeSet(ranges=[ValueRange(1.0, 2.0)])
        assert not rs.contains(5.0)
        assert rs.with_alpha(10.0).contains(5.0)
        assert not rs.with_alpha(10.0).contains(100.0)

    def test_never_contains_nonfinite(self):
        rs = RangeSet(ranges=[ValueRange(-1e30, 1e30)], alpha=100.0)
        assert not rs.contains(float("inf"))
        assert not rs.contains(float("nan"))

    def test_at_most_three_ranges(self):
        with pytest.raises(ReproError):
            RangeSet(ranges=[ValueRange(i, i) for i in range(4)])

    def test_learn_widens_nearest(self):
        rs = RangeSet(ranges=[ValueRange(1.0, 2.0)])
        rs2 = rs.learn(3.0)
        assert rs2.contains(2.5)

    def test_learn_opens_new_sign_class(self):
        rs = RangeSet(ranges=[ValueRange(1.0, 2.0)])
        rs2 = rs.learn(-5.0)
        assert len(rs2.ranges) == 2
        assert rs2.contains(-5.0)

    @given(st.lists(finite_floats, min_size=1, max_size=30))
    def test_learn_always_contains_learned(self, values):
        rs = RangeSet()
        for v in values:
            rs = rs.learn(v)
        for v in values:
            assert rs.contains(v)

    def test_merge_range_sets(self):
        a = RangeSet(ranges=[ValueRange(1.0, 2.0)])
        b = RangeSet(ranges=[ValueRange(-3.0, -1.0)])
        merged = merge_range_sets([a, b])
        assert merged.contains(1.5) and merged.contains(-2.0)


class TestProfilerAlgorithm:
    def test_three_correlation_points(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([
            rng.uniform(-200, -100, 50),
            rng.uniform(-1e-7, 1e-7, 50),
            rng.uniform(100, 200, 50),
        ])
        rs = learn_fp_ranges(samples)
        assert len(rs.ranges) == 3
        assert rs.contains(-150.0) and rs.contains(0.0) and rs.contains(150.0)
        assert not rs.contains(10.0)

    def test_threshold_search_shrinks_space(self):
        # two tight clusters around +/-1e3 and nothing near zero: a large
        # threshold (tau up from 1e-5) should keep the clusters separate
        samples = list(np.linspace(1000, 1100, 20)) + list(np.linspace(-1100, -1000, 20))
        rs = learn_fp_ranges(samples)
        assert not rs.contains(0.5)
        assert rs.contains(1050.0) and rs.contains(-1050.0)

    def test_ignores_nonfinite_samples(self):
        rs = learn_fp_ranges([1.0, float("nan"), float("inf"), 2.0])
        assert rs.contains(1.5)

    def test_empty(self):
        assert not learn_fp_ranges([]).is_trained
        assert not learn_int_ranges([]).is_trained

    def test_int_ranges(self):
        rs = learn_int_ranges([5, 6, 7, -3, -4, 0])
        assert rs.contains(6) and rs.contains(-3) and rs.contains(0)
        assert not rs.contains(100)


class TestRangeProfilerLibrary:
    def test_collect_and_finalize(self):
        prof = RangeProfiler()
        for v in (1.0, 2.0, 3.0):
            prof.lib_profile_range(None, {}, 0, v)
        prof.lib_profile_count(None, {}, 7)
        ranges = prof.finalize()
        assert ranges[0].contains(2.5)
        assert prof.site_counts[7] == 1

    def test_int_detector_detected(self):
        prof = RangeProfiler()
        prof.lib_profile_range(None, {}, 0, 5)
        assert not prof.profiles[0].is_float

    def test_merge_from(self):
        a, b = RangeProfiler(), RangeProfiler()
        a.lib_profile_range(None, {}, 0, 1.0)
        b.lib_profile_range(None, {}, 0, 100.0)
        b.lib_profile_range(None, {}, 1, -5.0)
        a.merge_from(b)
        assert len(a.profiles[0].samples) == 2
        assert 1 in a.profiles

    def test_merge_type_conflict(self):
        a, b = RangeProfiler(), RangeProfiler()
        a.lib_profile_range(None, {}, 0, 1.0)
        b.lib_profile_range(None, {}, 0, 5)
        with pytest.raises(ReproError):
            a.merge_from(b)
