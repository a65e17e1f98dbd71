"""Value ranges for the loop detector, with alpha recalibration.

An FP variable typically clusters around up to *three correlation
points* — one negative, one near zero, one positive (Figure 10) — so a
detector's learned state is a :class:`RangeSet` of at most three
:class:`ValueRange` intervals.  The recovery engine loosens or
tightens bounds with a multiplicative *alpha* (Section VI(iii)): "the
maximum value of each value range is multiplied by alpha, and the
minimum value of each value range is divided by alpha if these maximum
and minimum values are positive numbers".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

from repro.errors import ReproError


@dataclass(frozen=True)
class ValueRange:
    """Closed interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ReproError("NaN range bound")
        if self.lo > self.hi:
            raise ReproError(f"inverted range [{self.lo}, {self.hi}]")

    def contains(self, value: float) -> bool:
        if value != value:  # NaN is never inside any range
            return False
        return self.lo <= value <= self.hi

    def widened(self, value: float) -> "ValueRange":
        """Smallest range containing both this range and ``value``."""
        return ValueRange(min(self.lo, value), max(self.hi, value))

    def scaled(self, alpha: float) -> "ValueRange":
        """Loosen bounds by alpha (paper Section VI(iii)).

        Each bound moves *away* from zero (or toward it, for the inner
        bound) so the interval only grows for alpha >= 1.
        """
        if alpha < 1.0:
            raise ReproError(f"alpha must be >= 1, got {alpha}")
        hi = self.hi * alpha if self.hi > 0 else self.hi / alpha
        lo = self.lo / alpha if self.lo > 0 else self.lo * alpha
        return ValueRange(lo, hi)

    def log_space_size(self) -> float:
        """Decade span of the interval (the profiler's 'value space').

        Measures how much of the FP value space the range admits;
        zero-crossing ranges count both magnitude spans down to the
        smallest normal.
        """
        tiny = 1e-38  # smallest normal binary32 magnitude
        lo, hi = self.lo, self.hi
        if lo == hi:
            return 0.0
        if lo >= 0:
            return math.log10(max(hi, tiny) / max(lo, tiny))
        if hi <= 0:
            return math.log10(max(-lo, tiny) / max(-hi, tiny))
        return math.log10(max(hi, tiny) / tiny) + math.log10(max(-lo, tiny) / tiny)


@dataclass
class RangeSet:
    """Up to three correlation-point ranges plus the alpha multiplier."""

    ranges: List[ValueRange] = field(default_factory=list)
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if len(self.ranges) > 3:
            raise ReproError(f"at most 3 correlation points, got {len(self.ranges)}")

    def contains(self, value: float) -> bool:
        """Membership under the current alpha-scaled bounds.

        An empty range set admits nothing (an unprofiled detector
        always alarms, prompting on-line learning).
        """
        if value != value or math.isinf(value) or not self.ranges:
            return False
        alpha = self.alpha
        if alpha < 1.0:
            raise ReproError(f"alpha must be >= 1, got {alpha}")
        for r in self.ranges:
            # ValueRange.scaled's bounds, without building the range
            hi = r.hi * alpha if r.hi > 0 else r.hi / alpha
            lo = r.lo / alpha if r.lo > 0 else r.lo * alpha
            if lo != lo or hi != hi:
                raise ReproError("NaN range bound")
            if lo <= value <= hi:
                return True
        return False

    def learn(self, value: float) -> "RangeSet":
        """Absorb an observed-legitimate value (on-line learning).

        The nearest range widens; if there are fewer than three ranges
        and the value is far from all of them, a new point range is
        opened instead.
        """
        if value != value or math.isinf(value):
            return self
        if not self.ranges:
            return RangeSet(ranges=[ValueRange(value, value)], alpha=self.alpha)
        distances = [
            0.0 if r.contains(value) else min(abs(value - r.lo), abs(value - r.hi))
            for r in self.ranges
        ]
        nearest = distances.index(min(distances))
        if len(self.ranges) < 3 and min(distances) > 0:
            # open a new correlation point when the value is in a
            # different sign class than every existing range
            sign_classes = {_sign_class(r.lo) for r in self.ranges} | {
                _sign_class(r.hi) for r in self.ranges
            }
            if _sign_class(value) not in sign_classes:
                new = self.ranges + [ValueRange(value, value)]
                new.sort(key=lambda r: r.lo)
                return RangeSet(ranges=new, alpha=self.alpha)
        new = list(self.ranges)
        new[nearest] = new[nearest].widened(value)
        return RangeSet(ranges=new, alpha=self.alpha)

    def with_alpha(self, alpha: float) -> "RangeSet":
        return RangeSet(ranges=list(self.ranges), alpha=alpha)

    def total_log_space(self) -> float:
        return sum(r.log_space_size() for r in self.ranges)

    @property
    def is_trained(self) -> bool:
        return bool(self.ranges)


def _sign_class(value: float, zero_band: float = 1e-5) -> int:
    """-1 / 0 / +1 classification used when opening correlation points."""
    if abs(value) <= zero_band:
        return 0
    return 1 if value > 0 else -1


def merge_range_sets(sets: Iterable[RangeSet]) -> RangeSet:
    """Union of several learned range sets (multi-training-set merge)."""
    merged: Optional[RangeSet] = None
    for rs in sets:
        if merged is None:
            merged = RangeSet(ranges=list(rs.ranges), alpha=rs.alpha)
            continue
        for r in rs.ranges:
            merged = merged.learn(r.lo)
            merged = merged.learn(r.hi)
    return merged if merged is not None else RangeSet()
