"""Perceptual SDC metric for graphics outputs (Section II.A).

Graphics programs tolerate value errors HPC programs cannot: "graphics
program has a high frame rate (e.g. 30fps) and a transient fault
typically makes a small change in just one frame".  A corruption is
*user-noticeable* when enough pixels deviate visibly after 8-bit
quantization — a handful of corrupted pixels in one frame is not an
SDC, a 10,000-value stripe is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.spec import OutputCheck


@dataclass
class FrameStats:
    """Deviation statistics of a rendered frame vs. the golden frame."""

    n_pixels: int
    corrupted_pixels: int
    max_deviation_levels: float
    corrupted_fraction: float


def frame_corruption_stats(
    frame: np.ndarray, golden: np.ndarray, min_levels: float = 2.0
) -> FrameStats:
    """Count pixels deviating by at least ``min_levels`` 8-bit levels.

    Frames are intensity arrays in [0, 1]; non-finite pixels count as
    maximally corrupted.
    """
    f = np.asarray(frame, dtype=np.float64).reshape(-1)
    g = np.asarray(golden, dtype=np.float64).reshape(-1)
    if f.shape != g.shape:
        return FrameStats(
            n_pixels=g.size, corrupted_pixels=g.size,
            max_deviation_levels=255.0, corrupted_fraction=1.0,
        )
    q = lambda x: np.clip(np.nan_to_num(x, nan=2.0, posinf=2.0, neginf=-2.0), -1.0, 2.0) * 255.0  # noqa: E731
    dev = np.abs(q(f) - q(g))
    dev[~np.isfinite(f)] = 255.0
    bad = int((dev >= min_levels).sum())
    return FrameStats(
        n_pixels=g.size,
        corrupted_pixels=bad,
        max_deviation_levels=float(dev.max()) if dev.size else 0.0,
        corrupted_fraction=bad / g.size if g.size else 0.0,
    )


@dataclass(frozen=True)
class PerceptualSpec:
    """Output-correctness requirement of graphics programs.

    A frame passes unless the corrupted-pixel fraction reaches
    ``noticeable_fraction`` — single-pixel transients pass (no SDC),
    stripe patterns from intermittent faults fail.
    """

    noticeable_fraction: float = 0.005
    min_levels: float = 2.0

    def check(self, output: np.ndarray, golden: np.ndarray) -> bool:
        stats = frame_corruption_stats(output, golden, self.min_levels)
        return stats.corrupted_fraction < self.noticeable_fraction

    def checker(self, golden: np.ndarray) -> "PerceptualCheck":
        """:meth:`check` against a fixed golden, as
        :meth:`ToleranceSpec.checker <repro.workloads.spec.ToleranceSpec.checker>`."""
        return PerceptualCheck(self, golden)

    def violations(self, output: np.ndarray, golden: np.ndarray) -> int:
        return frame_corruption_stats(output, golden, self.min_levels).corrupted_pixels


class PerceptualCheck(OutputCheck):
    """:meth:`PerceptualSpec.check` against a fixed golden.

    The corrupted-pixel fraction counts the whole frame, so
    :meth:`~repro.workloads.spec.OutputCheck.check_changed` keeps its
    patch-and-check form.
    """

    def __init__(self, spec: PerceptualSpec, golden: np.ndarray):
        self.spec = spec
        self.golden = golden

    def __call__(self, output: np.ndarray) -> bool:
        return self.spec.check(output, self.golden)
