"""Figure 15 — FP value-change magnitude vs original range x error bits.

The paper flips 1/3/6/10/15 random bits in 33 million random FP
samples grouped by original magnitude, and buckets the resulting value
*change*: as the bit count grows, the ">1E+15" bucket dominates
regardless of the original range — the property that makes loose
(alpha-scaled) range detectors still effective.  Fully vectorized with
``repro.bits.flip_f32_array``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.bits import flip_f32_array
from repro.bits.masks import MAGNITUDE_BUCKETS
from repro.harness.config import BENCH, ExperimentScale
from repro.harness.reporting import pct, print_table

#: Original-value magnitude ranges of the paper's x-axis.
ORIGINAL_RANGES: Tuple[Tuple[str, float, float], ...] = (
    ("1E-38~1E-15", 1e-38, 1e-15),
    ("1E-15~1E-3", 1e-15, 1e-3),
    ("1E-3~1E+3", 1e-3, 1e3),
    ("1E+3~1E+15", 1e3, 1e15),
    ("1E+15~1E+45", 1e15, 3.4e38),
)

BIT_COUNTS = (1, 3, 6, 10, 15)


@dataclass
class Fig15Result:
    #: (range label, bits) -> {change bucket label: fraction}
    cells: Dict[Tuple[str, int], Dict[str, float]] = field(default_factory=dict)

    def huge_change_fraction(self, range_label: str, bits: int) -> float:
        return self.cells[(range_label, bits)].get(">1E+15", 0.0)


def _random_masks(rng: np.random.Generator, n: int, bits: int) -> np.ndarray:
    """n random uint32 masks with exactly ``bits`` set bits, vectorized."""
    # sample bit positions without replacement via argsort of random keys
    keys = rng.random((n, 32))
    positions = np.argsort(keys, axis=1)[:, :bits]
    masks = np.zeros(n, dtype=np.uint64)
    for c in range(bits):
        masks |= np.uint64(1) << positions[:, c].astype(np.uint64)
    return masks.astype(np.uint32)


def run_fig15(scale: ExperimentScale = BENCH) -> Fig15Result:
    rng = np.random.default_rng(scale.seed + 15)
    n = scale.fig15_samples
    result = Fig15Result()
    bucket_edges = np.array([b[1] for b in MAGNITUDE_BUCKETS[1:]])
    labels = [b[0] for b in MAGNITUDE_BUCKETS]
    for range_label, lo, hi in ORIGINAL_RANGES:
        exponents = rng.uniform(np.log10(lo), np.log10(hi), n)
        signs = rng.choice([-1.0, 1.0], n)
        originals = (signs * 10.0 ** exponents).astype(np.float32)
        for bits in BIT_COUNTS:
            masks = _random_masks(rng, n, bits)
            corrupted = flip_f32_array(originals, masks)
            # widening a signalling NaN raises the invalid flag: expected here
            with np.errstate(invalid="ignore"):
                delta = np.abs(corrupted.astype(np.float64) - originals.astype(np.float64))
            # NaN/inf excursions land in the top bucket
            delta = np.where(np.isfinite(delta), delta, np.inf)
            idx = np.searchsorted(bucket_edges, delta, side="right")
            fractions = np.bincount(idx, minlength=len(labels)) / n
            result.cells[(range_label, bits)] = {
                labels[i]: float(fractions[i]) for i in range(len(labels))
            }
    return result


def print_fig15(result: Fig15Result) -> None:
    rows: List = []
    for (range_label, bits), dist in result.cells.items():
        rows.append(
            (
                range_label,
                bits,
                pct(dist.get(">1E+15", 0.0)),
                pct(dist.get("1E+9~1E+15", 0.0)),
                pct(dist.get("1E+3~1E+6", 0.0) + dist.get("1E+6~1E+9", 0.0)),
                pct(dist.get("1E-3~1E+3", 0.0)),
                pct(sum(v for k, v in dist.items()
                        if k in ("<1E-15", "1E-15~1E-9", "1E-9~1E-6", "1E-6~1E-3"))),
            )
        )
    print_table(
        "Figure 15 - magnitude of value change after fault",
        ["original range", "bits", ">1E15", "1E9-1E15", "1E3-1E9", "1E-3-1E3", "<1E-3"],
        rows,
    )
