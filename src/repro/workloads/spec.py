"""Output-correctness requirements (paper Section IX.B).

Each program declares a per-element tolerance against the golden run;
an output violating it is an SDC if undetected.  The paper quotes:

* SAD — an integer program, "does not allow value errors";
* PNS — ``Max{0.01, 1% |GR_i|}``;
* RPES — ``2% |GR_i| + 1e-9``;
* MRI-Q — ``Max{1e-4 Max{|GR|}, 0.2% |GR_i|}``;

and the Section I example treats ">1% of value error in any output
element" as SDC, which the remaining FP programs use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import WorkloadError


@dataclass(frozen=True)
class ToleranceSpec:
    """Per-element tolerance: combine abs / rel / global-rel terms.

    ``mode='max'`` takes the maximum of the three terms (PNS, MRI-Q
    style); ``mode='sum'`` adds them (RPES style).  All terms zero
    means bit-exact comparison (SAD).
    """

    abs_const: float = 0.0
    rel: float = 0.0
    #: Fraction of max(|golden|) admitted everywhere (MRI-Q's 1e-4 term).
    global_rel: float = 0.0
    mode: str = "max"

    def __post_init__(self) -> None:
        if self.mode not in ("max", "sum"):
            raise WorkloadError(f"unknown tolerance mode {self.mode!r}")
        if min(self.abs_const, self.rel, self.global_rel) < 0:
            raise WorkloadError("tolerance terms must be non-negative")

    def tolerance(self, golden: np.ndarray) -> np.ndarray:
        g = np.abs(np.asarray(golden, dtype=np.float64))
        global_term = self.global_rel * (g.max() if g.size else 0.0)
        if self.mode == "max":
            return np.maximum(np.maximum(self.abs_const, self.rel * g), global_term)
        return self.abs_const + self.rel * g + global_term

    def check(self, output: np.ndarray, golden: np.ndarray) -> bool:
        """True when the output meets the correctness requirement."""
        return self.checker(golden)(output)

    def checker(self, golden: np.ndarray) -> Callable[[np.ndarray], bool]:
        """:meth:`check` against a fixed golden, whose tolerance array is
        computed once: a campaign checks every trial's output against
        the same golden."""
        gold = np.asarray(golden, dtype=np.float64)
        exact = self.abs_const == self.rel == self.global_rel == 0.0
        tolerance = None if exact else self.tolerance(gold)

        def check(output: np.ndarray) -> bool:
            out = np.asarray(output, dtype=np.float64)
            if out.shape != gold.shape or not np.isfinite(out).all():
                return False
            if exact:
                return bool(np.array_equal(out, gold))
            return bool((np.abs(out - gold) <= tolerance).all())

        return check

    def violations(self, output: np.ndarray, golden: np.ndarray) -> int:
        """Number of out-of-tolerance elements (diagnostics)."""
        out = np.asarray(output, dtype=np.float64)
        gold = np.asarray(golden, dtype=np.float64)
        if out.shape != gold.shape:
            return max(out.size, gold.size)
        bad = ~np.isfinite(out) | (np.abs(out - gold) > self.tolerance(gold))
        return int(bad.sum())


def exact_spec() -> ToleranceSpec:
    """Bit-exact requirement (SAD)."""
    return ToleranceSpec()


def percent_spec(rel: float = 0.01) -> ToleranceSpec:
    """The Section I default: rel% per element."""
    return ToleranceSpec(rel=rel, abs_const=1e-9, mode="sum")


PNS_SPEC = ToleranceSpec(abs_const=0.01, rel=0.01, mode="max")
RPES_SPEC = ToleranceSpec(abs_const=1e-9, rel=0.02, mode="sum")
MRIQ_SPEC = ToleranceSpec(rel=0.002, global_rel=1e-4, mode="max")
