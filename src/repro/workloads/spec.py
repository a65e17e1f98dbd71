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

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

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

    def checker(self, golden: np.ndarray) -> "ToleranceCheck":
        """:meth:`check` against a fixed golden, whose tolerance array is
        computed once: a campaign checks every trial's output against
        the same golden."""
        return ToleranceCheck(self, golden)

    def violations(self, output: np.ndarray, golden: np.ndarray) -> int:
        """Number of out-of-tolerance elements (diagnostics)."""
        out = np.asarray(output, dtype=np.float64)
        gold = np.asarray(golden, dtype=np.float64)
        if out.shape != gold.shape:
            return max(out.size, gold.size)
        bad = ~np.isfinite(out) | (np.abs(out - gold) > self.tolerance(gold))
        return int(bad.sum())


class OutputCheck:
    """A spec's check of outputs against one fixed golden output.

    Calling it checks a whole output.  :meth:`check_changed` checks an
    output that equals a known ``base`` except at some elements: the
    differential engine knows which output words a replayed thread can
    have changed, so it need not read the rest back.
    """

    def __call__(self, output: np.ndarray) -> bool:
        raise NotImplementedError

    def check_changed(self, base: np.ndarray, base_ok: bool,
                      idx: Sequence[int], values: Sequence[float]) -> bool:
        """``self(out)`` for ``out``, ``base`` with ``out[idx] = values``.

        ``base_ok`` must be ``self(base)``.  This form patches a copy of
        ``base`` and checks it whole.
        """
        out = base.copy()
        out[list(idx)] = values
        return self(out)


class ToleranceCheck(OutputCheck):
    """:meth:`ToleranceSpec.check` against a fixed golden."""

    def __init__(self, spec: ToleranceSpec, golden: np.ndarray):
        self.gold = np.asarray(golden, dtype=np.float64)
        self.exact = spec.abs_const == spec.rel == spec.global_rel == 0.0
        self.tolerance = None if self.exact else spec.tolerance(self.gold)
        #: ``gold`` and ``tolerance`` as Python floats, for
        #: :meth:`check_changed`; built on its first call.
        self._lists: Optional[tuple] = None

    def __call__(self, output: np.ndarray) -> bool:
        gold = self.gold
        out = np.asarray(output, dtype=np.float64)
        if out.shape != gold.shape or not np.isfinite(out).all():
            return False
        if self.exact:
            return bool(np.array_equal(out, gold))
        return bool((np.abs(out - gold) <= self.tolerance).all())

    def check_changed(self, base: np.ndarray, base_ok: bool,
                      idx: Sequence[int], values: Sequence[float]) -> bool:
        """The requirement is per element, so when ``base`` passes only
        the changed elements need checking, each as ``__call__`` would
        (finite, then within its tolerance, or equal when exact)."""
        if not base_ok:
            return super().check_changed(base, base_ok, idx, values)
        if self._lists is None:
            tol: List[float] = ([] if self.exact
                                else self.tolerance.reshape(-1).tolist())
            self._lists = (self.gold.reshape(-1).tolist(), tol)
        gold, tol = self._lists
        isfinite = math.isfinite
        for i, value in zip(idx, values):
            if not isfinite(value):
                return False
            if self.exact:
                if value != gold[i]:
                    return False
            elif not abs(value - gold[i]) <= tol[i]:
                return False
        return True


def exact_spec() -> ToleranceSpec:
    """Bit-exact requirement (SAD)."""
    return ToleranceSpec()


def percent_spec(rel: float = 0.01) -> ToleranceSpec:
    """The Section I default: rel% per element."""
    return ToleranceSpec(rel=rel, abs_const=1e-9, mode="sum")


PNS_SPEC = ToleranceSpec(abs_const=0.01, rel=0.01, mode="max")
RPES_SPEC = ToleranceSpec(abs_const=1e-9, rel=0.02, mode="sum")
MRIQ_SPEC = ToleranceSpec(rel=0.002, global_rel=1e-4, mode="max")
