"""Error diagnosis and tolerance (Figure 11) plus alpha recalibration.

The recovery engine consumes one executed run of an FT-instrumented
program and drives the paper's flowchart:

* kernel failure -> guardian restart path (repeat -> BIST -> disable /
  migrate);
* no alarm -> use the output;
* SDC alarm -> reexecute for diagnosis:
    - reexecution clean            -> transient fault; take the retry;
    - alarm again, outputs match   -> false positive; store the updated
      (learned) ranges — the on-line learning step;
    - alarm again, outputs differ  -> BIST; fail -> disable + migrate
      and rerun there; pass -> unsupported software error.

"Identical" outputs mean exact equality for deterministic programs and
agreement within *twice* the output-correctness requirement otherwise
(the paper's conservative rule, Section VI(ii.a)).

:class:`AlphaController` implements Section VI(iii): false-positive
ratio above 10% multiplies alpha by 10; below 5% divides it by 10
down to 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from repro.core.bist import run_bist
from repro.core.checkpoint import Checkpoint
from repro.core.program import HauberkProgram, ProgramResult, RunStatus
from repro.errors import RecoveryError, UnsupportedSoftwareError
from repro.gpu.cluster import GPUNode
from repro.obs.instrument import record_alpha_adjustment
from repro.swifi.faultmodel import FaultSpec
from repro.workloads.base import WorkloadInput
from repro.workloads.spec import ToleranceSpec


@dataclass
class DiagnosisResult:
    """Terminal state of one pass through the Figure 11 flowchart."""

    verdict: str  # clean | false_alarm | transient_sdc | hardware_fault | ...
    output: Optional[np.ndarray]
    runs: int
    migrated: bool = False
    ranges_updated: bool = False
    restarts: int = 0


class AlphaController:
    """Adaptive multiplication factor for range bounds (Section VI(iii))."""

    def __init__(self, high: float = 0.10, low: float = 0.05, factor: float = 10.0):
        if not 0 <= low <= high <= 1:
            raise RecoveryError(f"invalid thresholds low={low} high={high}")
        self.high = high
        self.low = low
        self.factor = factor

    def adjust(self, alpha: float, false_positive_ratio: float) -> float:
        if false_positive_ratio > self.high:
            return alpha * self.factor
        if false_positive_ratio < self.low and alpha > 1.0:
            return max(1.0, alpha / self.factor)
        return alpha


class FalsePositiveMonitor:
    """Sliding tally of alarm dispositions feeding the alpha controller."""

    def __init__(self, window: int = 50):
        if window <= 0:
            raise RecoveryError(f"window must be positive, got {window}")
        self.window = window
        self._history: List[bool] = []  # True = alarm was a false positive

    def record(self, was_false_positive: bool) -> None:
        self._history.append(was_false_positive)
        if len(self._history) > self.window:
            self._history.pop(0)

    def reset(self) -> None:
        """Forget history (after an alpha change the old statistics
        describe a detector that no longer exists)."""
        self._history.clear()

    @property
    def ratio(self) -> float:
        if not self._history:
            return 0.0
        return sum(self._history) / len(self._history)


class DeviceCheckpointer:
    """CheCUDA-style device checkpointing for :meth:`Guardian.supervise`.

    Bundles the ``checkpoint_fn`` / ``restore_fn`` pair the guardian
    accepts: :meth:`checkpoint` captures the program's whole device
    memory as one raw-bits snapshot (plus any registered host extras,
    e.g. the control block), and :meth:`restore` writes it back before
    a restart, so recovery resumes from the last kernel boundary
    instead of re-running host setup.  Snapshot and restore are each a
    single vectorized ``uint32`` copy of the allocated words — cheap
    enough to take before every launch.
    """

    def __init__(self, program: HauberkProgram, extra_fn: Optional[Callable] = None):
        self.program = program
        #: Optional zero-arg callable returning a dict of extra host
        #: state to deep-copy into each checkpoint.
        self.extra_fn = extra_fn
        self._count = 0

    def checkpoint(self) -> Checkpoint:
        self._count += 1
        return Checkpoint.capture(
            tag=f"kernel-boundary-{self._count}",
            extra=self.extra_fn() if self.extra_fn is not None else None,
            memory=self.program.device.memory,
        )

    def restore(self, checkpoint: Checkpoint) -> None:
        checkpoint.restore_device(self.program.device.memory)


class RecoveryEngine:
    """Drives diagnosis re-executions for one Hauberk program."""

    def __init__(
        self,
        program: HauberkProgram,
        node: Optional[GPUNode] = None,
        bist: Callable = run_bist,
        deterministic: bool = True,
        max_failure_restarts: int = 2,
    ):
        self.program = program
        self.node = node
        self.bist = bist
        self.deterministic = deterministic
        self.max_failure_restarts = max_failure_restarts
        self.monitor = FalsePositiveMonitor()
        self.alpha_controller = AlphaController()

    # -- output identity -----------------------------------------------------
    def outputs_identical(self, a: np.ndarray, b: np.ndarray) -> bool:
        if a is None or b is None or a.shape != b.shape:
            return False
        if self.deterministic:
            return bool(np.array_equal(a, b))
        spec = self.program.workload.spec
        doubled = ToleranceSpec(
            abs_const=2 * spec.abs_const,
            rel=2 * spec.rel,
            global_rel=2 * spec.global_rel,
            mode=spec.mode,
        )
        return doubled.check(a, b)

    # -- the flowchart ----------------------------------------------------------
    def execute(
        self,
        inp: WorkloadInput,
        fault_source: Callable[[int], Optional[FaultSpec]] = lambda i: None,
        mode: str = "fift",
    ) -> DiagnosisResult:
        """Run with recovery; ``fault_source(run_index)`` arms each run.

        Transient faults return a spec for run 0 only; intermittent or
        permanent hardware faults keep returning specs — which is how
        the three Figure 11 right-branch verdicts separate.
        """
        runs = 0
        restarts = 0
        migrated = False

        def attempt() -> ProgramResult:
            nonlocal runs
            fault = fault_source(runs)
            use_mode = mode if fault is not None else (
                "ft" if mode == "fift" else mode
            )
            result = self.program.run(mode=use_mode, inp=inp, fault=fault)
            runs += 1
            return result

        first = attempt()
        # ---- failure path ----------------------------------------------
        while first.status is not RunStatus.OK:
            restarts += 1
            if restarts > self.max_failure_restarts:
                if not self.bist(self.program.device):
                    migrated = self._migrate()
                    first = attempt()
                    restarts = 0
                    continue
                raise UnsupportedSoftwareError(
                    "repeated failures on a device that passes BIST"
                )
            first = attempt()

        if not first.alarm:
            # an alarm-free run is evidence the detectors are calibrated;
            # without this, one false positive would pin the monitored
            # ratio at 1.0 and the alpha controller would run away until
            # real faults slip through (the paper's alpha=10,000 regime)
            self.monitor.record(False)
            return DiagnosisResult(
                verdict="clean", output=first.output, runs=runs, restarts=restarts,
                migrated=migrated,
            )

        # ---- SDC alarm: diagnose by reexecution -----------------------------
        second = attempt()
        if second.status is not RunStatus.OK:
            # the retry failed outright: treat as the failure path
            if not self.bist(self.program.device):
                migrated = self._migrate()
                final = attempt()
                return DiagnosisResult(
                    verdict="hardware_fault", output=final.output, runs=runs,
                    migrated=migrated, restarts=restarts,
                )
            raise UnsupportedSoftwareError("diagnosis reexecution failed on healthy GPU")

        if not second.alarm:
            # transient / short intermittent fault: take the retry's output
            self.monitor.record(False)
            return DiagnosisResult(
                verdict="transient_sdc", output=second.output, runs=runs,
                restarts=restarts, migrated=migrated,
            )

        if self.outputs_identical(first.output, second.output):
            # false alarm: keep the output, store the learned ranges
            self.monitor.record(True)
            self._apply_updated_ranges()
            return DiagnosisResult(
                verdict="false_alarm", output=first.output, runs=runs,
                ranges_updated=True, restarts=restarts, migrated=migrated,
            )

        # alarm twice with diverging outputs: suspect the hardware
        self.monitor.record(False)
        if not self.bist(self.program.device):
            migrated = self._migrate()
            final = attempt()
            return DiagnosisResult(
                verdict="hardware_fault", output=final.output, runs=runs,
                migrated=migrated, restarts=restarts,
            )
        raise UnsupportedSoftwareError(
            "outputs diverge under alarms but the device passes BIST "
            "(buggy or nondeterministic software)"
        )

    # -- helpers ---------------------------------------------------------------
    def _migrate(self) -> bool:
        if self.node is None:
            raise RecoveryError("hardware fault diagnosed but no node to migrate in")
        replacement = self.node.migrate_from(self.program.device)
        self.program.device = replacement
        from repro.gpu.runtime import GPURuntime

        self.program.runtime = GPURuntime(replacement)
        return True

    def _apply_updated_ranges(self) -> None:
        """On-line learning: fold detector-proposed ranges into the config."""
        for det, ranges in self.program.cb.updated_ranges.items():
            if det in self.program.cb.detectors:
                self.program.cb.detectors[det].ranges = ranges

    def recalibrate_alpha(self) -> float:
        """Apply the alpha controller to all detectors; returns new alpha."""
        detectors = self.program.cb.detectors
        if not detectors:
            return 1.0
        current = max((d.ranges.alpha for d in detectors.values()), default=1.0)
        new_alpha = self.alpha_controller.adjust(current, self.monitor.ratio)
        record_alpha_adjustment(current, new_alpha)
        if new_alpha != current:
            self.program.cb.set_alpha_all(new_alpha)
            self.monitor.reset()  # measure afresh under the new bounds
        return new_alpha
