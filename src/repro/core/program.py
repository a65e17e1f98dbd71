"""HauberkProgram — the CPU-side host program around one workload.

Owns the Figure 7 artifacts for a workload: the five instrumented
builds, the control block, the profiler state, and the launch plumbing
(memory setup, control-block device copies, output readback, failure
capture).  This is the layer campaigns, the recovery engine, and all
figure benches talk to.
"""

from __future__ import annotations

import enum
from dataclasses import astuple, dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.controlblock import ControlBlock
from repro.exec.cache import ephemeral_cache
from repro.core.ftlib import HauberkFTLibrary
from repro.core.profiler import RangeProfiler
from repro.core.translator import HauberkTranslator, InstrumentedKernel, TranslatorOptions
from repro.errors import GPUError, KernelCrash, KernelHang, ReproError
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime, LaunchResult
from repro.kir.interp.evalcore import InstrumentationLibrary
from repro.swifi.campaign import TrialObservation
from repro.swifi.faultmodel import FaultSpec
from repro.swifi.injector import FaultInjectionLibrary
from repro.workloads.base import GoldenRecord, Workload, WorkloadInput

#: Extra kernel-time cycles charged to any detector-carrying build for
#: shipping the control block CPU->GPU->CPU (the "common performance
#: overhead" shared by HAUBERK-NL and HAUBERK-L, Section IX.A).  Small
#: relative to kernel time — the block is "typically <10KB" (Section IX.A).
CONTROL_BLOCK_OVERHEAD_CYCLES = 60.0

#: Attribute on the kernel object caching instrumented builds keyed by
#: (mode, translator options).  Workloads share parsed kernels (see
#: ``Workload.kernel``), so repeated campaigns over the same
#: workload+mode — separate program instances included — skip the
#: translator entirely.  Safe to share because builds are immutable
#: after translation and the control block deep-copies detector
#: configs at ``configure`` time.
BUILD_CACHE_ATTR = "_hauberk_builds"


class RunStatus(enum.Enum):
    OK = "ok"
    CRASH = "crash"
    HANG = "hang"


@dataclass
class ProgramResult:
    """Outcome of one full program execution (one kernel launch)."""

    status: RunStatus
    mode: str
    output: Optional[np.ndarray] = None
    launch: Optional[LaunchResult] = None
    #: Snapshot of alarm state after host copy-back (empty on failure).
    alarm: bool = False
    sdc_bit: bool = False
    events: list = field(default_factory=list)
    failure_reason: str = ""
    #: FI activation record if a fault was armed and fired.
    activation: Optional[object] = None

    @property
    def kernel_time(self) -> float:
        if self.launch is None:
            return 0.0
        extra = 0.0 if self.mode in ("original", "fi") else CONTROL_BLOCK_OVERHEAD_CYCLES
        return self.launch.kernel_time + extra


class CombinedLibrary(InstrumentationLibrary):
    """Routes instrumentation calls to the first member that handles them."""

    def __init__(self, members: Sequence[InstrumentationLibrary]):
        self.members = list(members)

    def hook(self, func):
        for member in self.members:
            fn = member.hook(func)
            if fn is not None:
                return fn
        return None


class HauberkProgram:
    """One workload wired through the Hauberk framework."""

    def __init__(
        self,
        workload: Workload,
        device: Optional[Device] = None,
        options: Optional[TranslatorOptions] = None,
    ):
        self.workload = workload
        self.device = device if device is not None else Device()
        self.runtime = GPURuntime(self.device)
        self.translator = HauberkTranslator(options)
        self.builds: Dict[str, InstrumentedKernel] = {}
        self.cb = ControlBlock()
        self._configured = False
        #: seed -> golden campaign state, fixed across a campaign.
        self._trial_io: Dict[int, GoldenRecord] = {}

    # -- builds ---------------------------------------------------------
    def build(self, mode: str) -> InstrumentedKernel:
        if mode not in self.builds:
            kernel = self.workload.kernel
            cache = ephemeral_cache(kernel, BUILD_CACHE_ATTR)
            key = (mode, astuple(self.translator.options))
            build = cache.get(key)
            if build is None:
                build = self.translator.build(kernel, mode)
                cache[key] = build
            self.builds[mode] = build
            if mode in ("ft", "fift") and not self._configured:
                self.cb.configure(build.detector_configs)
                self._configured = True
        return self.builds[mode]

    # -- training (profiler runs) -------------------------------------------
    def train(self, seeds: Sequence[int], profiler: Optional[RangeProfiler] = None) -> RangeProfiler:
        """Run the profiler build on each training input; install ranges.

        Returns the profiler so callers can keep training incrementally
        (Figure 16 sweeps training-set counts this way).
        """
        prof = profiler if profiler is not None else RangeProfiler()
        build = self.build("profiler")
        for seed in seeds:
            inp = self.workload.generate_input(seed)
            args, handles = self.workload.setup_memory(self.device, inp)
            self.runtime.launch(
                build.kernel, inp.grid, inp.block, args,
                lib=prof, budget=self.workload.hang_budget,
            )
        self.install_ranges(prof)
        return prof

    def install_ranges(self, profiler: RangeProfiler) -> None:
        self.build("ft")  # ensure detector configs exist
        ranges = profiler.finalize()
        known = {d: r for d, r in ranges.items() if d in self.cb.detectors}
        self.cb.load_ranges(known)

    def set_alpha(self, alpha: float) -> None:
        """Loosen every trained detector bound by ``alpha`` (Section VI(iii)).

        ``cb.set_alpha_all`` after an ``ft`` build, so the detectors it
        loosens are configured.
        """
        self.build("ft")
        self.cb.set_alpha_all(alpha)

    # -- execution --------------------------------------------------------
    def run(
        self,
        mode: str = "ft",
        inp: Optional[WorkloadInput] = None,
        seed: int = 0,
        fault: Optional[FaultSpec] = None,
        budget: Optional[int] = None,
        device: Optional[Device] = None,
    ) -> ProgramResult:
        """Execute the program once in the given build mode."""
        if inp is None:
            inp = self.workload.generate_input(seed)
        device = device if device is not None else self.device
        runtime = self.runtime if device is self.device else GPURuntime(device)
        build = self.build(mode)
        lib = self._library_for(mode, fault)
        args, handles = self.workload.setup_memory(device, inp)

        result = ProgramResult(status=RunStatus.OK, mode=mode)
        try:
            launch = runtime.launch(
                build.kernel, inp.grid, inp.block, args,
                lib=lib, budget=budget if budget is not None else self.workload.hang_budget,
                hang_verdicts=fault is not None,
            )
            result.launch = launch
        except KernelHang as exc:
            result.status = RunStatus.HANG
            result.failure_reason = str(exc)
        except KernelCrash as exc:
            result.status = RunStatus.CRASH
            result.failure_reason = str(exc)

        if result.status is RunStatus.OK:
            result.output = self.workload.read_output(device, inp, handles)
            if mode in ("ft", "fift"):
                # successful completion: copy the control block back
                self.cb.copy_from_device(self._device_cb)
                result.alarm = self.cb.alarm_raised
                result.sdc_bit = self.cb.sdc_bit
                result.events = list(self.cb.events)
        if fault is not None and isinstance(lib, (FaultInjectionLibrary, CombinedLibrary)):
            fi = lib if isinstance(lib, FaultInjectionLibrary) else lib.members[-1]
            result.activation = fi.activation
        return result

    def _library_for(
        self, mode: str, fault: Optional[FaultSpec]
    ) -> Optional[InstrumentationLibrary]:
        if fault is not None and mode not in ("fi", "fift"):
            raise ReproError(f"mode {mode!r} has no FI hooks; cannot arm a fault")
        if mode == "original":
            return None
        if mode == "profiler":
            raise ReproError("use train() for profiler runs")
        if mode == "ft":
            self._device_cb = self.cb.copy_to_device()
            return HauberkFTLibrary(self._device_cb)
        if mode == "fi":
            return FaultInjectionLibrary(self.workload.kernel, fault)
        if mode == "fift":
            self._device_cb = self.cb.copy_to_device()
            ft = HauberkFTLibrary(self._device_cb)
            fi = FaultInjectionLibrary(self.workload.kernel, fault)
            return CombinedLibrary([ft, fi])
        raise ReproError(f"unknown mode {mode!r}")

    # -- campaign integration ------------------------------------------------
    def golden_record(self, seed: int = 0) -> GoldenRecord:
        """The per-seed golden campaign state (input, golden, exec caches).

        Cached per program so repeated campaigns over the same workload
        (figure sweeps re-running per fault class / bit count / alpha)
        pay for input generation and the golden run once.  The record
        also carries the differential engines memoized for this seed
        (see :mod:`repro.swifi.differential`).
        """
        record = self._trial_io.get(seed)
        if record is None:
            inp = self.workload.generate_input(seed)
            golden = self.workload.golden(inp)
            record = GoldenRecord(inp=inp, golden=golden,
                                  output_ok=self.workload.spec.checker(golden))
            self._trial_io[seed] = record
        return record

    def campaign_io(self, seed: int = 0) -> Tuple[WorkloadInput, np.ndarray]:
        """The fixed (input, golden output) pair for campaigns on ``seed``."""
        record = self.golden_record(seed)
        return record.inp, record.golden

    def trial_runner(self, mode: str, seed: int = 0):
        """A ``Campaign``-compatible runner for FI experiments.

        The input (and its golden output) is fixed across the campaign;
        each call runs the whole program once with the given fault.
        """
        record = self.golden_record(seed)
        inp, output_ok = record.inp, record.output_ok
        run_mode = mode

        def runner(spec: Optional[FaultSpec]) -> TrialObservation:
            if spec is None:
                result = self.run(mode="original", inp=inp)
                detected = False
            else:
                result = self.run(mode=run_mode, inp=inp, fault=spec)
                detected = result.alarm if run_mode == "fift" else False
            failure = result.status is not RunStatus.OK
            ok = (
                not failure
                and result.output is not None
                and output_ok(result.output)
            )
            activated = bool(result.activation) or spec is None
            return TrialObservation(
                failure=failure,
                detected=detected,
                output_ok=ok,
                activated=activated,
                note=result.failure_reason,
            )

        return runner

    # -- performance measurement (Figure 13) -----------------------------------
    def measure_time(self, mode: str, inp: Optional[WorkloadInput] = None, seed: int = 0) -> float:
        """Modeled kernel time of one run in the given mode."""
        result = self.run(mode=mode, inp=inp, seed=seed)
        if result.status is not RunStatus.OK:
            raise GPUError(
                f"{self.workload.name} {mode} run failed: {result.failure_reason}"
            )
        return result.kernel_time
