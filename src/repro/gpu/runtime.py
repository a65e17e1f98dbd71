"""Kernel launch machinery: grids, frames, watchdog, timing.

``GPURuntime.launch`` plays the role of ``cudaLaunchKernel`` plus the
surrounding measurement harness: it executes every thread of the grid
(compiled scalar engine, or lockstep for barrier kernels), detects crashes
and hangs the way the GPU runtime + guardian watchdog do in the paper,
and converts accumulated thread-cycles into a kernel time via the
device's parallel width and register-spill factor.

``GPURuntime(engine="lockstep")`` runs every kernel on the lockstep
interpreter instead: the reference the compiled engine's parity tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.errors import CompileError, KernelCrash, KernelHang, LaunchError
from repro.exec.cache import ephemeral_cache
from repro.gpu.costmodel import CostModel
from repro.gpu.device import Device
from repro.gpu.memory import Allocation
from repro.kir.analysis.liveness import register_pressure
from repro.kir.astnodes import Kernel
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.obs.events import get_tracer
from repro.obs.instrument import (
    record_hang_verdict,
    record_launch,
    record_launch_failure,
)

Dim = Union[int, Tuple[int, int]]

#: GT200 hardware limit.
MAX_THREADS_PER_BLOCK = 512

#: Attribute on the kernel object holding its compiled-program cache.
#: Living on the kernel (instead of a runtime-side ``id()``-keyed dict)
#: means the cache dies with the kernel — no global registry pinning
#: kernels alive, and no recycled-``id`` staleness.  The cache resets
#: across ``Kernel.clone()`` and pickling (see ``repro.exec.cache``).
PREPARED_CACHE_ATTR = "_hauberk_prepared"

#: Sibling cache for a forced lockstep program (same lifetime rules as
#: ``PREPARED_CACHE_ATTR``).
LOCKSTEP_CACHE_ATTR = "_hauberk_lockstep"

#: Engine-selection seam.  ``closure`` (the default) runs kernels
#: compiled to generated Python functions (``repro.kir.interp.codegen``),
#: and lockstep for barrier kernels; ``lockstep``
#: forces the lockstep interpreter for every kernel (the reference the
#: parity tests compare against).
ENGINE_CLOSURE = "closure"
ENGINE_LOCKSTEP = "lockstep"
ENGINES = (ENGINE_CLOSURE, ENGINE_LOCKSTEP)


def _normalize_dim(dim: Dim, what: str) -> Tuple[int, int]:
    if isinstance(dim, int):
        dim = (dim, 1)
    x, y = dim
    if x <= 0 or y <= 0:
        raise LaunchError(f"invalid {what} dimensions {dim}")
    return x, y


@dataclass
class LaunchResult:
    """Outcome of one successful kernel launch."""

    kernel_name: str
    n_threads: int
    #: Sum of per-thread cycles over the whole grid.
    total_cycles: float
    #: Portion of total_cycles spent inside loops (Figure 4 numerator).
    loop_cycles: float
    #: Modeled kernel wall time in cycles: total/lanes x spill factor.
    kernel_time: float
    register_pressure: int
    spill_factor: float
    #: Largest per-thread statement count seen (guardian hang baseline).
    max_thread_steps: int = 0

    @property
    def loop_fraction(self) -> float:
        """Fraction of GPU execution time spent in loops (Figure 4)."""
        if self.total_cycles == 0:
            return 0.0
        return self.loop_cycles / self.total_cycles


class GPURuntime:
    """Launches KIR kernels on one simulated device."""

    def __init__(
        self,
        device: Optional[Device] = None,
        costmodel: Optional[CostModel] = None,
        engine: Optional[str] = None,
    ):
        self.device = device if device is not None else Device()
        self.costmodel = costmodel if costmodel is not None else CostModel()
        self.engine = engine if engine is not None else ENGINE_CLOSURE
        if self.engine not in ENGINES:
            raise LaunchError(f"unknown execution engine {self.engine!r}")

    # -- preparation -----------------------------------------------------
    def _cached(self, kernel: Kernel, attr: str, build):
        """``build()``, memoized on ``kernel`` under ``attr`` per cost model.

        Compiled programs depend only on the kernel and the cost model,
        so each cache lives on the kernel object keyed by
        ``id(costmodel)`` (the stored strong reference keeps the key's
        ``id`` stable) and is shared by every runtime using that model.
        """
        cache = ephemeral_cache(kernel, attr)
        key = id(self.costmodel)
        hit = cache.get(key)
        if hit is not None:
            if hit[0] is self.costmodel:
                return hit[1]
            # a dead cost model's id was recycled by this one: drop the
            # stale entry so it cannot shadow the rebuilt one below
            del cache[key]
        entry = build()
        cache[key] = (self.costmodel, entry)
        return entry

    def prepare(self, kernel: Kernel):
        """Compile (and resource-check) a kernel; cached on the kernel.

        The device resource check always runs — different runtimes may
        sit on differently-sized devices.
        """
        if kernel.shared_mem_words > self.device.spec.shared_mem_words:
            raise CompileError(
                f"kernel {kernel.name} needs {kernel.shared_mem_words} words of "
                f"shared memory; device has {self.device.spec.shared_mem_words}"
            )

        def build():
            if kernel.uses_sync:
                prog = LockstepProgram(kernel, self.costmodel)
            else:
                prog = CompiledKernel(kernel, self.costmodel)
            return prog, register_pressure(kernel)

        return self._cached(kernel, PREPARED_CACHE_ATTR, build)

    def prepare_lockstep(self, kernel: Kernel):
        """Lockstep-compile any kernel (cached); for forced-engine runs."""
        return self._cached(kernel, LOCKSTEP_CACHE_ATTR, lambda: (
            LockstepProgram(kernel, self.costmodel), register_pressure(kernel)
        ))

    # -- launching ---------------------------------------------------------
    def launch(
        self,
        kernel: Kernel,
        grid: Dim,
        block: Dim,
        args: Dict[str, object],
        lib: Optional[InstrumentationLibrary] = None,
        budget: int = 2_000_000,
        recorder=None,
        hang_verdicts: bool = False,
    ) -> LaunchResult:
        """Run the kernel over the whole grid.

        ``args`` maps parameter names to values; :class:`Allocation`
        values are lowered to their base addresses (device pointers).
        Raises :class:`~repro.errors.KernelCrash` /
        :class:`~repro.errors.KernelHang` on failure — the GPU-runtime
        detected failures of the paper's outcome taxonomy.

        ``recorder`` (compiled-path kernels only) observes per-thread
        execution: ``attach(memory)`` returns the memory view threads
        run against, and ``begin_thread(ctx)`` / ``end_thread(ctx)``
        bracket each thread.  The normal path pays nothing — the hooks
        are per-thread branches, and memory stays unwrapped.

        ``hang_verdicts`` marks a fault-injection trial launch: the
        compiled engine may raise the watchdog's ``KernelHang`` at a
        loop head once it has decided the thread will run out its
        budget there (same exception and ``ctx.steps``; cycles and
        frames stay where the thread stood).
        """
        if not self.device.enabled:
            raise LaunchError(f"device {self.device.device_id} is disabled")
        lockstep = self.engine == ENGINE_LOCKSTEP
        gx, gy = _normalize_dim(grid, "grid")
        bx, by = _normalize_dim(block, "block")
        if bx * by > MAX_THREADS_PER_BLOCK:
            raise LaunchError(
                f"block of {bx * by} threads exceeds limit {MAX_THREADS_PER_BLOCK}"
            )
        if recorder is not None and kernel.uses_sync:
            raise LaunchError(
                f"kernel {kernel.name} uses __syncthreads; per-thread "
                "recording needs the closure path"
            )
        if recorder is not None and lockstep:
            raise LaunchError("per-thread recording needs the closure path")
        if lockstep:
            prog, pressure = self.prepare_lockstep(kernel)
        else:
            prog, pressure = self.prepare(kernel)
        base_frame = self._lower_args(kernel, args)
        base_frame["gridDim.x"] = gx
        base_frame["gridDim.y"] = gy
        base_frame["blockDim.x"] = bx
        base_frame["blockDim.y"] = by

        n_threads = gx * gy * bx * by
        shared_decls = kernel.shared
        with get_tracer().span(
            "gpu.launch", kernel=kernel.name, device=self.device.device_id,
            grid=[gx, gy], block=[bx, by], n_threads=n_threads,
        ) as span:
            ctx = ExecContext(self.device.memory, lib=lib, budget=budget,
                              block_size=bx * by, hang_verdicts=hang_verdicts)
            if recorder is not None:
                ctx.swap_memory(recorder.attach(self.device.memory))
            try:
                self._run_grid(kernel, prog, ctx, base_frame, gx, gy, bx, by,
                               shared_decls, recorder)
            except KernelHang as exc:
                record_launch_failure(kernel.name, "hang")
                if ctx.hang_verdict is not None:
                    record_hang_verdict(kernel.name)
                span.set(failure="hang", reason=str(exc))
                raise
            except KernelCrash as exc:
                record_launch_failure(kernel.name, "crash")
                span.set(failure="crash", reason=str(exc))
                raise

            ctx.reset_thread(-1, -1)  # fold the final thread into max_steps
            lanes = min(n_threads, self.device.spec.parallel_lanes)
            spill = self.costmodel.spill_factor(
                pressure, self.device.spec.registers_per_thread
            )
            result = LaunchResult(
                kernel_name=kernel.name,
                n_threads=n_threads,
                total_cycles=ctx.cycles,
                loop_cycles=ctx.loop_cycles,
                kernel_time=ctx.cycles / lanes * spill,
                register_pressure=pressure,
                spill_factor=spill,
                max_thread_steps=ctx.max_steps,
            )
            record_launch(result)
            span.set(
                total_cycles=result.total_cycles,
                kernel_time=result.kernel_time,
                loop_fraction=result.loop_fraction,
                spill_factor=spill,
                register_pressure=pressure,
            )
        return result

    def _run_grid(self, kernel, prog, ctx, base_frame, gx, gy, bx, by,
                  shared_decls, recorder=None) -> None:
        """Execute every thread of the grid (the measured inner loop).

        The per-thread frame is built from a per-block template so only
        the two ``threadIdx`` keys are written in the inner loop; a
        kernel with no shared declarations reuses one empty dict for
        every block (nothing can write it — ``SharedStore`` compiles
        only against declared arrays).
        """
        no_shared = {} if not shared_decls else None
        lockstep = isinstance(prog, LockstepProgram)
        ctx.keep_frames = False  # each frame is dropped when its thread ends
        run_thread = None if lockstep else prog.run_thread
        for block_y in range(gy):
            for block_x in range(gx):
                block = block_y * gx + block_x
                ctx.block = block
                ctx.shared = no_shared if no_shared is not None else {
                    s.name: ([0.0] * s.size if s.dtype is DType.FLOAT32 else [0] * s.size)
                    for s in shared_decls
                }
                block_frame = dict(base_frame)
                block_frame["blockIdx.x"] = block_x
                block_frame["blockIdx.y"] = block_y
                if lockstep:
                    frames = []
                    for ty in range(by):
                        for tx in range(bx):
                            fr = dict(block_frame)
                            fr["threadIdx.x"] = tx
                            fr["threadIdx.y"] = ty
                            frames.append(fr)
                    prog.run_block(frames, ctx)
                elif recorder is None:
                    for ty in range(by):
                        row = ty * bx
                        for tx in range(bx):
                            fr = dict(block_frame)
                            fr["threadIdx.x"] = tx
                            fr["threadIdx.y"] = ty
                            ctx.reset_thread(block, row + tx)
                            run_thread(fr, ctx)
                else:
                    for ty in range(by):
                        row = ty * bx
                        for tx in range(bx):
                            fr = dict(block_frame)
                            fr["threadIdx.x"] = tx
                            fr["threadIdx.y"] = ty
                            ctx.reset_thread(block, row + tx)
                            recorder.begin_thread(ctx)
                            run_thread(fr, ctx)
                            recorder.end_thread(ctx)

    @staticmethod
    def _lower_args(kernel: Kernel, args: Dict[str, object]) -> Dict[str, object]:
        frame: Dict[str, object] = {}
        for p in kernel.params:
            if p.name not in args:
                raise LaunchError(f"missing kernel argument {p.name!r}")
            value = args[p.name]
            if isinstance(value, Allocation):
                if not p.dtype.is_pointer:
                    raise LaunchError(f"buffer passed for scalar parameter {p.name!r}")
                frame[p.name] = value.base
            elif p.dtype.is_pointer:
                frame[p.name] = int(value)
            elif p.dtype is DType.FLOAT32:
                frame[p.name] = float(value)
            else:
                value = int(value)
                if not -(2**31) <= value < 2**31:
                    raise LaunchError(f"int argument {p.name!r} = {value} "
                                      "is outside the int32 range")
                frame[p.name] = value
        extra = set(args) - {p.name for p in kernel.params}
        if extra:
            raise LaunchError(f"unknown kernel arguments {sorted(extra)}")
        return frame
