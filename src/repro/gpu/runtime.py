"""Kernel launch machinery: grids, frames, watchdog, timing.

``GPURuntime.launch`` plays the role of ``cudaLaunchKernel`` plus the
surrounding measurement harness: it executes every thread of the grid
(fast closure path, or lockstep for barrier kernels), detects crashes
and hangs the way the GPU runtime + guardian watchdog do in the paper,
and converts accumulated thread-cycles into a kernel time via the
device's parallel width and register-spill factor.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

from repro.errors import CompileError, KernelCrash, KernelHang, LaunchError
from repro.exec.cache import ephemeral_cache
from repro.gpu.costmodel import CostModel
from repro.gpu.device import Device
from repro.gpu.memory import Allocation
from repro.kir.analysis.liveness import register_pressure
from repro.kir.astnodes import Kernel
from repro.kir.interp.compiler import CompiledKernel
from repro.kir.interp.evalcore import ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.interp.vector import (
    FALLBACK_LIBRARY,
    VectorBailout,
    VectorizedKernel,
    vectorize_obstacle,
)
from repro.kir.types import DType
from repro.obs.events import get_tracer
from repro.obs.instrument import (
    record_launch,
    record_launch_failure,
    record_vector_fallback,
    record_vectorized_launch,
)
from repro.obs.profile import PHASE_VECTOR_RUN, get_profiler

Dim = Union[int, Tuple[int, int]]

#: GT200 hardware limit.
MAX_THREADS_PER_BLOCK = 512

#: Attribute on the kernel object holding its compiled-program cache.
#: Living on the kernel (instead of a runtime-side ``id()``-keyed dict)
#: means the cache dies with the kernel — no global registry pinning
#: kernels alive, and no recycled-``id`` staleness.  The cache resets
#: across ``Kernel.clone()`` and pickling (see ``repro.exec.cache``).
PREPARED_CACHE_ATTR = "_hauberk_prepared"

#: Sibling caches for the vectorized program and a forced lockstep
#: program (same lifetime rules as ``PREPARED_CACHE_ATTR``).
VECTOR_CACHE_ATTR = "_hauberk_vector"
LOCKSTEP_CACHE_ATTR = "_hauberk_lockstep"

#: Engine-selection seam.  ``vector`` (the default) serves eligible
#: launches from the vectorized engine and falls back to the scalar
#: engines (closure, or lockstep for barrier kernels); ``closure``
#: forces the scalar selection; ``lockstep`` forces the lockstep
#: interpreter for every kernel.
ENGINE_VECTOR = "vector"
ENGINE_CLOSURE = "closure"
ENGINE_LOCKSTEP = "lockstep"
ENGINES = (ENGINE_VECTOR, ENGINE_CLOSURE, ENGINE_LOCKSTEP)

#: Environment override consulted when a runtime is built without an
#: explicit ``engine`` (the harness/CLI plumb ``--engine`` through it).
ENGINE_ENV_VAR = "REPRO_ENGINE"


def default_engine() -> str:
    """Engine used when neither runtime nor launch names one."""
    return os.environ.get(ENGINE_ENV_VAR, ENGINE_VECTOR)


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
        self.engine = engine if engine is not None else default_engine()
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

    def prepare_vector(self, kernel: Kernel):
        """Vector-compile a kernel (cached); ``(program, obstacle)``.

        Exactly one of the pair is ``None``: either the compiled
        :class:`~repro.kir.interp.vector.VectorizedKernel`, or the
        static reason (``uses_sync``/``shared_memory``/``atomics``) the
        kernel cannot vectorize.  The obstacle is cached too, so
        ineligible kernels pay the AST walk once.
        """

        def build():
            obstacle = vectorize_obstacle(kernel)
            if obstacle is not None:
                return None, obstacle
            with get_tracer().span("kir.vector.compile", kernel=kernel.name) as span:
                vprog = VectorizedKernel(kernel, self.costmodel)
                span.set(
                    divergent_branches=vprog.divergent_branches,
                    varying_names=len(vprog.varying),
                )
            return vprog, None

        return self._cached(kernel, VECTOR_CACHE_ATTR, build)

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
        engine: Optional[str] = None,
    ) -> LaunchResult:
        """Run the kernel over the whole grid.

        ``args`` maps parameter names to values; :class:`Allocation`
        values are lowered to their base addresses (device pointers).
        Raises :class:`~repro.errors.KernelCrash` /
        :class:`~repro.errors.KernelHang` on failure — the GPU-runtime
        detected failures of the paper's outcome taxonomy.

        ``recorder`` (closure-path kernels only) observes per-thread
        execution: ``attach(memory)`` returns the memory view threads
        run against, and ``begin_thread(ctx)`` / ``end_thread(ctx)``
        bracket each thread.  The normal path pays nothing — the hooks
        are per-thread branches, and memory stays unwrapped.  A
        vectorized launch instead feeds the recorder one sweep's
        per-lane records through ``absorb_vector_records(vres)``.

        ``engine`` overrides the runtime's engine for this launch (see
        :data:`ENGINES`).  The vectorized engine is bit-exact with the
        scalar interpreters: any launch it cannot serve exactly
        (library hooks that are not no-ops, cross-lane data flow, lane
        failures) falls back transparently, counted in
        ``repro_kir_vector_fallbacks_total``.
        """
        if not self.device.enabled:
            raise LaunchError(f"device {self.device.device_id} is disabled")
        eng = engine if engine is not None else self.engine
        if eng not in ENGINES:
            raise LaunchError(f"unknown execution engine {eng!r}")
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
        if recorder is not None and eng == ENGINE_LOCKSTEP:
            raise LaunchError("per-thread recording needs the closure path")
        if eng == ENGINE_LOCKSTEP:
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
            if eng == ENGINE_VECTOR:
                result = self._attempt_vector(
                    kernel, pressure, base_frame, gx, gy, bx, by,
                    n_threads, lib, budget, recorder,
                )
                if result is not None:
                    span.set(
                        engine=ENGINE_VECTOR,
                        total_cycles=result.total_cycles,
                        kernel_time=result.kernel_time,
                        loop_fraction=result.loop_fraction,
                        spill_factor=result.spill_factor,
                        register_pressure=pressure,
                    )
                    return result

            ctx = ExecContext(self.device.memory, lib=lib, budget=budget)
            if recorder is not None:
                ctx.swap_memory(recorder.attach(self.device.memory))
            try:
                self._run_grid(kernel, prog, ctx, base_frame, gx, gy, bx, by,
                               shared_decls, recorder)
            except KernelHang as exc:
                record_launch_failure(kernel.name, "hang")
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

    def _attempt_vector(
        self, kernel, pressure, base_frame, gx, gy, bx, by,
        n_threads, lib, budget, recorder,
    ) -> Optional[LaunchResult]:
        """Serve the launch from the vectorized engine, or ``None``.

        Gating happens first (static obstacle, or a library whose hooks
        are not all no-ops — an armed fault injector, detectors, a
        profiler); a gated launch costs one counter bump.  An eligible
        launch runs the whole grid as one array program.  Any
        :class:`VectorBailout` restores the pre-launch memory snapshot
        and returns ``None`` so the scalar engines rerun the launch
        from scratch, reproducing failures (and their post-crash
        memory) exactly as the sequential semantics dictate.
        """
        vprog, reason = self.prepare_vector(kernel)
        if reason is None and lib is not None and not lib.hooks_are_noops():
            reason = FALLBACK_LIBRARY
        if reason is not None:
            record_vector_fallback(kernel.name, reason)
            return None

        memory = self.device.memory
        snapshot = memory.snapshot()
        try:
            with get_profiler().phase(PHASE_VECTOR_RUN):
                vres = vprog.run_lanes(
                    memory, base_frame, gx, gy, bx, by, budget,
                    record_footprints=recorder is not None,
                )
        except VectorBailout as exc:
            memory.restore(snapshot)
            record_vector_fallback(kernel.name, exc.reason)
            return None

        if recorder is not None:
            recorder.absorb_vector_records(vres)
        lanes_hw = min(n_threads, self.device.spec.parallel_lanes)
        spill = self.costmodel.spill_factor(
            pressure, self.device.spec.registers_per_thread
        )
        total = vres.total_cycles
        result = LaunchResult(
            kernel_name=kernel.name,
            n_threads=n_threads,
            total_cycles=total,
            loop_cycles=vres.total_loop_cycles,
            kernel_time=total / lanes_hw * spill,
            register_pressure=pressure,
            spill_factor=spill,
            max_thread_steps=vres.max_steps,
        )
        record_vectorized_launch(kernel.name)
        record_launch(result)
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
                frame[p.name] = int(value)
        extra = set(args) - {p.name for p in kernel.params}
        if extra:
            raise LaunchError(f"unknown kernel arguments {sorted(extra)}")
        return frame
