"""Vectorized engine parity: bit-identical with the scalar interpreters.

The vectorized engine's entire contract is *bit-exactness*: any launch
it serves must be indistinguishable — LaunchResult, device memory
words, control-block state, FI activation records — from the closure
and lockstep interpreters.  Every test here runs the same seeded work
through two or three engines on independent devices and compares raw
bit patterns, never tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.program import HauberkProgram
from repro.gpu.device import Device
from repro.gpu.runtime import ENGINES, GPURuntime, LaunchError
from repro.kir import parse_kernel
from repro.kir.interp.vector import (
    BAIL_HAZARD,
    FALLBACK_LIBRARY,
    OBSTACLE_SYNC,
    VectorizedKernel,
    vectorize_obstacle,
)
from repro.kir.types import DType
from repro.obs.metrics import fresh_registry, get_registry
from repro.swifi.campaign import build_fault_specs
from repro.swifi.parallel import run_campaign
from repro.swifi.targets import enumerate_targets
from repro.workloads import all_workloads, get_workload

SCALAR_ENGINES = ("closure", "lockstep")
FI_MODES = ("fi", "fift")


def _launch(src_or_kernel, args, engine, grid=1, block=4, n_out=8,
            out_dtype=DType.FLOAT32, budget=2_000_000, out_init=None):
    """One launch on a fresh device; returns (LaunchResult, words)."""
    kernel = (parse_kernel(src_or_kernel)
              if isinstance(src_or_kernel, str) else src_or_kernel)
    device = Device()
    runtime = GPURuntime(device, engine=engine)
    full_args = dict(args)
    if n_out:
        out = device.memory.alloc("out", n_out, out_dtype)
        if out_init is not None:
            device.memory.memcpy_htod(out, out_init)
        full_args["out"] = out
    result = runtime.launch(kernel, grid, block, full_args, budget=budget)
    return result, device.memory.snapshot()


def _assert_engines_agree(src, args, engines=("vector",) + SCALAR_ENGINES,
                          **kw):
    results = {e: _launch(src, args, e, **kw) for e in engines}
    ref_res, ref_words = results[engines[0]]
    for engine in engines[1:]:
        res, words = results[engine]
        assert res == ref_res, f"{engines[0]} vs {engine}: {ref_res} != {res}"
        assert np.array_equal(words, ref_words), (
            f"{engines[0]} vs {engine}: memory diverged at words "
            f"{np.nonzero(words != ref_words)[0][:5]}"
        )
    return ref_res, ref_words


def _campaign_results(name, mode, engine, n=16, seed=11, bit_counts=(1, 6)):
    """A seeded full-execution campaign under one engine."""
    wl = get_workload(name)
    prog = HauberkProgram(wl)
    prog.runtime.engine = engine
    if mode == "fift":
        prog.train(seeds=[0])
    sites = enumerate_targets(wl.kernel)
    inp = wl.generate_input(0)
    specs = build_fault_specs(sites, inp.n_threads, masks_per_site=2,
                              bit_counts=bit_counts, seed=seed)[:n]
    result = run_campaign(None, specs, runner_factory=lambda:
                          prog.trial_runner(mode, 0))
    return prog, result


class TestWorkloadLaunchParity:
    """Original-mode launches: every workload, engine vs engine."""

    @pytest.mark.parametrize("name", all_workloads())
    def test_vector_matches_closure_and_lockstep(self, name):
        wl = get_workload(name)
        inp = wl.generate_input(seed=7)
        outcomes = {}
        for engine in ("vector", "closure", "lockstep"):
            device = Device()
            runtime = GPURuntime(device, engine=engine)
            args, _handles = wl.setup_memory(device, inp)
            result = runtime.launch(wl.kernel, inp.grid, inp.block, args,
                                    budget=wl.hang_budget)
            outcomes[engine] = (result, device.memory.snapshot())
        res_v, words_v = outcomes["vector"]
        for engine in SCALAR_ENGINES:
            res_s, words_s = outcomes[engine]
            assert res_v == res_s, f"{name}: LaunchResult diverged vs {engine}"
            assert np.array_equal(words_v, words_s), \
                f"{name}: device memory diverged vs {engine}"

    def test_engine_validation(self):
        with pytest.raises(LaunchError):
            GPURuntime(Device(), engine="warp9")
        runtime = GPURuntime(Device())
        assert runtime.engine in ENGINES


class TestCampaignParity:
    """Seeded fi/fift campaigns: outcomes + control block, engine-exact."""

    @pytest.mark.parametrize("mode", FI_MODES)
    @pytest.mark.parametrize("name", ("CP", "PNS", "SAD", "TPACF"))
    def test_campaign_outcomes_identical(self, name, mode):
        prog_v, vec = _campaign_results(name, mode, "vector")
        prog_c, clo = _campaign_results(name, mode, "closure")
        assert vec.summary() == clo.summary()
        for a, b in zip(vec.trials, clo.trials):
            assert a.spec == b.spec
            assert a.outcome == b.outcome
            assert a.observation == b.observation
        # control-block state (alarm history, SDC bit, event log) is
        # part of the contract for detector-bearing modes
        if mode == "fift":
            assert prog_v.cb.alarm_raised == prog_c.cb.alarm_raised
            assert prog_v.cb.sdc_bit == prog_c.cb.sdc_bit
            assert list(prog_v.cb.events) == list(prog_c.cb.events)

    def test_fi_activation_records_identical(self):
        wl = get_workload("CP")
        inp = wl.generate_input(0)
        sites = enumerate_targets(wl.kernel)
        specs = build_fault_specs(sites, inp.n_threads, masks_per_site=2,
                                  bit_counts=(1, 3), seed=3)[:12]
        for spec in specs:
            runs = {}
            for engine in ("vector", "closure"):
                prog = HauberkProgram(get_workload("CP"))
                prog.runtime.engine = engine
                runs[engine] = prog.run(mode="fi", seed=0, fault=spec)
            v, c = runs["vector"], runs["closure"]
            assert v.status == c.status
            assert v.activation == c.activation
            if v.output is not None:
                assert np.array_equal(
                    np.asarray(v.output).view(np.uint64),
                    np.asarray(c.output).view(np.uint64),
                ), f"outputs diverged for {spec}"


class TestDivergenceAndLoops:
    def test_divergent_branch_parity(self):
        # odd/even lanes take different arms; nested divergent If
        src = """
        kernel div(float* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            float v = 0.0;
            if (tid % 2 == 0) {
                v = float(tid) * 2.0;
                if (tid > 4) { v = v + 100.0; }
            } else {
                v = 0.0 - float(tid);
            }
            if (tid < n) { out[tid] = v; }
        }
        """
        _assert_engines_agree(src, {"n": 12}, grid=4, block=4, n_out=16)

    def test_loop_drain_parity(self):
        # per-thread trip counts: lanes leave the loop at their own
        # iteration, paying the failing check exactly once
        src = """
        kernel drain(float* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            float acc = 0.0;
            for (int i = 0; i < tid + 1; i++) {
                acc = acc + float(i) * 0.5;
                if (acc > 6.0) { break; }
            }
            int j = 0;
            while (j < tid) {
                if (j == 3) { j = j + 2; continue; }
                acc = acc + 1.0;
                j = j + 1;
            }
            if (tid < n) { out[tid] = acc; }
        }
        """
        res, _ = _assert_engines_agree(src, {"n": 16}, grid=4, block=4,
                                       n_out=16)
        assert res.loop_cycles > 0

    def test_cross_lane_hazard_falls_back_identically(self):
        # lane tid reads the word lane tid-1 wrote: sequential
        # semantics require in-order execution, so the vector engine
        # must bail and the fallback must still be bit-identical
        fresh_registry()
        src = """
        kernel chain(float* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            out[tid + 1] = out[tid] + 1.0;
        }
        """
        _assert_engines_agree(src, {"n": 8}, grid=1, block=8, n_out=9,
                              engines=("vector", "closure"))
        reg = get_registry()
        assert reg.counter("repro_kir_vector_fallbacks_total").value(
            kernel="chain", reason=BAIL_HAZARD) >= 1


class TestBitPatternFidelity:
    def test_snan_denormal_payloads_roundtrip(self):
        # sNaN payloads, denormals, -0.0, infinities through the
        # vectorized gather/scatter must preserve raw bit patterns
        patterns = np.array(
            [
                0x7F800001,  # sNaN, payload 1
                0x7FBFFFFF,  # sNaN, max payload
                0xFFA5A5A5,  # negative sNaN, patterned payload
                0x7FC00001,  # qNaN with payload
                0x00000001,  # smallest denormal
                0x807FFFFF,  # largest negative denormal
                0x80000000,  # -0.0
                0x7F800000,  # +inf
                0xFF800000,  # -inf
                0x00800000,  # smallest normal
                0x3F800000,  # 1.0
                0xDEADBEEF,  # arbitrary normal bits
            ],
            dtype=np.uint32,
        )
        src = """
        kernel copybits(float* src, float* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) { out[tid] = src[tid]; }
        }
        """
        kernel = parse_kernel(src)
        n = len(patterns)
        snaps = {}
        for engine in ("vector", "closure"):
            device = Device()
            runtime = GPURuntime(device, engine=engine)
            src_buf = device.memory.alloc("src", n, DType.FLOAT32)
            out_buf = device.memory.alloc("out", n, DType.FLOAT32)
            device.memory.words[src_buf.base:src_buf.base + n] = patterns
            runtime.launch(kernel, 1, n, {"src": src_buf, "out": out_buf,
                                          "n": n})
            snaps[engine] = device.memory.words[
                out_buf.base:out_buf.base + n].copy()
        assert np.array_equal(snaps["vector"], patterns)
        assert np.array_equal(snaps["vector"], snaps["closure"])

    def test_float_as_int_bit_parity(self):
        src = """
        kernel f2i(float* src, int* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) { out[tid] = __float_as_int(src[tid] * 3.0); }
        }
        """
        kernel = parse_kernel(src)
        vals = np.array([0.0, -0.0, 1.5, -2.25, 3.4e38, 1e-40, float("inf")],
                        dtype=np.float32)
        snaps = {}
        for engine in ("vector", "closure"):
            device = Device()
            runtime = GPURuntime(device, engine=engine)
            src_buf = device.memory.alloc("src", len(vals), DType.FLOAT32)
            out_buf = device.memory.alloc("out", len(vals), DType.INT32)
            device.memory.memcpy_htod(src_buf, vals)
            runtime.launch(kernel, 1, len(vals),
                           {"src": src_buf, "out": out_buf, "n": len(vals)})
            snaps[engine] = device.memory.words[
                out_buf.base:out_buf.base + len(vals)].copy()
        assert np.array_equal(snaps["vector"], snaps["closure"])


class TestGatingAndMetrics:
    def test_sync_kernel_counts_obstacle_fallback(self):
        fresh_registry()
        wl = get_workload("TPACF")
        assert vectorize_obstacle(wl.kernel) == OBSTACLE_SYNC
        inp = wl.generate_input(0)
        device = Device()
        runtime = GPURuntime(device, engine="vector")
        args, _ = wl.setup_memory(device, inp)
        runtime.launch(wl.kernel, inp.grid, inp.block, args,
                       budget=wl.hang_budget)
        reg = get_registry()
        assert reg.counter("repro_kir_vector_fallbacks_total").value(
            kernel=wl.kernel.name, reason=OBSTACLE_SYNC) == 1
        assert reg.counter("repro_kir_vectorized_launches_total").value(
            kernel=wl.kernel.name) == 0

    def test_vectorized_launch_counted(self):
        fresh_registry()
        wl = get_workload("CP")
        inp = wl.generate_input(0)
        device = Device()
        runtime = GPURuntime(device, engine="vector")
        args, _ = wl.setup_memory(device, inp)
        runtime.launch(wl.kernel, inp.grid, inp.block, args,
                       budget=wl.hang_budget)
        reg = get_registry()
        assert reg.counter("repro_kir_vectorized_launches_total").value(
            kernel=wl.kernel.name) == 1

    def test_incompatible_library_counts_fallback(self):
        fresh_registry()
        prog = HauberkProgram(get_workload("CP"))
        prog.runtime.engine = "vector"
        prog.train(seeds=[0])
        prog.run(mode="fift", seed=0)  # CombinedLibrary: not vectorizable
        reg = get_registry()
        assert reg.counter("repro_kir_vector_fallbacks_total").value(
            kernel=prog.build("fift").kernel.name,
            reason=FALLBACK_LIBRARY) >= 1

    def test_vector_compile_is_cached(self):
        wl = get_workload("CP")
        runtime = GPURuntime(Device())
        prog1, obstacle1 = runtime.prepare_vector(wl.kernel)
        prog2, obstacle2 = runtime.prepare_vector(wl.kernel)
        assert obstacle1 is None and obstacle2 is None
        assert prog1 is prog2
        assert isinstance(prog1, VectorizedKernel)
