"""Interpreter semantics: compiler path, lockstep path, and their parity."""

import math

import numpy as np
import pytest

from repro.core.program import HauberkProgram
from repro.errors import KernelCrash, KernelHang, KIRValidationError, LaunchError
from repro.gpu.device import Device
from repro.gpu.memory import GlobalMemory
from repro.gpu.runtime import ENGINES, GPURuntime
from repro.kir import parse_kernel
from repro.kir.astnodes import CallStmt, Const, Kernel, KernelParam
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import (
    ExecContext,
    InstrumentationLibrary,
    _safe_sqrt,
    c_int_cast,
    fdiv,
    idiv,
    imod,
    truthy,
)
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel
from repro.swifi.campaign import build_fault_specs
from repro.swifi.parallel import run_campaign
from repro.swifi.targets import enumerate_targets
from repro.workloads import all_workloads, get_workload

from conftest import launch_saxpy


def run_scalar_kernel(src, args, n_out=1, out_dtype=DType.FLOAT32, grid=1, block=1):
    """Launch a kernel with one output buffer named 'out'."""
    device = Device()
    runtime = GPURuntime(device)
    kernel = parse_kernel(src)
    out = device.memory.alloc("out", max(n_out, 1), out_dtype)
    full_args = dict(args)
    full_args["out"] = out
    runtime.launch(kernel, grid, block, full_args)
    return device.memory.memcpy_dtoh(out)


class TestArithmeticSemantics:
    def test_fdiv_semantics(self):
        assert fdiv(1.0, 0.0) == math.inf
        assert fdiv(-1.0, 0.0) == -math.inf
        assert math.isnan(fdiv(0.0, 0.0))
        assert fdiv(6.0, 3.0) == 2.0

    def test_idiv_truncates_toward_zero(self):
        assert idiv(7, 2) == 3
        assert idiv(-7, 2) == -3
        assert idiv(7, -2) == -3

    def test_idiv_by_zero_crashes(self):
        with pytest.raises(KernelCrash):
            idiv(1, 0)
        with pytest.raises(KernelCrash):
            imod(1, 0)

    def test_imod_sign_follows_dividend(self):
        assert imod(7, 3) == 1
        assert imod(-7, 3) == -1

    def test_c_int_cast(self):
        assert c_int_cast(3.9) == 3
        assert c_int_cast(-3.9) == -3
        assert c_int_cast(float("nan")) == 0
        assert c_int_cast(1e30) == 2**31 - 1
        assert c_int_cast(-1e30) == -(2**31)

    def test_truthy_nan_is_true(self):
        assert truthy(float("nan"))
        assert not truthy(0)
        assert truthy(-2)

    def test_fp_div_by_zero_returns_inf_in_kernel(self):
        out = run_scalar_kernel(
            "kernel k(float a, float* out) { out[0] = a / 0.0; }", {"a": 3.0}
        )
        assert out[0] == np.float32(math.inf)

    def test_int_wraparound_in_kernel(self):
        out = run_scalar_kernel(
            "kernel k(int a, int* out) { out[0] = a * 2; }",
            {"a": 2**30}, out_dtype=DType.INT32,
        )
        assert out[0] == -(2**31)

    def test_sqrt_of_negative_is_nan(self):
        out = run_scalar_kernel(
            "kernel k(float a, float* out) { out[0] = sqrt(a); }", {"a": -1.0}
        )
        assert math.isnan(out[0])

    def test_shift_and_bitops(self):
        out = run_scalar_kernel(
            """
kernel k(int a, int* out) {
    out[0] = (a << 2) | 1;
    out[1] = a >> 1;
    out[2] = a ^ 255;
    out[3] = ~a;
}
""",
            {"a": 12}, n_out=4, out_dtype=DType.INT32,
        )
        assert list(out) == [49, 6, 243, -13]

    def test_short_circuit_avoids_crash(self):
        out = run_scalar_kernel(
            "kernel k(int a, int* out) { if ((a != 0) && (10 / a > 1)) { out[0] = 1; } }",
            {"a": 0}, out_dtype=DType.INT32,
        )
        assert out[0] == 0


#: Dividend and divisor bit patterns of the float special cases the
#: inline ``/`` and ``sqrt`` fast paths must hand to their helpers.
FP_SPECIALS = {
    "neg_zero": (0x80000000, 0x3F800000),  # -0.0, 1.0
    "pos_inf": (0x7F800000, 0x40000000),  # +inf, 2.0
    "neg_inf": (0xFF800000, 0x40000000),  # -inf, 2.0
    "nan": (0x7FC00000, 0x40000000),  # NaN, 2.0
    "zero_over_zero": (0x00000000, 0x00000000),
    "x_over_neg_zero": (0x3F800000, 0x80000000),  # 1.0, -0.0
    "denormals": (0x00000001, 0x807FFFFF),  # smallest and largest negative
}

#: Each ``/`` and ``sqrt`` operand shape the compiled engine emits apart
#: (bare local, compound, load), in ``out`` order.
FP_FORMS = """
kernel fp(float* a, float* b, float* out) {
    out[0] = a[0] / b[0];
    float x = a[0];
    float y = b[0];
    out[1] = x / y;
    out[2] = y / x;
    out[3] = x / (y * 1.0);
    out[4] = (x * 1.0) / y;
    out[5] = sqrt(x);
    out[6] = sqrt(x * 1.0);
    out[7] = 1.0 / sqrt(y);
    out[8] = sqrt(y);
}
"""


class TestFloatSpecials:
    """The inline float ``/`` and ``sqrt`` give the helpers' bits on
    both engines for every special operand."""

    @staticmethod
    def _helpers(x, y):
        return [fdiv(x, y), fdiv(x, y), fdiv(y, x), fdiv(x, y * 1.0), fdiv(x * 1.0, y),
                _safe_sqrt(x), _safe_sqrt(x * 1.0), fdiv(1.0, _safe_sqrt(y)),
                _safe_sqrt(y)]

    @pytest.mark.parametrize("case", sorted(FP_SPECIALS))
    def test_engines_match_helpers(self, case):
        bits = np.array(FP_SPECIALS[case], dtype=np.uint32)
        kernel = parse_kernel(FP_FORMS)
        words = {}
        for engine in ENGINES:
            device = Device()
            a = device.memory.alloc("a", 1, DType.FLOAT32)
            b = device.memory.alloc("b", 1, DType.FLOAT32)
            out = device.memory.alloc("out", 9, DType.FLOAT32)
            device.memory.write_words(a.base, bits[:1])
            device.memory.write_words(b.base, bits[1:])
            GPURuntime(device, engine=engine).launch(
                kernel, 1, 1, {"a": a, "b": b, "out": out})
            words[engine] = device.memory.read_words(out.base, 9).tolist()
        expected = GlobalMemory(16)
        expected.write_words(0, bits)
        x, y = expected.load_f32(0), expected.load_f32(1)
        for k, value in enumerate(self._helpers(x, y)):
            expected.store_f32(2 + k, value)
        assert words["closure"] == words["lockstep"]
        assert words["closure"] == expected.read_words(2, 9).tolist()

    def test_int_operand_keeps_the_fdiv_call(self):
        source = CompiledKernel(parse_kernel(
            "kernel k(float a, int n, float* out) { out[0] = a / n; }"), _cm()).source
        assert "fdiv(" in source and " / " not in source

    def test_float_operands_divide_inline(self):
        source = CompiledKernel(parse_kernel(FP_FORMS), _cm()).source
        assert source.count("fdiv(") == 6  # only on the zero-divisor branches
        assert "if 0.0 <= " in source


class TestControlFlow:
    def test_break_continue(self):
        out = run_scalar_kernel(
            """
kernel k(int n, int* out) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        if (i == 2) { continue; }
        if (i == 5) { break; }
        s = s + i;
    }
    out[0] = s;
}
""",
            {"n": 100}, out_dtype=DType.INT32,
        )
        assert out[0] == 0 + 1 + 3 + 4

    def test_return_exits_thread(self):
        out = run_scalar_kernel(
            """
kernel k(int n, int* out) {
    out[0] = 1;
    if (n > 0) { return; }
    out[0] = 2;
}
""",
            {"n": 1}, out_dtype=DType.INT32,
        )
        assert out[0] == 1

    def test_while_loop(self):
        out = run_scalar_kernel(
            """
kernel k(int n, int* out) {
    int i = 0;
    while (i * i < n) { i++; }
    out[0] = i;
}
""",
            {"n": 17}, out_dtype=DType.INT32,
        )
        assert out[0] == 5

    def test_do_while_executes_once(self):
        out = run_scalar_kernel(
            """
kernel k(int n, int* out) {
    int i = 100;
    do { i++; } while (i < n);
    out[0] = i;
}
""",
            {"n": 0}, out_dtype=DType.INT32,
        )
        assert out[0] == 101


class TestFailures:
    def test_off_device_load_crashes(self, runtime, saxpy_kernel):
        device = runtime.device
        ay = device.memory.alloc("y", 4, DType.FLOAT32)
        wild = device.memory.capacity + 3  # corrupted base pointer
        with pytest.raises(KernelCrash):
            runtime.launch(
                saxpy_kernel, 1, 8,
                args={"x": wild, "y": ay, "a": 1.0, "n": 8},
            )

    def test_infinite_loop_hangs(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(
            "kernel k(int n, int* out) { int i = 0; while (n < 10) { i++; } out[0] = i; }"
        )
        out = device.memory.alloc("out", 1, DType.INT32)
        with pytest.raises(KernelHang):
            runtime.launch(k, 1, 1, {"n": 1, "out": out}, budget=5000)

    def test_shared_oob_crashes(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(
            "kernel k(int n, int* out) { shared int s[4]; s[n] = 1; out[0] = 1; }"
        )
        out = device.memory.alloc("out", 1, DType.INT32)
        with pytest.raises(KernelCrash):
            runtime.launch(k, 1, 1, {"n": 100, "out": out})


class TestInstrumentationCalls:
    def test_library_receives_evaluated_args(self):
        seen = []

        class Probe(InstrumentationLibrary):
            def lib_probe(self, ctx, frame, a, b):
                seen.append((a, b, frame["x"]))

        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(
            'kernel k(int n) { int x = n * 2; __hauberk_probe(x + 1, "x"); }'
        )
        runtime.launch(k, 1, 1, {"n": 5}, lib=Probe())
        assert seen == [(11, "x", 10)]

    def test_unbound_call_crashes(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel("kernel k(int n) { __hauberk_nothing(n); }")
        with pytest.raises(KernelCrash):
            runtime.launch(k, 1, 1, {"n": 1}, lib=InstrumentationLibrary())

    def test_string_constant_reaches_hook_unchanged(self):
        # the compiled engine writes constants into Python source
        tricky = "a'b\"c\\d\ne'''"
        seen = []

        class Probe(InstrumentationLibrary):
            def lib_probe(self, ctx, frame, text):
                seen.append(text)

        k = validate_kernel(Kernel(name="k", params=[KernelParam("n", DType.INT32)],
                                   body=[CallStmt("__hauberk_probe", [Const(tricky)])]))
        GPURuntime(Device()).launch(k, 1, 1, {"n": 1}, lib=Probe())
        assert seen == [tricky]


class TestCompileLimits:
    def test_deep_loop_nest_raises_typed_error(self):
        # CPython allows about 20 statically nested blocks
        depth = 25
        loops = "".join(f"for (int i{d} = 0; i{d} < 1; i{d}++) {{ " for d in range(depth))
        k = parse_kernel(f"kernel deep(int n) {{ {loops} n = n + 1; {'} ' * depth}}}")
        with pytest.raises(KIRValidationError, match="kernel deep"):
            GPURuntime(Device()).prepare(k)

    @pytest.mark.parametrize("engine", ["closure", "lockstep"])
    def test_deep_expression_raises_typed_error(self, engine):
        # CPython allows 200 nested parentheses, and its parser stack
        # overflows (MemoryError) a little before that; an int add takes two
        k = parse_kernel("kernel deep(int n, int* out) { out[0] = "
                         + " + ".join(["n"] * 150) + "; }")
        device = Device()
        out = device.memory.alloc("out", 1, DType.INT32)
        with pytest.raises(KIRValidationError, match="nested too deeply"):
            GPURuntime(device, engine=engine).launch(k, 1, 1, {"n": 1, "out": out})


class TestLockstep:
    SYNC_SRC = """
kernel reduce(float* data, float* out, int n) {
    shared float tile[64];
    int t = threadIdx.x;
    tile[t] = data[blockIdx.x * blockDim.x + t];
    __syncthreads();
    if (t == 0) {
        float s = 0.0;
        for (int i = 0; i < blockDim.x; i++) { s = s + tile[i]; }
        out[blockIdx.x] = s;
    }
}
"""

    def test_barrier_reduction(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(self.SYNC_SRC)
        assert k.uses_sync
        data = np.arange(32, dtype=np.float32)
        ad = device.memory.alloc("d", 32, DType.FLOAT32)
        ao = device.memory.alloc("o", 2, DType.FLOAT32)
        device.memory.memcpy_htod(ad, data)
        runtime.launch(k, 2, 16, {"data": ad, "out": ao, "n": 32})
        out = device.memory.memcpy_dtoh(ao)
        assert out[0] == data[:16].sum()
        assert out[1] == data[16:].sum()

    def test_compiler_refuses_sync_kernels(self):
        k = parse_kernel(self.SYNC_SRC)
        with pytest.raises(KIRValidationError):
            CompiledKernel(k, costmodel=None or _cm())

    def test_lockstep_matches_compiler_on_plain_kernel(self, saxpy_kernel):
        # run the same kernel through both paths; outputs must agree
        device_a = Device()
        _res, out_fast = launch_saxpy(GPURuntime(device_a), saxpy_kernel)

        device_b = Device()
        prog = LockstepProgram(saxpy_kernel)
        xs = np.arange(64, dtype=np.float32)
        ys = np.ones(64, dtype=np.float32)
        ax = device_b.memory.alloc("x", 64, DType.FLOAT32)
        ay = device_b.memory.alloc("y", 64, DType.FLOAT32)
        device_b.memory.memcpy_htod(ax, xs)
        device_b.memory.memcpy_htod(ay, ys)
        ctx = ExecContext(device_b.memory)
        base = {"x": ax.base, "y": ay.base, "a": 2.0, "n": 64,
                "gridDim.x": 1, "gridDim.y": 1, "blockDim.x": 64, "blockDim.y": 1,
                "blockIdx.x": 0, "blockIdx.y": 0}
        frames = []
        for t in range(64):
            fr = dict(base)
            fr["threadIdx.x"] = t
            fr["threadIdx.y"] = 0
            frames.append(fr)
        prog.run_block(frames, ctx)
        out_slow = device_b.memory.memcpy_dtoh(ay)
        assert np.array_equal(out_fast, out_slow)

    def test_atomic_crash_message_matches_compiler(self):
        # index out of bounds and value dividing by zero: the engine
        # that evaluates the index first reports the OOB access
        src = ("kernel k(int n, int* out) { shared int s[4];"
               " atomicAdd(&s[n], 1 / (n - n)); out[0] = s[0]; }")
        messages = []
        for engine in ("closure", "lockstep"):
            device = Device()
            out = device.memory.alloc("out", 1, DType.INT32)
            with pytest.raises(KernelCrash) as exc:
                GPURuntime(device, engine=engine).launch(
                    parse_kernel(src), 1, 1, {"n": 9, "out": out})
            messages.append(str(exc.value))
        assert "shared memory OOB atomic s[9]" in messages[0]
        assert messages[1] == messages[0]

    def test_hang_message_matches_compiler(self):
        # one watchdog: a hang trial's observation note must not depend
        # on which engine ran the kernel
        src = ("kernel k(int n, int* out) { int i = 0;"
               " while (n < 10) { i++; } out[0] = i; }")
        messages = []
        for engine in ("closure", "lockstep"):
            device = Device()
            out = device.memory.alloc("out", 1, DType.INT32)
            with pytest.raises(KernelHang) as exc:
                GPURuntime(device, engine=engine).launch(
                    parse_kernel(src), 1, 2, {"n": 1, "out": out}, budget=100)
            messages.append(str(exc.value))
        assert messages[0] == "kernel hang: instruction budget exhausted"
        assert messages[1] == messages[0]

    def test_exit_statements_count_without_watchdog_check(self):
        # break/continue/return bump the step count but, as on the
        # compiled engine, do not trip the watchdog themselves: a
        # thread whose return is statement budget+1 still completes
        src = ("kernel k(int* out) { for (int i = 0; i < 3; i++) {"
               " if (i == 0) { continue; } break; } out[0] = 1; return; }")
        results = []
        for engine in ("closure", "lockstep"):
            device = Device()
            out = device.memory.alloc("out", 1, DType.INT32)
            results.append(GPURuntime(device, engine=engine).launch(
                parse_kernel(src), 1, 1, {"out": out}, budget=9))
        assert results[0].max_thread_steps == 10
        assert results[1] == results[0]

    def test_lockstep_hang_detection(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(
            """
kernel k(int n, int* out) {
    shared int s[4];
    __syncthreads();
    int i = 0;
    while (n < 10) { i++; }
    out[0] = i;
}
"""
        )
        out = device.memory.alloc("out", 1, DType.INT32)
        with pytest.raises(KernelHang):
            runtime.launch(k, 1, 4, {"n": 1, "out": out}, budget=2000)


def _cm():
    from repro.gpu.costmodel import CostModel

    return CostModel()


class TestCycleAccounting:
    def test_loop_cycles_attributed(self, runtime, accum_kernel):
        device = runtime.device
        xs = np.arange(16, dtype=np.float32)
        ad = device.memory.alloc("d", 16, DType.FLOAT32)
        ao = device.memory.alloc("o", 32, DType.FLOAT32)
        device.memory.memcpy_htod(ad, xs)
        res = runtime.launch(accum_kernel, 1, 32, {"data": ad, "out": ao, "n": 16})
        assert 0.5 < res.loop_fraction < 1.0
        assert res.total_cycles > 0
        assert res.max_thread_steps > 16

    def test_cost_scale_discounts(self):
        src = "kernel k(int n, int* out) { int a = n * 3 + 1; out[0] = a; }"
        k1 = parse_kernel(src)
        k2 = parse_kernel(src)
        k2.body[0].cost_scale = 0.5

        def cycles(k):
            device = Device()
            runtime = GPURuntime(device)
            out = device.memory.alloc("out", 1, DType.INT32)
            return runtime.launch(k, 1, 1, {"n": 1, "out": out}).total_cycles

        assert cycles(k2) < cycles(k1)


# ---------------------------------------------------------------------------
# closure vs lockstep: bit-identical results, lockstep as the reference
# ---------------------------------------------------------------------------


def _launch_on(src, args, engine, grid, block, n_out,
               out_dtype=DType.FLOAT32):
    """One launch on a fresh device; returns (LaunchResult, words)."""
    device = Device()
    full_args = dict(args)
    full_args["out"] = device.memory.alloc("out", n_out, out_dtype)
    result = GPURuntime(device, engine=engine).launch(
        parse_kernel(src), grid, block, full_args)
    return result, device.memory.snapshot()


def _assert_engines_agree(src, args, **kw):
    ref_res, ref_words = _launch_on(src, args, "lockstep", **kw)
    res, words = _launch_on(src, args, "closure", **kw)
    assert res == ref_res, f"closure vs lockstep: {res} != {ref_res}"
    assert np.array_equal(words, ref_words), (
        "closure vs lockstep: memory diverged at words "
        f"{np.nonzero(words != ref_words)[0][:5]}"
    )
    return ref_res, ref_words


def _campaign_results(name, mode, engine, n=16, seed=11):
    """A seeded full-execution campaign under one engine."""
    wl = get_workload(name)
    prog = HauberkProgram(wl)
    prog.runtime.engine = engine
    if mode == "fift":
        prog.train(seeds=[0])
    sites = enumerate_targets(wl.kernel)
    inp = wl.generate_input(0)
    specs = build_fault_specs(sites, inp.n_threads, masks_per_site=2,
                              bit_counts=(1, 6), seed=seed)[:n]
    result = run_campaign(None, specs, runner_factory=lambda:
                          prog.trial_runner(mode, 0))
    return prog, result


class TestEngineParity:
    def test_engine_validation(self):
        assert ENGINES == ("closure", "lockstep")
        for engine in ENGINES:
            assert GPURuntime(Device(), engine=engine).engine == engine
        with pytest.raises(LaunchError):
            GPURuntime(Device(), engine="warp9")

    def test_closure_is_the_default_and_vector_is_gone(self):
        assert GPURuntime(Device()).engine == "closure"
        for engine in ("vector", "auto"):
            with pytest.raises(LaunchError):
                GPURuntime(Device(), engine=engine)

    @pytest.mark.parametrize("name", all_workloads())
    def test_workload_launch_parity(self, name):
        # original-mode launch of every workload, closure vs lockstep
        wl = get_workload(name)
        inp = wl.generate_input(seed=7)
        outcomes = {}
        for engine in ENGINES:
            device = Device()
            args, _handles = wl.setup_memory(device, inp)
            result = GPURuntime(device, engine=engine).launch(
                wl.kernel, inp.grid, inp.block, args, budget=wl.hang_budget)
            outcomes[engine] = (result, device.memory.snapshot())
        (res_c, words_c), (res_l, words_l) = (
            outcomes["closure"], outcomes["lockstep"])
        assert res_c == res_l, f"{name}: LaunchResult diverged closure vs lockstep"
        assert np.array_equal(words_c, words_l), \
            f"{name}: device words diverged closure vs lockstep"

    def test_divergent_branch_parity(self):
        # odd/even threads take different arms; nested divergent If
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
        # per-thread trip counts, break and continue
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

    @pytest.mark.parametrize("src", [
        "kernel k(int* out, int n) {"
        " for (int i = 0; i < n; i++) { atomicAdd(&out[i % 2], i + 1); } }",
        "kernel k(int* out, int n) { shared int s[2]; s[0] = 0; s[1] = 0;"
        " for (int i = 0; i < n; i++) { atomicAdd(&s[i % 2], i + 1); }"
        " out[threadIdx.x] = s[threadIdx.x % 2]; }",
    ], ids=["global", "shared"])
    def test_atomic_cost_parity(self, src):
        # operand costs, and loop cycles for the atomic's own space
        res, _ = _assert_engines_agree(src, {"n": 5}, grid=1, block=4,
                                       n_out=4, out_dtype=DType.INT32)
        assert res.loop_cycles > 0

    def test_snan_denormal_payloads_roundtrip(self):
        # sNaN payloads, denormals, -0.0 and infinities copied through
        # a kernel must keep their raw bit patterns
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
        kernel = parse_kernel("""
        kernel copybits(float* src, float* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) { out[tid] = src[tid]; }
        }
        """)
        n = len(patterns)
        for engine in ENGINES:
            device = Device()
            runtime = GPURuntime(device, engine=engine)
            src_buf = device.memory.alloc("src", n, DType.FLOAT32)
            out_buf = device.memory.alloc("out", n, DType.FLOAT32)
            device.memory.write_words(src_buf.base, patterns)
            runtime.launch(kernel, 1, n, {"src": src_buf, "out": out_buf,
                                          "n": n})
            out = device.memory.read_words(out_buf.base, n)
            assert np.array_equal(out, patterns), engine

    def test_float_as_int_bit_parity(self):
        kernel = parse_kernel("""
        kernel f2i(float* src, int* out, int n) {
            int tid = blockIdx.x * blockDim.x + threadIdx.x;
            if (tid < n) { out[tid] = __float_as_int(src[tid] * 3.0); }
        }
        """)
        vals = np.array([0.0, -0.0, 1.5, -2.25, 3.4e38, 1e-40, float("inf")],
                        dtype=np.float32)
        n = len(vals)
        outs = {}
        for engine in ENGINES:
            device = Device()
            runtime = GPURuntime(device, engine=engine)
            src_buf = device.memory.alloc("src", n, DType.FLOAT32)
            out_buf = device.memory.alloc("out", n, DType.INT32)
            device.memory.memcpy_htod(src_buf, vals)
            runtime.launch(kernel, 1, n,
                           {"src": src_buf, "out": out_buf, "n": n})
            outs[engine] = device.memory.read_words(out_buf.base, n)
        assert np.array_equal(outs["closure"], outs["lockstep"])
        # 3.4e38 * 3 overflows binary32 to +inf
        assert int(outs["closure"][4]) == 0x7F800000

    @pytest.mark.parametrize("mode", ("fi", "fift"))
    @pytest.mark.parametrize("name", ("CP", "PNS", "SAD", "TPACF"))
    def test_campaign_outcomes_identical(self, name, mode):
        prog_l, ref = _campaign_results(name, mode, "lockstep")
        prog_c, clo = _campaign_results(name, mode, "closure")
        assert clo.summary() == ref.summary()
        for a, b in zip(clo.trials, ref.trials):
            assert a.spec == b.spec
            assert a.outcome == b.outcome
            assert a.observation == b.observation
        if mode == "fift":
            assert prog_c.cb.alarm_raised == prog_l.cb.alarm_raised
            assert prog_c.cb.sdc_bit == prog_l.cb.sdc_bit
            assert list(prog_c.cb.events) == list(prog_l.cb.events)

    def test_fi_activation_records_identical(self):
        # ActivationRecord.at_step is the thread's ctx.steps at the
        # strike, so this also pins the engines' per-thread step counts
        wl = get_workload("CP")
        inp = wl.generate_input(0)
        sites = enumerate_targets(wl.kernel)
        specs = build_fault_specs(sites, inp.n_threads, masks_per_site=2,
                                  bit_counts=(1, 3), seed=3)[:12]
        for spec in specs:
            runs = {}
            for engine in ENGINES:
                prog = HauberkProgram(get_workload("CP"))
                prog.runtime.engine = engine
                runs[engine] = prog.run(mode="fi", seed=0, fault=spec)
            c, lk = runs["closure"], runs["lockstep"]
            assert c.status == lk.status
            assert c.activation == lk.activation
            if c.output is not None:
                assert np.array_equal(
                    np.asarray(c.output).view(np.uint64),
                    np.asarray(lk.output).view(np.uint64),
                ), f"outputs diverged for {spec}"
