"""Interpreter semantics: compiler path, lockstep path, and their parity."""

import math

import numpy as np
import pytest

from repro.errors import KernelCrash, KernelHang, KIRValidationError
from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir import parse_kernel
from repro.kir.interp.compiler import CompiledKernel
from repro.kir.interp.evalcore import (
    ExecContext,
    InstrumentationLibrary,
    c_int_cast,
    fdiv,
    idiv,
    imod,
    truthy,
)
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType

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
