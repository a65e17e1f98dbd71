"""GPU substrate tests: memory, device, cost model, runtime, cluster."""

import numpy as np
import pytest

from repro.errors import (
    CompileError,
    DeviceMemoryError,
    GPUError,
    LaunchError,
    RecoveryError,
)
from repro.gpu import (
    CostModel,
    Device,
    GPUNode,
    GPURuntime,
    GlobalMemory,
    FaultSite,
    hardware_components_of,
)
from repro.kir import parse_kernel
from repro.kir.types import DType

from conftest import launch_saxpy


class TestGlobalMemory:
    def test_alloc_and_flat_layout(self):
        mem = GlobalMemory(1024)
        a = mem.alloc("a", 100, DType.FLOAT32)
        b = mem.alloc("b", 50, DType.INT32)
        assert a.base == 0 and b.base == 100
        assert mem.used_words == 150
        assert mem.allocation_of(120).name == "b"
        assert mem.allocation_of(999) is None

    def test_no_page_protection_between_buffers(self):
        """A corrupted index reads the *next* buffer silently (GPU trait)."""
        mem = GlobalMemory(1024)
        a = mem.alloc("a", 4, DType.INT32)
        b = mem.alloc("b", 4, DType.INT32)
        mem.store_i32(b.base, 42)
        # an access through buffer a with index 4 lands in b — no fault
        assert mem.load_i32(a.base + 4) == 42

    def test_unallocated_but_on_device_reads_silently(self):
        """No MMU: any address on the device is readable (SDC path)."""
        mem = GlobalMemory(1024)
        mem.alloc("a", 4, DType.INT32)
        assert mem.load_i32(100) == 0  # unallocated scratch, no fault

    def test_off_device_access_crashes(self):
        mem = GlobalMemory(1024)
        mem.alloc("a", 4, DType.INT32)
        with pytest.raises(DeviceMemoryError):
            mem.load_i32(1024)
        with pytest.raises(DeviceMemoryError):
            mem.store_f32(-1, 1.0)

    def test_typed_roundtrip(self):
        mem = GlobalMemory(64)
        mem.alloc("a", 8, DType.FLOAT32)
        mem.store_f32(0, 1.5)
        assert mem.load_f32(0) == 1.5
        mem.store_i32(1, -7)
        assert mem.load_i32(1) == -7

    def test_float32_rounding_on_store(self):
        mem = GlobalMemory(64)
        mem.alloc("a", 2, DType.FLOAT32)
        mem.store_f32(0, 0.1)  # not representable in binary32
        assert mem.load_f32(0) == np.float32(0.1)

    def test_memcpy_roundtrip(self):
        mem = GlobalMemory(256)
        a = mem.alloc("a", 16, DType.FLOAT32)
        data = np.linspace(-1, 1, 16, dtype=np.float32)
        mem.memcpy_htod(a, data)
        assert np.array_equal(mem.memcpy_dtoh(a), data)

    def test_memcpy_int(self):
        mem = GlobalMemory(256)
        a = mem.alloc("a", 8, DType.INT32)
        data = np.array([-3, 0, 7, 2**31 - 1, -(2**31), 1, 2, 3], dtype=np.int32)
        mem.memcpy_htod(a, data)
        assert np.array_equal(mem.memcpy_dtoh(a), data)

    def test_oom(self):
        mem = GlobalMemory(16)
        with pytest.raises(GPUError):
            mem.alloc("big", 32, DType.INT32)

    def test_duplicate_name_rejected(self):
        mem = GlobalMemory(64)
        mem.alloc("a", 4, DType.INT32)
        with pytest.raises(GPUError):
            mem.alloc("a", 4, DType.INT32)

    def test_reset(self):
        mem = GlobalMemory(64)
        mem.alloc("a", 4, DType.INT32)
        mem.store_i32(0, 5)
        mem.reset()
        assert mem.used_words == 0
        assert mem.load_i32(0) == 0  # zeroed scratch

    def test_word_fault_injection(self):
        mem = GlobalMemory(64)
        mem.alloc("a", 4, DType.INT32)
        mem.store_i32(0, 0)
        mem.inject_word_fault(0, 0b101)
        assert mem.load_i32(0) == 5
        with pytest.raises(DeviceMemoryError):
            mem.inject_word_fault(63, 1)  # outside mapped region


class TestCostModel:
    def test_memory_dominates_alu(self):
        cm = CostModel()
        k = parse_kernel("kernel k(float* a, int i) { float x = a[i]; float y = x + 1.0; }")
        load_cost = cm.expr_cost(k.body[0].init)
        alu_cost = cm.expr_cost(k.body[1].init)
        assert load_cost > 10 * alu_cost

    def test_transcendental_more_than_mul(self):
        cm = CostModel()
        k = parse_kernel("kernel k(float a) { float s = sin(a); float m = a * a; }")
        assert cm.expr_cost(k.body[0].init) > cm.expr_cost(k.body[1].init)

    def test_spill_factor(self):
        cm = CostModel()
        assert cm.spill_factor(10, 20) == 1.0
        assert cm.spill_factor(30, 20) > 1.0
        assert cm.spill_factor(40, 20) > cm.spill_factor(30, 20)

    def test_libcall_costs(self):
        cm = CostModel()
        assert cm.libcall_cost("__hauberk_check_range") > 0
        assert cm.libcall_cost("__hauberk_fi") == 0
        assert cm.libcall_cost("__unknown") == 0


class TestRuntime:
    def test_saxpy(self, runtime, saxpy_kernel):
        result, out = launch_saxpy(runtime, saxpy_kernel, n=64)
        assert np.allclose(out, 2.0 * np.arange(64) + 1)
        assert result.n_threads == 64

    def test_launch_arg_validation(self, runtime, saxpy_kernel):
        with pytest.raises(LaunchError):
            runtime.launch(saxpy_kernel, 1, 32, args={"x": 0, "y": 0, "a": 1.0})
        with pytest.raises(LaunchError):
            runtime.launch(
                saxpy_kernel, 1, 32,
                args={"x": 0, "y": 0, "a": 1.0, "n": 1, "zz": 3},
            )

    @pytest.mark.parametrize("n", [2**31, -(2**31) - 1, 0xFFFFFFFF])
    def test_int_argument_outside_int32_rejected(self, runtime, saxpy_kernel, n):
        with pytest.raises(LaunchError, match="outside the int32 range"):
            runtime.launch(saxpy_kernel, 1, 32, args={"x": 0, "y": 0, "a": 1.0, "n": n})

    def test_int_argument_at_int32_limits_accepted(self, runtime, saxpy_kernel):
        for n in (-(2**31), 2**31 - 1):
            runtime.launch(saxpy_kernel, 1, 32, args={"x": 0, "y": 0, "a": 1.0, "n": n})

    def test_block_size_limit(self, runtime, saxpy_kernel):
        with pytest.raises(LaunchError):
            runtime.launch(saxpy_kernel, 1, 1024, args={})

    def test_bad_dims(self, runtime, saxpy_kernel):
        with pytest.raises(LaunchError):
            runtime.launch(saxpy_kernel, 0, 32, args={})

    def test_shared_memory_compile_check(self, runtime):
        k = parse_kernel(
            "kernel k(int n) { shared int big[9999]; int x = n; }"
        )
        with pytest.raises(CompileError):
            runtime.prepare(k)

    def test_prepared_kernel_cached(self, runtime, saxpy_kernel):
        p1 = runtime.prepare(saxpy_kernel)
        p2 = runtime.prepare(saxpy_kernel)
        assert p1 is p2

    def test_prepared_cache_does_not_pin_kernel(self, runtime):
        # regression: the cache used to be a never-evicted id()-keyed
        # dict on the runtime, keeping every prepared kernel alive
        import gc
        import weakref

        kernel = parse_kernel("kernel k(int n) { int x = n * 2; }")
        runtime.prepare(kernel)
        ref = weakref.ref(kernel)
        del kernel
        gc.collect()
        assert ref() is None

    def test_prepared_cache_resets_on_clone(self, runtime, saxpy_kernel):
        from repro.gpu.runtime import PREPARED_CACHE_ATTR

        runtime.prepare(saxpy_kernel)
        assert getattr(saxpy_kernel, PREPARED_CACHE_ATTR)
        clone = saxpy_kernel.clone()
        assert not getattr(clone, PREPARED_CACHE_ATTR, {})
        assert runtime.prepare(clone) is not runtime.prepare(saxpy_kernel)

    def test_prepared_cache_keyed_by_costmodel(self, saxpy_kernel):
        shared = CostModel()
        r1 = GPURuntime(Device(), costmodel=shared)
        r2 = GPURuntime(Device(), costmodel=shared)
        r3 = GPURuntime(Device(), costmodel=CostModel())
        assert r1.prepare(saxpy_kernel) is r2.prepare(saxpy_kernel)
        assert r3.prepare(saxpy_kernel) is not r1.prepare(saxpy_kernel)

    def test_disabled_device_rejects_launch(self, saxpy_kernel):
        device = Device()
        device.enabled = False
        with pytest.raises(LaunchError):
            GPURuntime(device).launch(saxpy_kernel, 1, 1, args={})

    def test_deterministic_cycles(self, saxpy_kernel):
        r1, _ = launch_saxpy(GPURuntime(Device()), saxpy_kernel)
        r2, _ = launch_saxpy(GPURuntime(Device()), saxpy_kernel)
        assert r1.total_cycles == r2.total_cycles
        assert r1.kernel_time == r2.kernel_time

    def test_2d_grid(self):
        device = Device()
        runtime = GPURuntime(device)
        k = parse_kernel(
            """
kernel k(int* out, int w) {
    int x = blockIdx.x * blockDim.x + threadIdx.x;
    int y = blockIdx.y * blockDim.y + threadIdx.y;
    out[y * w + x] = x + y * 100;
}
"""
        )
        out = device.memory.alloc("out", 64, DType.INT32)
        runtime.launch(k, (2, 2), (4, 4), {"out": out, "w": 8})
        data = device.memory.memcpy_dtoh(out).reshape(8, 8)
        assert data[3, 5] == 5 + 300
        assert data[7, 0] == 700


class TestFaultSites:
    def test_component_derivation(self):
        k = parse_kernel(
            "kernel k(float* a, int i) { float x = sqrt(a[i]); int y = i * 2; }"
        )
        fp_sites = hardware_components_of(k.body[0].init)
        assert FaultSite.FPU in fp_sites and FaultSite.MEMORY in fp_sites
        int_sites = hardware_components_of(k.body[1].init)
        assert FaultSite.ALU in int_sites and FaultSite.FPU not in int_sites
        assert FaultSite.REGISTER in int_sites


class TestCluster:
    def test_healthy_selection_and_migration(self):
        node = GPUNode(num_devices=3)
        d0 = node.healthy_device()
        replacement = node.migrate_from(d0)
        assert replacement is not d0
        assert not d0.enabled

    def test_exhaustion(self):
        node = GPUNode(num_devices=1)
        node.disable(node.devices[0])
        with pytest.raises(RecoveryError):
            node.healthy_device()

    def test_backoff_doubles_until_pass(self):
        node = GPUNode(num_devices=2, initial_backoff=1.0)
        bad = node.devices[0]
        node.disable(bad, now=0.0)
        calls = []

        def flaky_bist(device):
            calls.append(True)
            return len(calls) >= 3  # passes on the third probe

        assert node.run_backoff_daemon(0.5, flaky_bist) == []  # not due yet
        assert node.run_backoff_daemon(1.0, flaky_bist) == []  # probe 1 fails
        entry = node.pending_backoff(bad.device_id)
        assert entry.backoff == 2.0
        assert node.run_backoff_daemon(3.0, flaky_bist) == []  # probe 2 fails
        assert entry.backoff == 4.0
        assert node.run_backoff_daemon(7.0, flaky_bist) == [bad.device_id]
        assert bad.enabled
