"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.gpu.device import Device
from repro.gpu.runtime import GPURuntime
from repro.kir.parser import parse_kernel
from repro.kir.types import DType

#: Long engine-parity fuzz run (``--hypothesis-profile engine-fuzz``);
#: ``tests/test_property_interp_parity.py`` runs a few dozen examples
#: under any other profile.
settings.register_profile("engine-fuzz", max_examples=20_000, deadline=None)


@pytest.fixture(autouse=True)
def _isolate_shared_kernel_caches():
    """Drop the process-wide parsed-kernel cache after every test.

    Workload kernels are shared by source text, and translated builds /
    compiled programs are cached on the kernel objects — great for
    campaigns, but across *tests* it would make metrics and translator
    behavior depend on execution order.
    """
    yield
    from repro.workloads.base import _PARSE_CACHE

    _PARSE_CACHE.clear()


@pytest.fixture
def fix_chunk_size(monkeypatch):
    """Lease a forked campaign's specs in chunks of a given size.

    ``run_campaign`` sizes a forked run's chunks from the spec and
    worker counts (:func:`repro.exec.pool.default_chunk_size`); a test
    that needs a particular lease granularity calls
    ``fix_chunk_size(n)`` first.  ``workers=1`` always leases one spec.
    """
    from repro.swifi import scheduler

    def fix(size: int) -> None:
        monkeypatch.setattr(scheduler, "default_chunk_size",
                            lambda n_items, workers: size)

    return fix


@pytest.fixture
def device():
    return Device()


@pytest.fixture
def runtime(device):
    return GPURuntime(device)


SAXPY_SRC = """
kernel saxpy(float* x, float* y, float a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        float v = a * x[i] + y[i];
        y[i] = v;
    }
}
"""

ACCUM_SRC = """
kernel acc(float* data, float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float energy = 0.0;
    for (int i = 0; i < n; i++) {
        float d = data[i] - float(tid);
        energy += d * d;
    }
    out[tid] = energy;
}
"""


@pytest.fixture
def saxpy_kernel():
    return parse_kernel(SAXPY_SRC)


@pytest.fixture
def accum_kernel():
    return parse_kernel(ACCUM_SRC)


def launch_saxpy(runtime, kernel, n=64, a=2.0, lib=None):
    """Helper running saxpy over n elements; returns (result, output)."""
    device = runtime.device
    device.memory.reset()
    xs = np.arange(n, dtype=np.float32)
    ys = np.ones(n, dtype=np.float32)
    ax = device.memory.alloc("x", n, DType.FLOAT32)
    ay = device.memory.alloc("y", n, DType.FLOAT32)
    device.memory.memcpy_htod(ax, xs)
    device.memory.memcpy_htod(ay, ys)
    result = runtime.launch(
        kernel, grid=(n + 31) // 32, block=32,
        args={"x": ax, "y": ay, "a": a, "n": n}, lib=lib,
    )
    return result, device.memory.memcpy_dtoh(ay)
