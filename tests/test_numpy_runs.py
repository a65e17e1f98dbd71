"""NumPy forms of long counted runs (``kir/interp/codegen.py``).

A counted run of at least ``NUMPY_RUN_MIN`` iterations with clean load
spans computes through its loop's NumPy form, when the loop has one.
Here: which ``fift`` loops get a form and why the others do not, the
left-to-right reductions the exactness argument rests on, a form
call's memory, which blocks keep from growing with the run, and the
runaway trial of CP's Figure 14 plan (``numatoms`` struck with mask
``0x8000`` in thread 15, so its atom loop runs 32,788 iterations),
which must end bit-identical with its form and with the threshold
raised above the run, through replay and through a full launch.
"""

import functools
import operator
import re
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest

from repro.bits import float_to_bits
from repro.core.program import HauberkProgram
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import GlobalMemory
from repro.kir import parse_kernel
from repro.kir.analysis.intervals import iteration_ranges
from repro.kir.analysis.loops import (
    INTRINSIC,
    LOAD_NOT_AFFINE,
    OPERATOR,
    RECURRENCE,
    HangShape,
    NumpyRun,
    find_loops,
    hang_shape,
    numpy_run,
)
from repro.kir.interp import codegen
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import ExecContext
from repro.obs.metrics import fresh_registry
from repro.swifi.differential import DifferentialEngine, get_engine
from repro.swifi.faultmodel import FaultSpec
from repro.workloads import get_workload
from repro.workloads.base import _PARSE_CACHE


SUM = """
kernel sum(float* src, float* out, float big, int n) {
    float acc = big;
    for (int i = 0; i < n; i++) {
        acc = acc + src[i];
    }
    out[0] = acc;
}
"""


def _form(kernel):
    """numpy_run of the kernel's one loop with a hang shape."""
    (loop,) = [info.stmt for info in find_loops(kernel).values()
               if isinstance(hang_shape(info.stmt), HangShape)]
    return numpy_run(loop, iteration_ranges(loop).bare)


def _results(registry) -> dict:
    metric = registry.as_dict().get("repro_kir_numpy_runs_total", {"samples": []})
    return {s["labels"]["result"]: s["value"] for s in metric["samples"]}


class TestEligibility:
    @pytest.mark.parametrize("name, reason", [
        ("CP", None),
        ("MRI-Q", INTRINSIC),  # sin and cos, which np.sin and np.cos do not round as libm
        ("RPES", OPERATOR),  # float(i)
        ("OCEAN", INTRINSIC),  # cos
    ])
    def test_fift_loops_with_a_form(self, name, reason):
        build = HauberkProgram(get_workload(name)).build("fift")
        form = _form(build.kernel)
        compiled = CompiledKernel(build.kernel, CostModel())
        if reason is not None:
            assert form == reason
            assert "_v0 :=" not in compiled.source and not compiled.form_sources
            return
        assert dict(form.inductions) == {"atomid": 1, "__cnt0": 1}
        assert dict(form.reductions) == {"energyx1": "+", "energyx2": "+"}
        assert "(_v0 := " in compiled.source
        (source,) = compiled.form_sources.values()
        assert ".accumulate(" in source and ".sum(" not in source and "reduce" not in source

    def test_mri_fhd_rounds_its_reduction_twice(self):
        # rfh = rfh + rmu * c - imu * s is (rfh + a) - b
        build = HauberkProgram(get_workload("MRI-FHD")).build("fift")
        assert _form(build.kernel) == RECURRENCE
        assert "_v0 :=" not in CompiledKernel(build.kernel, CostModel()).source

    @pytest.mark.parametrize("body, reason", [
        ("acc = acc + src[i] + 1.0;", RECURRENCE),  # (acc + x) + 1.0
        ("acc = src[i] - acc;", RECURRENCE),  # not acc - e
        ("acc = acc + prev; prev = src[i];", RECURRENCE),  # prev from the iteration before
        ("acc = acc + src[i]; t = acc * 2.0;", RECURRENCE),  # acc read outside its update
        ("acc = acc + (src[i] < 1.0);", OPERATOR),
        ("acc = acc + float(int(src[i]));", OPERATOR),
        ("acc = acc + pow(src[i], 2.0);", INTRINSIC),
        ("acc = acc + cos(src[i]);", INTRINSIC),
        ("acc = acc + float(i);", OPERATOR),
        ("acc = acc + src[-i + 3];", LOAD_NOT_AFFINE),  # a gather
        ("acc = acc + src[i + n];", LOAD_NOT_AFFINE),  # the index may wrap
        ("acc = acc + src[i] * src[n];", LOAD_NOT_AFFINE),  # an invariant load
        ("acc = acc + src[i] * float(n + 1);", OPERATOR),
        ("acc = acc + float(idx[i]);", OPERATOR),
        ("acc = acc + float(n ^ 3);", OPERATOR),
        ("acc = acc + -src[2 * i + 1] * sqrt(src[3 - i]) / prev;", None),
        ("t = src[i]; acc = acc * t; t = t + 1.0;", None),
    ])
    def test_reasons(self, body, reason):
        kernel = parse_kernel(f"""
kernel k(float* src, int* idx, float* out, int n) {{
    float acc = 0.0;
    float prev = 0.0;
    float t = 0.0;
    for (int i = 0; i < n; i++) {{
        {body}
    }}
    out[0] = acc + prev + t;
}}
""")
        form = _form(kernel)
        if reason is None:
            assert isinstance(form, NumpyRun)
        else:
            assert form == reason


class TestExactness:
    def test_reductions_add_left_to_right(self):
        # accumulate adds in order; reduce (and np.sum) add pairwise
        values = np.array([1e16] + [1.0] * 1000)
        assert functools.reduce(operator.add, values.tolist()) == 1e16
        assert np.add.accumulate(values)[-1] == 1e16
        assert np.add.reduce(values) == 1.0000000000000988e16

    def test_a_long_sum_rounds_as_the_scalar_run(self):
        kernel = parse_kernel(SUM)
        results = []
        for minimum in (codegen.NUMPY_RUN_MIN, 10**9):
            memory = GlobalMemory(2048)
            for addr in range(1000):
                memory.store_word(addr, float_to_bits(1.0))
            registry = fresh_registry()
            with patch.object(codegen, "NUMPY_RUN_MIN", minimum):
                compiled = CompiledKernel(kernel, CostModel())
            frame = {"src": 0, "out": 1500, "big": 1e16, "n": 1000}
            ctx = ExecContext(memory, budget=10**6)
            ctx.reset_thread(0, 0)
            compiled.run_thread(frame, ctx)
            results.append((frame["acc"], ctx.steps, ctx.cycles, ctx.loop_cycles,
                            memory.words.tobytes(), _results(registry)))
        (acc, *rest, ran), (scalar_acc, *scalar_rest, none) = results
        assert acc == scalar_acc == 1e16
        assert rest == scalar_rest
        assert ran == {"ran": 1} and none == {}


class TestBlocks:
    def test_cp_reads_its_atoms_as_strided_slices(self):
        build = HauberkProgram(get_workload("CP")).build("fift")
        (source,) = CompiledKernel(build.kernel, CostModel()).form_sources.values()
        assert f"for _s in range(0, K, {codegen.NUMPY_BLOCK}):" in source
        # atominfo[atomid * 4 + k], k = 0..3: no index arrays, no gathers
        assert source.count(":4].astype(_f64)") == 4
        assert "_arange" not in source and ".min()" not in source

    def test_a_slice_outside_the_view_leaves_the_run_to_the_scalar_engine(self):
        # a run's span terms keep its slices in the view, so only a
        # direct call reaches the form's index test
        (source,) = CompiledKernel(parse_kernel(SUM), CostModel()).form_sources.values()
        # src, i, the view, acc
        name = re.match(r"def (_npf\d+)\(K, v\d+, v\d+, mem_f32, v\d+\):", source).group(1)
        form = codegen._NumpyForm(source, dict(codegen._NUMPY_NS), name, "sum")
        memory = GlobalMemory(16)
        memory.f32[:] = 1.0
        view = memory.inline_loads[0]
        registry = fresh_registry()
        assert form(16, 0, 0, view, 0.5) == (16.5, 16)
        assert form(8, 9, 0, view, 0.5) is None  # the last word is past the end
        assert form(8, -1, 0, view, 0.5) is None  # the first is below 0
        assert _results(registry) == {"ran": 1, "index": 2}

    def test_a_form_call_takes_no_more_memory_for_a_longer_run(self):
        # CP's atom loop in one thread, numatoms iterations in one run
        compiled = CompiledKernel(parse_kernel(get_workload("CP").source), CostModel())
        block = codegen.NUMPY_BLOCK
        memory = GlobalMemory(4 * 8 * block + 64)
        memory.f32[:] = 1.0
        peaks = {}
        form_call = codegen._NumpyForm.__call__

        def traced(form, k, *args):
            tracemalloc.start()
            try:
                out = form_call(form, k, *args)
                peaks[k] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out is not None
            return out

        with patch.object(codegen._NumpyForm, "__call__", traced):
            for n in (block, block, 8 * block):  # the first call compiles the form
                frame = {"atominfo": 0, "numatoms": n, "energygrid": 4 * 8 * block,
                         "gridspacing": 0.5, "volx": 16, "blockIdx.x": 0, "blockIdx.y": 0,
                         "blockDim.x": 8, "blockDim.y": 8, "threadIdx.x": 1, "threadIdx.y": 1}
                ctx = ExecContext(memory, budget=10**9)
                ctx.reset_thread(0, 0)
                compiled.run_thread(frame, ctx)
        assert frame["atomid"] == 8 * block
        assert peaks[8 * block] <= 1.25 * peaks[block]


class TestRunawayTrial:
    #: fig14's ``numatoms#0`` strike: thread 15's atom loop runs 32,788
    #: iterations, 32,736 of them in one counted run
    SPEC = FaultSpec(site=1, mask=0x8000, thread=15, occurrence=42, timing="delayed")
    #: the threshold, and one above the run
    THRESHOLDS = (codegen.NUMPY_RUN_MIN, 10**9)

    @staticmethod
    def _program():
        """A CP program whose kernels are parsed, and so compiled, afresh."""
        _PARSE_CACHE.clear()
        program = HauberkProgram(get_workload("CP"))
        program.build("fift")
        program.train(seeds=[0])
        return program

    def test_full_launch_is_bit_identical(self):
        seen = []
        for minimum in self.THRESHOLDS:
            registry = fresh_registry()
            with patch.object(codegen, "NUMPY_RUN_MIN", minimum):
                program = self._program()
                result = program.run("fift", seed=0, fault=self.SPEC)
                observation = program.trial_runner("fift", 0)(self.SPEC)
            launch = result.launch
            seen.append((result.status, result.alarm, result.sdc_bit, result.output.tobytes(),
                         launch.total_cycles, launch.loop_cycles, launch.max_thread_steps,
                         program.device.memory.words.tobytes(), observation, _results(registry)))
        *form, ran = seen[0]
        *scalar, none = seen[1]
        assert form == scalar
        assert form[1]  # Hauberk-L's trip-count check catches it
        # one form call in each of the two launches
        assert ran == {"ran": 2} and none == {}

    def test_replay_is_bit_identical(self):
        seen = []
        for minimum in self.THRESHOLDS:
            registry = fresh_registry()
            with patch.object(codegen, "NUMPY_RUN_MIN", minimum):
                engine = get_engine(self._program(), "fift", 0)
                assert isinstance(engine, DifferentialEngine)
                thread = []
                run_thread_at = engine.compiled.run_thread_at

                def spy(frame, ctx, block, tib):
                    try:
                        run_thread_at(frame, ctx, block, tib)
                    finally:
                        thread.append((ctx.steps, ctx.cycles, ctx.loop_cycles,
                                       engine.memory.words.tobytes()))

                with patch.object(engine.compiled, "run_thread_at", spy):
                    observation = engine.run_trial(self.SPEC)
            seen.append((observation, thread, _results(registry)))
        (obs, thread, ran), (scalar_obs, scalar_thread, none) = seen
        assert obs is not None and obs.detected
        assert (obs, thread) == (scalar_obs, scalar_thread)
        assert ran == {"ran": 1} and none == {}
