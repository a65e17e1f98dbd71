"""Fast iterations and inline loads in the compiled engine.

Once every hook a loop body calls has retired, the compiled engine runs
each iteration that the budget covers through a copy without
per-statement bookkeeping, and it reads device memory inline.  Each
boundary case here runs one thread on the compiled engine and on the
lockstep interpreter, which has neither.  The two must end alike:
exception and message, ``ctx.steps``, cycles, frame, memory and hook
calls.  A line tracer (:class:`FastCounter`) counts the fast
iterations that completed, those of a counted run included, so each
case also pins which path ran.
"""

import sys

import pytest

from repro.bits import float_to_bits
from repro.errors import KernelCrash, KernelHang
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import FootprintRecordingMemory, GlobalMemory
from repro.kir import parse_kernel
from repro.kir.analysis.loops import (
    ATOMIC,
    EARLY_EXIT,
    NESTED_LOOP,
    SHARED_MEMORY,
    STORE,
    FastIteration,
    fast_iteration,
    find_loops,
)
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.interp.evalcore import RETIRE, ExecContext, InstrumentationLibrary
from repro.kir.interp.lockstep import LockstepProgram

#: Device words: small, so loads leave memory.
CAPACITY = 64

#: Two statements before the loop head (``acc``, ``i``), five per
#: iteration (condition, ``x``, ``y``, ``acc``, update); ``x`` loads at
#: ``base + i`` and ``y`` at ``lo + i``.
SUM = """
kernel sum(float* src, float* out, int n, int base, int lo) {
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float x = src[i + base];
        float y = src[i + lo];
        acc = acc + x * y;
    }
    out[0] = acc;
}
"""
HEAD, PERIOD = 2, 5
HANG = ("KernelHang", "kernel hang: instruction budget exhausted")


class FastCounter:
    """Counts the fast iterations of ``compiled`` that complete while
    the counter is active (a ``with`` block); tracing only.  A counted
    run completes ``_n<id>`` iterations at once."""

    def __init__(self, compiled: CompiledKernel):
        self.filename = f"<kernel {compiled.kernel.name}>"
        # a fast iteration or run ends with the ``continue`` just before
        # its ``except _RERUN:``, whose next line restores ``_r<id>``
        lines = compiled.source.splitlines()
        self.marks = {n - 1: "_n" + lines[n].rsplit("_r", 1)[1]
                      for n, line in enumerate(lines, 1) if line.strip() == "except _RERUN:"}
        self.count = 0

    def _line(self, frame, event, arg):
        if event == "line" and frame.f_lineno in self.marks:
            self.count += frame.f_locals.get(self.marks[frame.f_lineno], 1)
        return self._line

    def _call(self, frame, event, arg):
        return self._line if frame.f_code.co_filename == self.filename else None

    def __enter__(self):
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc_info):
        sys.settrace(self._previous)


class _Probe(InstrumentationLibrary):
    """``__hauberk_probe`` records its calls; after ``live`` of them it
    returns RETIRE and ignores later calls, as the retire contract asks,
    so lockstep (which keeps calling) records the same."""

    def __init__(self, live=None):
        self.live = live
        self.calls = []

    def lib_probe(self, ctx, frame, value):
        if self.live is not None and len(self.calls) >= self.live:
            return RETIRE
        self.calls.append((ctx.steps, value))
        return RETIRE if self.live is not None and len(self.calls) >= self.live else None


class _CountingMemory(GlobalMemory):
    """GlobalMemory noting every load that reaches its accessors."""

    def __init__(self, capacity):
        super().__init__(capacity)
        self.method_loads = []

    def load_f32(self, addr):
        self.method_loads.append(addr)
        return super().load_f32(addr)

    def load_i32(self, addr):
        self.method_loads.append(addr)
        return super().load_i32(addr)


def _run(kernel, engine, args, budget, lib=None, memory=None, words=None,
         cycles=(0.0, 0.0)):
    memory = memory if memory is not None else GlobalMemory(CAPACITY)
    for addr, bits in (words or {}).items():
        memory.store_word(addr, bits)
    ctx = ExecContext(memory, lib=lib, budget=budget)
    ctx.cycles, ctx.loop_cycles = cycles
    frame = {"src": 0, "out": 40, **args}
    fast = None
    error = None
    try:
        if engine == "lockstep":
            ctx.block = 0
            LockstepProgram(kernel, CostModel()).run_block([frame], ctx)
        else:
            compiled = CompiledKernel(kernel, CostModel())
            ctx.reset_thread(0, 0)
            with FastCounter(compiled) as counter:
                try:
                    compiled.run_thread(frame, ctx)
                finally:
                    fast = counter.count
    except (KernelHang, KernelCrash) as exc:
        error = (type(exc).__name__, str(exc))
    words = memory.words.tolist() if isinstance(memory, GlobalMemory) else None
    return {"error": error, "steps": ctx.steps, "cycles": (ctx.cycles, ctx.loop_cycles),
            "frame": {k: repr(v) for k, v in frame.items()}, "words": words,
            "calls": lib.calls if lib is not None else None}, fast


def _both(src, args, budget=10_000, make_lib=lambda: None, kernel=None, **kw):
    """(compiled run, completed fast iterations), checked against lockstep."""
    kernel = kernel if kernel is not None else parse_kernel(src)
    seen, fast = _run(kernel, "compiled", args, budget, make_lib(), **kw)
    ref, _ = _run(kernel, "lockstep", args, budget, make_lib(), **kw)
    assert seen == ref
    return seen, fast


class TestFastPath:
    def test_every_iteration_runs_fast_without_hooks(self):
        seen, fast = _both(SUM, {"n": 10, "base": 0, "lo": 3})
        assert seen["error"] is None and fast == 10
        assert seen["steps"] == HEAD + 10 * PERIOD + 1 + 1  # last test, store

    @pytest.mark.parametrize("k", [0, 1, 4])
    @pytest.mark.parametrize("load", ["x", "y"])
    def test_a_crash_at_each_load_of_iteration_k_matches_the_checked_path(self, k, load):
        # the load of iteration k reads address CAPACITY, the first
        # outside memory; iterations before it run fast
        far = {"base": CAPACITY - k, "lo": 0} if load == "x" else {"base": 0, "lo": CAPACITY - k}
        seen, fast = _both(SUM, {"n": 100, **far})
        assert seen["error"] == (
            "DeviceMemoryError",
            f"kernel crash: load outside device memory: {CAPACITY} (block -1, thread -1)")
        assert fast == k
        # the crash is the x (or y) statement of iteration k
        assert seen["steps"] == HEAD + k * PERIOD + (2 if load == "x" else 3)

    @pytest.mark.parametrize("r", range(PERIOD))
    def test_a_budget_within_one_iteration_of_the_head_takes_the_checked_path(self, r):
        m = 6
        budget = HEAD + m * PERIOD + r
        seen, fast = _both(SUM, {"n": 100, "base": 0, "lo": 0}, budget=budget)
        assert seen["error"] == HANG and seen["steps"] == budget + 1
        assert fast == m  # iteration m has r < PERIOD steps left

    def test_a_live_hook_keeps_the_checked_path(self):
        src = SUM.replace("acc = acc + x * y;", "acc = acc + x * y; __hauberk_probe(i);")
        seen, fast = _both(src, {"n": 8, "base": 0, "lo": 0}, make_lib=_Probe)
        assert fast == 0 and len(seen["calls"]) == 8

    def test_a_hook_that_retires_mid_loop_switches_over_at_the_next_head(self):
        src = SUM.replace("acc = acc + x * y;", "acc = acc + x * y; __hauberk_probe(i);")
        seen, fast = _both(src, {"n": 8, "base": 0, "lo": 0},
                           make_lib=lambda: _Probe(live=3))
        assert len(seen["calls"]) == 3 and fast == 8 - 3

    def test_a_retired_calls_crashing_argument_still_crashes(self):
        src = SUM.replace("acc = acc + x * y;",
                          "acc = acc + x * y; __hauberk_probe(src[i + lo + 1]);")
        seen, fast = _both(src, {"n": 100, "base": 0, "lo": CAPACITY - 6},
                           make_lib=lambda: _Probe(live=1))
        assert seen["error"][0] == "DeviceMemoryError" and fast == 4

    def test_if_arms_charge_their_own_steps_and_cycles(self):
        src = SUM.replace("acc = acc + x * y;", """
            if (i < 3) { acc = acc + x; } else { acc = acc - y; float z = x / 3.0; }
        """)
        seen, fast = _both(src, {"n": 7, "base": 0, "lo": 1},
                           words={k: float_to_bits(k - 2.5) for k in range(10)})
        assert seen["error"] is None and fast == 7

    def test_a_crash_in_an_if_arm_matches_the_checked_path(self):
        src = SUM.replace("acc = acc + x * y;",
                          "if (i > 2) { int q = 7 / (i - 5); acc = acc + float(q); }")
        seen, fast = _both(src, {"n": 10, "base": 0, "lo": 0})
        assert seen["error"][1].startswith("kernel crash: integer division by zero")
        assert fast == 5

    def test_a_crash_after_an_if_arm_undoes_the_arms_charge(self):
        # the arm charges its steps and cycles at its end, before the
        # load after it leaves memory in iteration 3
        src = SUM.replace("acc = acc + x * y;", """
            if (i < 2) { acc = acc + x; } else { acc = acc - y; }
            float z = src[i + lo + 1];
        """)
        seen, fast = _both(src, {"n": 10, "base": 0, "lo": CAPACITY - 4})
        assert seen["error"][0] == "DeviceMemoryError" and fast == 3

    def test_a_while_loop_runs_fast(self):
        src = """
        kernel spin(float* src, float* out, int n) {
            float acc = 0.0;
            int i = 0;
            while (i < n) { acc = acc + src[i]; i = i + 1; }
            out[0] = acc;
        }
        """
        seen, fast = _both(src, {"n": 9}, words={k: float_to_bits(0.5 * k) for k in range(9)})
        assert seen["error"] is None and fast == 9

    def test_a_non_dyadic_cost_scale_gets_no_copy(self):
        kernel = parse_kernel(SUM)
        assert "except _RERUN:" in CompiledKernel(kernel, CostModel()).source
        odd = parse_kernel(SUM)
        odd.body[0].cost_scale = 0.1  # acc = 0.0, before the loop
        assert "except _RERUN:" not in CompiledKernel(odd, CostModel()).source
        seen, fast = _both(None, {"n": 10, "base": 0, "lo": 0}, kernel=odd)
        assert seen["error"] is None and fast == 0


class TestInlineLoads:
    COPY = """
    kernel copy(float* src, float* out, int n) {
        float a = 0.0;
        float b = 0.0;
        for (int i = 0; i < n; i++) {
            a = src[0];
            b = src[1];
        }
        out[0] = a;
        out[1] = b;
    }
    """
    SNAN, NEG_ZERO = 0x7FA00001, 0x80000000

    def test_snan_payload_and_negative_zero_keep_their_bits(self):
        memory = _CountingMemory(CAPACITY)
        seen, fast = _run(parse_kernel(self.COPY), "compiled", {"n": 3}, 10_000,
                          memory=memory, words={0: self.SNAN, 1: self.NEG_ZERO})
        assert seen["error"] is None and fast == 3
        assert seen["words"][40:42] == [self.SNAN, self.NEG_ZERO]
        # the NaN word takes the accessor every time; -0.0 reads inline
        assert memory.method_loads == [0, 0, 0]

    def test_int_loads_read_inline(self):
        src = """
        kernel isum(int* src, int* out, int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) { acc = acc + src[i]; }
            out[0] = acc;
        }
        """
        memory = _CountingMemory(CAPACITY)
        seen, fast = _run(parse_kernel(src), "compiled", {"n": 4}, 10_000, memory=memory,
                          words={0: 5, 1: 0xFFFFFFFF, 2: 0x80000000, 3: 7})
        assert seen["error"] is None and fast == 4 and memory.method_loads == []
        assert seen["words"][40] == (5 - 1 - 2**31 + 7) & 0xFFFFFFFF

    @pytest.mark.parametrize("base, addr", [(-3, -3), (CAPACITY - 1, CAPACITY)])
    def test_out_of_bounds_load_notes_stay_byte_identical(self, base, addr):
        seen, _fast = _both(SUM, {"n": 5, "base": base, "lo": base + 1})
        assert seen["error"] == (
            "DeviceMemoryError",
            f"kernel crash: load outside device memory: {addr} (block -1, thread -1)")

    def test_the_footprint_recorder_still_logs_every_load(self):
        recording = FootprintRecordingMemory(GlobalMemory(CAPACITY))
        seen, fast = _run(parse_kernel(SUM), "compiled", {"n": 6, "base": 10, "lo": 30},
                          10_000, memory=recording)
        assert seen["error"] is None and fast == 6
        assert recording.fp.loads == set(range(10, 16)) | set(range(30, 36))
        assert recording.fp.stores == [(40, 0, 0)]


def _loop(src):
    kernel = parse_kernel(src)
    (info, *_inner) = find_loops(kernel).values()
    return fast_iteration(info.stmt)


class TestStaticRule:
    def test_sum_loop_qualifies(self):
        assert _loop(SUM) == FastIteration(loop_id=0, max_steps=PERIOD, calls=())

    def test_max_steps_take_the_longer_arm_and_hooks_are_named(self):
        fast = _loop(SUM.replace("acc = acc + x * y;", """
            if (x > y) { acc = acc + x; __hauberk_probe(i); } else { acc = acc - y; }
        """))
        # the if and its longer arm replace one statement
        assert fast.max_steps == PERIOD + 2
        assert [call.func for call in fast.calls] == ["__hauberk_probe"]

    @pytest.mark.parametrize("body, reason", [
        ("out[i] = x;", STORE),
        ("for (int j = 0; j < 2; j++) { acc = acc + x; }", NESTED_LOOP),
        ("if (x > 0.0) { break; }", EARLY_EXIT),
        ("atomicAdd(&out[0], x);", ATOMIC),
        ("acc = acc + tile[0];", SHARED_MEMORY),
    ])
    def test_reasons(self, body, reason):
        src = SUM.replace("acc = acc + x * y;", body).replace(
            "float acc = 0.0;", "shared float tile[4];\n    float acc = 0.0;")
        assert _loop(src) == reason
