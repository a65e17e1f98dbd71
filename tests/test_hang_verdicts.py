"""Hang verdicts: a trial launch decides a watchdog hang at a loop head.

The compiled engine may raise ``KernelHang`` at the head of a loop
whose remaining run is arithmetic (``hang_shape``) once it has computed
that the thread exceeds its budget before the loop ends or a load
leaves device memory.  Each boundary case here runs one thread twice,
with and without ``hang_verdicts``, and the two runs must end with the
same exception, message and ``ctx.steps``; when no verdict fires, the
frame, cycles and memory must match too.
"""

import pytest

from repro.core.program import HauberkProgram
from repro.errors import KernelCrash, KernelHang
from repro.gpu.memory import GlobalMemory
from repro.kir import parse_kernel
from repro.kir.analysis.loops import (
    BRANCH,
    DIVISION,
    LOAD_NOT_AFFINE,
    NESTED_LOOP,
    NO_TRIP_COUNT,
    STORE,
    HangShape,
    find_loops,
    hang_shape,
)
from repro.kir.interp import codegen
from repro.kir.interp.codegen import compile_kernel
from repro.kir.interp.evalcore import RETIRE, ExecContext, InstrumentationLibrary
from repro.workloads import get_workload

#: Device words of the boundary cases' memory: small, so loads leave it.
CAPACITY = 64
INT_MAX = 2**31 - 1

#: Two statements before the loop head (``acc``, ``i``), four per
#: iteration (condition, ``x``, ``acc``, update), the load second.
SUM = """
kernel sum(float* src, float* out, int n, int base) {
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float x = src[i + base];
        acc = acc + x;
    }
    out[0] = acc;
}
"""
HEAD, PERIOD = 2, 4


class _Probe(InstrumentationLibrary):
    """``__hauberk_probe`` records its calls and retires after ``live``
    of them in a thread (never, for None)."""

    def __init__(self, live=None):
        self.live = live
        self.calls = []

    def lib_probe(self, ctx, frame, value):
        self.calls.append((ctx.steps, value))
        if self.live is not None and len(self.calls) >= self.live:
            return RETIRE
        return None


def _run(src, args, budget, verdicts, lib=None):
    memory = GlobalMemory(CAPACITY)
    ctx = ExecContext(memory, lib=lib, budget=budget, hang_verdicts=verdicts)
    ctx.reset_thread(0, 0)
    frame = {"src": 0, "out": 40, **args}
    error = None
    try:
        compile_kernel(parse_kernel(src)).run_thread(frame, ctx)
    except (KernelHang, KernelCrash) as exc:
        error = (type(exc).__name__, str(exc))
    return {"error": error, "steps": ctx.steps, "verdict": ctx.hang_verdict,
            "frame": frame, "cycles": (ctx.cycles, ctx.loop_cycles),
            "words": memory.words.tolist(), "calls": lib.calls if lib else None}


def _both(src, args, budget, make_lib=lambda: None):
    """(verdict run, full run), checked to agree."""
    fast = _run(src, args, budget, True, make_lib())
    full = _run(src, args, budget, False, make_lib())
    assert full["verdict"] is None
    for key in ("error", "steps", "calls"):
        assert fast[key] == full[key], key
    if fast["verdict"] is None:
        assert fast == full
    return fast


HANG = ("KernelHang", "kernel hang: instruction budget exhausted")


class TestBoundaries:
    def test_budget_runs_out_at_the_final_condition_check(self):
        n = 5
        seen = _both(SUM, {"n": n, "base": 0}, budget=HEAD + n * PERIOD)
        assert seen["error"] == HANG and seen["verdict"] is not None
        assert seen["steps"] == HEAD + n * PERIOD + 1

    def test_one_step_earlier(self):
        n = 5
        seen = _both(SUM, {"n": n, "base": 0}, budget=HEAD + n * PERIOD - 1)
        assert seen["error"] == HANG and seen["verdict"] is not None

    def test_one_step_later_the_loop_ends_first(self):
        n = 5
        seen = _both(SUM, {"n": n, "base": 0}, budget=HEAD + n * PERIOD + 1)
        # the store after the loop is the statement that runs out
        assert seen["error"] == HANG and seen["verdict"] is None

    # base = CAPACITY - 5: the load of iteration 5 is the first outside
    # memory, at the second checked statement of that iteration
    def test_one_iteration_before_the_first_out_of_bounds_load(self):
        seen = _both(SUM, {"n": 100, "base": CAPACITY - 5},
                     budget=HEAD + 5 * PERIOD - 1)
        assert seen["error"] == HANG and seen["verdict"] is not None

    def test_budget_runs_out_at_the_crashing_loads_own_statement(self):
        seen = _both(SUM, {"n": 100, "base": CAPACITY - 5},
                     budget=HEAD + 5 * PERIOD + 1)
        assert seen["error"] == HANG and seen["verdict"] is not None

    def test_the_crash_wins_in_the_iteration_whose_load_leaves_memory(self):
        seen = _both(SUM, {"n": 100, "base": CAPACITY - 5},
                     budget=HEAD + 5 * PERIOD + 2)
        assert seen["error"][0] == "DeviceMemoryError" and seen["verdict"] is None
        assert "load outside device memory: 64" in seen["error"][1]

    def test_negative_address_crashes_first(self):
        seen = _both(SUM, {"n": 100, "base": -3}, budget=10_000)
        assert seen["error"][0] == "DeviceMemoryError" and seen["verdict"] is None

    def test_a_live_hook_in_the_body_gives_no_verdict(self):
        src = SUM.replace("acc = acc + x;", "acc = acc + x; __hauberk_probe(i);")
        seen = _both(src, {"n": 1000, "base": 0}, budget=200, make_lib=_Probe)
        assert seen["error"] == HANG and seen["verdict"] is None

    def test_a_hook_that_retires_lets_the_next_iteration_decide(self):
        src = SUM.replace("acc = acc + x;", "acc = acc + x; __hauberk_probe(i);")
        seen = _both(src, {"n": 1000, "base": 0}, budget=200,
                     make_lib=lambda: _Probe(live=3))
        assert seen["error"] == HANG and seen["verdict"] is not None
        assert len(seen["calls"]) == 3

    def test_the_flag_off_gives_no_verdict(self):
        seen = _run(SUM, {"n": 1000, "base": 0}, budget=200, verdicts=False)
        assert seen["error"] == HANG and seen["verdict"] is None
        assert seen["frame"]["i"] == (200 - HEAD) // PERIOD

    def test_an_iterator_near_int_max_gives_no_verdict(self):
        # the exact trip count is 8; the int32 iterator wraps and the
        # loop runs on into the budget
        src = """
        kernel spin(float* out, int n) {
            float acc = 0.0;
            for (int i = 2147483640; i <= n; i++) { acc = acc + 1.0; }
            out[0] = acc;
        }
        """
        seen = _both(src, {"n": INT_MAX}, budget=1000)
        assert seen["error"] == HANG and seen["verdict"] is None

    def test_an_index_that_wraps_before_the_hang_gives_no_verdict(self):
        # i * 4 leaves int32 in the 13th iteration; the wrapped index
        # stays in memory, and the budget runs out two iterations later
        src = SUM.replace("src[i + base]", "src[i * 4 + base]").replace(
            "int i = 0", "int i = 536870900")
        seen = _both(src, {"n": INT_MAX, "base": -2147483600},
                     budget=HEAD + 15 * PERIOD)
        assert seen["error"] == HANG and seen["verdict"] is None

    def test_verdict_within_int32_range_near_int_max(self):
        src = SUM.replace("int i = 0", "int i = 2147483000")
        seen = _both(src, {"n": INT_MAX, "base": -2147483000}, budget=200)
        assert seen["error"] == HANG and seen["verdict"] is not None


class TestCoveredLoops:
    """A loop head whose budget covers every iteration left and the
    condition test that ends the loop makes no verdict call: the
    verdict would be False."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        real = codegen._hang_verdict

        def counting(*args):
            calls.append(real(*args))
            return calls[-1]

        monkeypatch.setattr(codegen, "_hang_verdict", counting)
        return calls

    def test_a_covered_loop_makes_no_verdict_call(self, calls):
        n = 5
        seen = _both(SUM, {"n": n, "base": 0}, budget=HEAD + n * PERIOD + 1)
        assert seen["verdict"] is None and calls == []

    def test_one_step_short_of_covering_calls_the_verdict(self, calls):
        n = 5
        seen = _both(SUM, {"n": n, "base": 0}, budget=HEAD + n * PERIOD)
        assert seen["verdict"] is not None and calls == [True]

    @pytest.mark.parametrize("budget, verdict", [
        (HEAD + 5 * PERIOD - 1, True),   # runs out before the load leaves memory
        (HEAD + 5 * PERIOD + 2, False),  # the crash comes first
    ])
    def test_an_uncovered_loop_still_asks(self, calls, budget, verdict):
        _both(SUM, {"n": 100, "base": CAPACITY - 5}, budget=budget)
        assert calls == [verdict]


def _loop(src):
    """The shape of the kernel's outermost loop, or why it has none."""
    kernel = parse_kernel(src)
    (info, *_inner) = find_loops(kernel).values()
    return hang_shape(info.stmt)


class TestStaticShape:
    def test_sum_loop_qualifies(self):
        shape = _loop(SUM)
        assert isinstance(shape, HangShape)
        assert (shape.period, shape.step, shape.op) == (PERIOD, 1, "<")
        (load,) = shape.loads
        assert load.position == 2 and load.coefs[-1] == 1

    @pytest.mark.parametrize("body, reason", [
        ("if (x > 0.0) { acc = acc + x; }", BRANCH),
        ("out[i] = x;", STORE),
        ("for (int j = 0; j < 2; j++) { acc = acc + x; }", NESTED_LOOP),
        ("int q = i / n;", DIVISION),
        ("float y = src[i * i];", LOAD_NOT_AFFINE),
        ("n = n - 1;", NO_TRIP_COUNT),
        ("base = base + 1;", LOAD_NOT_AFFINE),
    ])
    def test_reasons(self, body, reason):
        assert _loop(SUM.replace("acc = acc + x;", body)) == reason

    def test_constant_division_qualifies(self):
        assert isinstance(_loop(SUM.replace("acc = acc + x;", "int q = i / 3;")),
                          HangShape)

    def test_while_loop_has_no_trip_count(self):
        src = SUM.replace("for (int i = 0; i < n; i++) {",
                          "int i = 0; while (i < n) { i = i + 1;")
        assert _loop(src) == NO_TRIP_COUNT


class TestWorkloadShapes:
    """Which Parboil loops a trial can decide at the loop head."""

    EXPECTED = {
        "CP": {0: "shape"},
        "MRI-Q": {0: "shape"},
        "MRI-FHD": {0: "shape"},
        "RPES": {0: "shape"},
        "PNS": {0: BRANCH},
        "SAD": {0: NESTED_LOOP, 1: BRANCH},
        "TPACF": {0: NO_TRIP_COUNT, 1: BRANCH, 2: NO_TRIP_COUNT},
    }

    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_fift_build_loops(self, name):
        kernel = HauberkProgram(get_workload(name)).build("fift").kernel
        shapes = {loop_id: hang_shape(info.stmt)
                  for loop_id, info in find_loops(kernel).items()}
        got = {k: "shape" if isinstance(v, HangShape) else v for k, v in shapes.items()}
        assert got == self.EXPECTED[name]
