"""Int32 arithmetic and ``__float_as_int`` against independent references.

The engine-parity fuzz cannot catch a wrong int32 wrap rule: lockstep
evaluates expressions through the same emitter as the compiled engine.
So the property here checks both compiled forms -- a lone expression
(``compile_expr``, which lockstep uses) and a statement of a compiled
thread function -- against a tree-walker written in this file, which
applies ``wrap_i32`` after every operation and C's truncating ``/`` and
``%``.  Operands are drawn from the int32 boundary values, where a
missing or misplaced wrap shows.

Tier-1 runs a few dozen examples; the ``engine-fuzz`` hypothesis
profile (``tests/conftest.py``) runs twenty thousand::

    PYTHONPATH=src python -m pytest tests/test_property_int32.py \\
        --hypothesis-profile engine-fuzz

The ``__float_as_int`` table pins the bit cast at its edges (signed
zeros, infinities, NaN payloads, denormals, the float32 range limit)
for the compiled engine's inline form, its helper and lockstep; the
``int()`` table pins the inline conversion against ``c_int_cast``.

The guard-edge property runs int arithmetic inside a loop that gets a
fast iteration, whose bare operations rely on the range guards of its
head test (``kir/analysis/intervals.py``): the iterator, a counter and
a loop invariant start at, next to and beyond each guard bound and the
int32 limits, so fast iterations with bare arithmetic and iterations
whose guard fails (and which run checked) both occur, and the compiled
engine must match lockstep in exception, steps, cycles, frame and
memory.  The ``engine-fuzz`` profile runs it at twenty thousand
examples too::

    PYTHONPATH=src python -m pytest tests/test_property_int32.py \\
        -k guard_edges --hypothesis-profile engine-fuzz

The counted-run property draws loops with a hang shape whose run count
(``kir/interp/codegen.py``) each of its terms decides in turn: the trip
count, the budget, each cycle total started near ``2**50``, the
iterator's and a counter's guards, the end of memory, zero and either
side of a slow span, over global, slow-set and limit-0 memory; pinned
examples put each term one iteration short of, at and past the others.
It runs at twenty thousand examples under ``-k counted_runs``.

The NumPy-run property patches ``NUMPY_RUN_MIN`` to 1, so every clean
counted run of a loop with a NumPy form takes it, and ``NUMPY_BLOCK``
to 3, so runs cross block boundaries; it draws the same loops (the one
refused a form, and one with a form) over words that are NaNs,
infinities, signed zeros under a divisor, negative square-root
operands and subnormals, with load strides of either sign; pinned
examples reach each result a run's form can give (``ran``,
``nan_word``, ``nonfinite``, ``zero_divisor``), the failing tests in a
later block than the first, and a falling slice that reads address 0.
The form's ``index`` test no run reaches, since a run's span terms keep
its bare addresses in the view; ``tests/test_numpy_runs.py`` calls a
form directly for it.  It runs at twenty thousand examples under ``-k
numpy_runs``.
"""

import math
import re
from unittest.mock import patch

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from repro.bits import bits_to_float, bits_to_int, float_to_bits, wrap_i32
from repro.errors import KernelCrash
from repro.gpu.costmodel import CostModel
from repro.gpu.memory import FootprintRecordingMemory, GlobalMemory
from repro.kir import parse_kernel
from repro.kir.analysis.intervals import iteration_ranges
from repro.kir.analysis.loops import find_loops
from repro.kir.astnodes import (
    Assign, BinOp, Call, Const, Decl, For, If, Kernel, KernelParam, Store, UnOp, Var,
)
from repro.kir.interp import codegen
from repro.kir.interp.codegen import FLT_MAX, CompiledKernel, compile_expr, compile_kernel
from repro.kir.interp.evalcore import ExecContext, c_int_cast
from repro.kir.interp.lockstep import LockstepProgram
from repro.kir.types import DType
from repro.kir.validate import validate_kernel
from repro.obs.metrics import fresh_registry

from test_fast_iterations import _run

INT_MIN = -(2**31)
INT_MAX = 2**31 - 1
#: Operands: the int32 limits, the values next to zero, +-2**30 (whose
#: sum and products overflow) and shift counts that C masks (32, -1).
BOUNDARY = (INT_MIN, INT_MAX, INT_MIN + 1, INT_MAX - 1, -1, 0, 1, 2**30, -(2**30),
            31, 32, -32)
#: Int parameters of the generated kernels; their values are drawn too.
PARAMS = ("a", "b", "c")
BINARY = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
          "<", "<=", ">", ">=", "==", "!=")
#: Examples per tier-1 run; the ``engine-fuzz`` profile replaces it.
TIER1_EXAMPLES = 60


def _fuzz_settings():
    long_run = settings.get_profile("engine-fuzz")
    if settings.default is long_run:
        return settings(long_run)
    return settings(max_examples=TIER1_EXAMPLES, deadline=None)


# -- expression trees: tuples, turned into KIR per example --------------------

_leaves = st.one_of(
    st.tuples(st.just("const"), st.sampled_from(BOUNDARY)),
    st.tuples(st.just("var"), st.sampled_from(PARAMS)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(BINARY), children, children),
        st.tuples(st.just("un"), st.sampled_from(("-", "~")), children),
        st.tuples(st.just("call"), st.sampled_from(("min", "max")), children, children),
        st.tuples(st.just("call"), st.sampled_from(("abs", "int")), children),
    )


trees = st.recursive(_leaves, _extend, max_leaves=10)


def _kir(tree):
    kind = tree[0]
    if kind == "const":
        return Const(tree[1])
    if kind == "var":
        return Var(tree[1])
    if kind == "bin":
        return BinOp(tree[1], _kir(tree[2]), _kir(tree[3]))
    if kind == "un":
        return UnOp(tree[1], _kir(tree[2]))
    return Call(tree[1], [_kir(t) for t in tree[2:]])


def _c_div(a, b):
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def _c_mod(a, b):
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


def _reference(tree, env):
    """C int32 semantics: every operation's result wrapped to int32;
    raises ``ZeroDivisionError`` where the kernel crashes."""
    kind = tree[0]
    if kind == "const":
        return tree[1]
    if kind == "var":
        return env[tree[1]]
    args = [_reference(t, env) for t in tree[2:]]
    op = tree[1]
    if kind == "un":
        (x,) = args
        return wrap_i32(-x if op == "-" else ~x)
    if kind == "call":
        if op in ("min", "max"):
            return (min if op == "min" else max)(*args)
        return wrap_i32(abs(args[0]) if op == "abs" else args[0])
    a, b = args
    if op in ("/", "%"):
        if b == 0:
            raise ZeroDivisionError
        return wrap_i32(_c_div(a, b) if op == "/" else _c_mod(a, b))
    if op in ("<<", ">>"):
        b &= 31
        return wrap_i32(a << b if op == "<<" else a >> b)
    compare = {"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b, "==": a == b,
               "!=": a != b}
    if op in compare:
        return int(compare[op])
    return wrap_i32({"+": a + b, "-": a - b, "*": a * b, "&": a & b, "|": a | b,
                     "^": a ^ b}[op])


def _int_kernel(expr):
    """``r = expr; o[0] = r`` over the int parameters, validated."""
    params = [KernelParam(p, DType.INT32) for p in PARAMS]
    params.append(KernelParam("o", DType.PTR_INT32))
    kernel = Kernel(name="oracle", params=params, body=[
        Decl("r", DType.INT32, expr),
        Store(ptr=Var("o"), index=Const(0), value=Var("r")),
    ])
    return validate_kernel(kernel)


def _outcome(fn):
    try:
        return ("value", fn())
    except (KernelCrash, ZeroDivisionError):
        return ("crash", None)


#: Every operation that can leave the int32 range, at its edge: these
#: run first on every run, whatever hypothesis draws.
OVERFLOWS = [
    ("bin", "+", ("const", INT_MAX), ("var", "a")),
    ("bin", "-", ("const", INT_MIN), ("var", "a")),
    ("bin", "*", ("const", 2**30), ("bin", "+", ("var", "a"), ("var", "a"))),
    ("bin", "<<", ("var", "a"), ("const", 31)),
    ("bin", "<<", ("const", -(2**30)), ("const", 2)),
    ("un", "-", ("const", INT_MIN)),
    ("call", "abs", ("const", INT_MIN)),
    ("bin", "/", ("const", INT_MIN), ("var", "c")),
]


def _with_overflow_examples(test):
    for tree in OVERFLOWS:
        test = example(tree=tree, values=(1, 0, -1))(test)
    return test


@_fuzz_settings()
@given(tree=trees, values=st.tuples(*[st.sampled_from(BOUNDARY)] * len(PARAMS)))
@_with_overflow_examples
def test_int32_expressions_match_the_reference(tree, values):
    env = dict(zip(PARAMS, values))
    expected = _outcome(lambda: _reference(tree, env))
    kernel = _int_kernel(_kir(tree))
    memory = GlobalMemory(4)
    out = memory.alloc("o", 1, DType.INT32)

    lone = compile_expr(kernel.body[0].init)
    assert _outcome(lambda: lone(dict(env), ExecContext(memory))) == expected

    compiled = compile_kernel(kernel)
    frame = dict(env, o=out.base)

    def thread():
        compiled.run_thread(frame, ExecContext(memory))
        return memory.load_i32(out.base)

    got = _outcome(thread)
    assert got == expected
    if got[0] == "value":
        assert frame["r"] == got[1]


# -- __float_as_int -----------------------------------------------------------

_SNAN = bits_to_float(0x7F800001)
_QNAN_PAYLOAD = bits_to_float(0xFFC12345)
_SNAN_PAYLOAD = bits_to_float(0x7FA00005)

#: (label, operand, expected int32 bit pattern)
FLOAT_AS_INT_CASES = [
    ("zero", 0.0, 0),
    ("negative zero", -0.0, INT_MIN),
    ("one", 1.0, 0x3F800000),
    ("inf", math.inf, 0x7F800000),
    ("negative inf", -math.inf, bits_to_int(0xFF800000)),
    ("quiet NaN", math.nan, 0x7FC00000),
    ("quiet NaN, negative, payload", _QNAN_PAYLOAD, bits_to_int(0xFFC12345)),
    ("signaling NaN", _SNAN, 0x7F800001),
    ("signaling NaN, payload", _SNAN_PAYLOAD, 0x7FA00005),
    ("smallest denormal", bits_to_float(1), 1),
    ("largest denormal", bits_to_float(0x007FFFFF), 0x007FFFFF),
    ("negative denormal", bits_to_float(0x80000003), bits_to_int(0x80000003)),
    ("float64 below float32 denormals", 1e-300, 0),
    ("negative float64 below float32 denormals", -1e-300, INT_MIN),
    ("FLT_MAX", FLT_MAX, 0x7F7FFFFF),
    ("-FLT_MAX", -FLT_MAX, bits_to_int(0xFF7FFFFF)),
    ("float64 that rounds down to FLT_MAX", FLT_MAX + 2.0**102, 0x7F7FFFFF),
    ("float64 that rounds to inf", FLT_MAX + 2.0**103, 0x7F800000),
    ("negative float64 that rounds to -inf", -(FLT_MAX + 2.0**104),
     bits_to_int(0xFF800000)),
    ("float64 beyond float32", 1e300, 0x7F800000),
    ("int operand", 3, 0x40400000),
    ("int operand that rounds", INT_MAX, 0x4F000000),
    ("negative int operand", INT_MIN, bits_to_int(0xCF000000)),
]


def _bits_kernel(operand):
    """``r = __float_as_int(operand); o[0] = r``, over a float ``x``
    and an int ``k`` parameter."""
    kernel = Kernel(name="bits", params=[
        KernelParam("x", DType.FLOAT32),
        KernelParam("k", DType.INT32),
        KernelParam("o", DType.PTR_INT32),
    ], body=[
        Decl("r", DType.INT32, Call("__float_as_int", [operand])),
        Store(ptr=Var("o"), index=Const(0), value=Var("r")),
    ])
    return validate_kernel(kernel)


def _operands(value):
    """The forms the operand is compiled in: a parameter, a constant,
    and a compound expression (which goes through a temporary): a cast
    to the operand's own type, which keeps -0.0 and NaN payloads."""
    param = Var("k") if isinstance(value, int) else Var("x")
    cast = "int" if isinstance(value, int) else "float"
    return {"param": param, "const": Const(value), "compound": Call(cast, [param])}


@pytest.mark.parametrize("label, value, expected", FLOAT_AS_INT_CASES,
                         ids=[case[0] for case in FLOAT_AS_INT_CASES])
@pytest.mark.parametrize("form", ["param", "const", "compound"])
def test_float_as_int_table(label, value, expected, form):
    assert bits_to_int(float_to_bits(float(value))) == expected
    kernel = _bits_kernel(_operands(value)[form])
    args = {"x": 0.0, "k": 0, ("k" if isinstance(value, int) else "x"): value}
    results = {}
    for engine in ("inline", "lockstep"):
        memory = GlobalMemory(4)
        out = memory.alloc("o", 1, DType.INT32)
        frame = dict(args, o=out.base)
        ctx = ExecContext(memory)
        if engine == "inline":
            compile_kernel(kernel).run_thread(frame, ctx)
        else:
            LockstepProgram(kernel).run_block([frame], ctx)
        results[engine] = (frame["r"], memory.load_i32(out.base))
    assert results == {"inline": (expected, expected), "lockstep": (expected, expected)}


# -- int() ----------------------------------------------------------------------

#: (label, operand, its type): floats at the truncation and saturation
#: edges, ints and pointers
INT_CAST_CASES = [
    ("zero", 0.0, DType.FLOAT32), ("negative zero", -0.0, DType.FLOAT32),
    ("half", 0.5, DType.FLOAT32), ("negative half", -0.5, DType.FLOAT32),
    ("below INT_MAX + 1", 2147483647.5, DType.FLOAT32),
    ("above INT_MIN - 1", -2147483648.9, DType.FLOAT32),
    ("INT_MAX + 1", 2147483648.0, DType.FLOAT32), ("INT_MIN - 1", -2147483649.0, DType.FLOAT32),
    ("inf", math.inf, DType.FLOAT32), ("negative inf", -math.inf, DType.FLOAT32),
    ("NaN", math.nan, DType.FLOAT32),
    ("int", 7, DType.INT32), ("INT_MIN", INT_MIN, DType.INT32), ("INT_MAX", INT_MAX, DType.INT32),
    ("pointer", 40, DType.PTR_FLOAT32), ("pointer beyond int32", 2**31 + 5, DType.PTR_FLOAT32),
]
#: every operand through ``int()`` directly and on a compound operand,
#: and each float through an implicit conversion too
INT_CAST_FORMS = [(label, value, dtype, form) for label, value, dtype in INT_CAST_CASES
                  for form in ("call", "compound", "assign")
                  if form != "assign" or dtype is DType.FLOAT32]


def _int_cast_kernel(dtype, form):
    """``r = int(x)`` (``call``) or ``r = x`` (``assign``, an implicit
    float-to-int conversion) over a parameter ``x`` of ``dtype``, then
    ``o[0] = r``; ``compound`` casts an expression of ``x``, which goes
    through a temporary."""
    operand = Var("x")
    if form == "compound":
        operand = (BinOp("*", Var("x"), Const(1.0)) if dtype is DType.FLOAT32
                   else BinOp("+", Var("x"), Const(0)))
    init = operand if form == "assign" else Call("int", [operand])
    kernel = Kernel(name="cast", params=[
        KernelParam("x", dtype), KernelParam("o", DType.PTR_INT32),
    ], body=[
        Decl("r", DType.INT32, init),
        Store(ptr=Var("o"), index=Const(0), value=Var("r")),
    ])
    return validate_kernel(kernel)


@pytest.mark.parametrize("label, value, dtype, form", INT_CAST_FORMS,
                         ids=[f"{label}-{form}" for label, _, _, form in INT_CAST_FORMS])
def test_int_cast_table(label, value, dtype, form):
    expected = c_int_cast(value)
    kernel = _int_cast_kernel(dtype, form)
    for engine in ("compiled", "lockstep"):
        memory = GlobalMemory(4)
        out = memory.alloc("o", 1, DType.INT32)
        frame = {"x": value, "o": out.base}
        if engine == "compiled":
            compile_kernel(kernel).run_thread(frame, ExecContext(memory))
        else:
            LockstepProgram(kernel).run_block([frame], ExecContext(memory))
        assert (type(frame["r"]), frame["r"]) == (int, expected), engine
        assert memory.load_i32(out.base) == expected


# -- guard edges of fast iterations ------------------------------------------------

#: Locals of the generated loop: the iterator, a counter it carries,
#: and a loop invariant; each starts from the parameter beside it.
LOOP_LOCALS = {"i": "s", "cnt": "c", "k": "k"}
LOOP_OPS = ("+", "-", "*", "<<", "&", ">>", "%")
#: Constants of the generated arithmetic: scales whose guards sit at
#: different powers of two, shift counts and a divisor of zero.
LOOP_CONSTS = (0, 1, 2, 3, 4, 5, 7, 31, 100, 4096, 2**20, 2**30)
#: Start values drawn whatever the guards are.
EXTREMES = (INT_MIN, INT_MIN + 1, INT_MIN + 2, -1, 0, 1, INT_MAX - 2, INT_MAX - 1, INT_MAX)
#: Statements a generated loop may run before its thread hangs.
LOOP_BUDGET = 400
#: Iterator start at CP's guard bound: ``i * 4 + 3`` is bare for
#: ``i`` in ``[-2**29, 2**29 - 1]``.
I4_HI, I4_LO = 2**29 - 1, -(2**29)

_loop_const = st.tuples(st.just("const"), st.sampled_from(LOOP_CONSTS))
_loop_leaves = st.one_of(st.tuples(st.just("var"), st.sampled_from(tuple(LOOP_LOCALS))),
                         _loop_const)


def _loop_extend(children):
    op = st.sampled_from(LOOP_OPS)
    return st.one_of(
        st.tuples(st.just("bin"), op, children, _loop_const),
        st.tuples(st.just("bin"), op, _loop_const, children),
        st.tuples(st.just("bin"), op, children, children),
        st.tuples(st.just("un"), st.just("-"), children),
    )


loop_trees = st.recursive(_loop_leaves, _loop_extend, max_leaves=6)
#: A start value: ``("edge", side, delta)`` is ``delta`` past the lo or
#: hi bound of the local's guard (``delta`` itself when it has none);
#: ``("abs", v)`` is ``v``.
starts = st.one_of(
    st.tuples(st.just("edge"), st.sampled_from(("lo", "hi")), st.integers(-2, 2)),
    st.tuples(st.just("abs"), st.sampled_from(EXTREMES)),
)


def _guarded_loop(trees, cond, step, with_if):
    """``for (int i = s; i cond e; i = i + 1)`` over int parameters:
    ``t = tree0``, an optional ``if`` whose arms combine ``tree1`` and
    ``tree2`` into ``acc``, ``acc ^= t`` and ``cnt += step``; ``acc`` and
    ``cnt`` are stored after the loop."""
    t0, t1, t2 = (_kir(t) for t in trees)
    body = [Decl("t", DType.INT32, t0)]
    if with_if:
        body.append(If(cond=BinOp("<", t1, Var("k")),
                       then=[Assign("acc", BinOp("^", Var("acc"), t2))],
                       els=[Assign("acc", BinOp("+", Var("acc"), Const(1)))]))
    body += [Assign("acc", BinOp("^", Var("acc"), Var("t"))),
             Assign("cnt", BinOp("+", Var("cnt"), Const(step)))]
    loop = For(init=Decl("i", DType.INT32, Var("s")), cond=BinOp(cond, Var("i"), Var("e")),
               update=Assign("i", BinOp("+", Var("i"), Const(1))), body=body)
    kernel = Kernel(name="edges", params=[
        KernelParam("out", DType.PTR_INT32), *[KernelParam(p, DType.INT32) for p in "seck"],
    ], body=[
        Decl("cnt", DType.INT32, Var("c")),
        Decl("acc", DType.INT32, Const(0)),
        loop,
        Store(ptr=Var("out"), index=Const(0), value=Var("acc")),
        Store(ptr=Var("out"), index=Const(1), value=Var("cnt")),
    ])
    return validate_kernel(kernel), loop


def _start(spec, guards, local):
    if spec[0] == "abs":
        return spec[1]
    _, side, delta = spec
    guard = guards.get(local)
    if guard is None:
        return delta
    return min(max((guard.lo if side == "lo" else guard.hi) + delta, INT_MIN), INT_MAX)


def _with_guard_edge_examples(test):
    i4 = ("bin", "+", ("bin", "*", ("var", "i"), ("const", 4)), ("const", 3))
    cnt = ("bin", "+", ("var", "cnt"), ("const", 1))
    zero = ("const", 0)
    for start in (I4_HI, I4_HI + 1, I4_LO, I4_LO - 1):
        # the iterator at either bound of its guard, and one past it
        test = example(trees=(i4, zero, zero), shape=("<", 1, 3, False),
                       values=(("abs", start), ("abs", 0), ("abs", 5)))(test)
    for start in (INT_MAX - 1, INT_MAX):
        # the counter at its guard bound, ``cnt <= INT_MAX - 1``, and past it
        test = example(trees=(i4, cnt, zero), shape=("<", 1, 3, True),
                       values=(("abs", 0), ("abs", start), ("abs", 5)))(test)
    return test


@_fuzz_settings()
@given(trees=st.tuples(loop_trees, loop_trees, loop_trees),
       shape=st.tuples(st.sampled_from(("<", "<=")), st.sampled_from((1, 2, -1)),
                       st.integers(0, 4), st.booleans()),
       values=st.tuples(starts, starts, starts))
@_with_guard_edge_examples
def test_guard_edges_match_lockstep(trees, shape, values):
    """Fast iterations with bare arithmetic, and iterations whose guard
    fails, against lockstep."""
    cond, step, trips, with_if = shape
    kernel, loop = _guarded_loop(trees, cond, step, with_if)
    guards = {g.name: g for g in iteration_ranges(loop).guards}
    s, c, k = (_start(spec, guards, local) for spec, local in zip(values, LOOP_LOCALS))
    args = {"s": s, "e": min(s + trips, INT_MAX), "c": c, "k": k}
    seen, fast = _run(kernel, "compiled", args, LOOP_BUDGET)
    ref, _ = _run(kernel, "lockstep", args, LOOP_BUDGET)
    assert seen == ref
    event(f"guards: {len(guards)}")
    event(f"ran a fast iteration: {bool(fast)}")


# -- counted runs at every edge of their count ----------------------------------------

#: A loop with a hang shape over ``src``: a span of two loads
#: (``i * a`` and ``i * a + 2``), a guarded counter and, as
#: :data:`INELIGIBLE` completes it, a load whose index ``i * a + p``
#: the engine wraps (two locals) and an invariant load of ``tab``.
RUN_KERNEL = """
kernel runs(float* src, float* tab, float* out, int s, int e, int c, int p, int q) {{
    float acc = 0.0;
    float acc2 = 0.0;
    float acc3 = 0.0;
    int cnt = c;
    for (int i = s; i {op} e; i = i {sign} {mag}) {{
        float x = src[i * {a} + {x}];
        float y = src[i * {a} + 2];
        float z = src[i * {a}];
        float w = {w};
        {acc}
        acc2 = acc2 + x * y;
        acc3 = acc3 - z;
        cnt = cnt + 1;
    }}
    out[0] = acc;
}}
"""
#: ``acc``'s update and the sources of ``x`` and ``w`` in
#: :data:`RUN_KERNEL`.  This ``acc`` rounds three times in an iteration,
#: so the loop has no NumPy form.
INELIGIBLE = {"acc": "acc = acc + x * y + z - w;", "x": "p", "w": "tab[q]"}
#: The loop with a NumPy form: ``acc`` is a single-op reduction that
#: divides and takes a square root, ``x`` joins the span at offset 1 and
#: ``w`` negates it (the form reads no wrapped index and no invariant
#: load).
ELIGIBLE = {"acc": "acc = acc + sqrt(y) / z;", "x": "1", "w": "-x"}
#: Statements before the loop head, and per iteration.
RUN_HEAD, RUN_PERIOD = 5, 10
#: Device words of the run cases, and the slow set of their slow
#: space: a span ``[24, 31]`` with addresses missing from the set.
RUN_CAPACITY, RUN_SLOW = 64, frozenset({24, 27, 31})
EXACT = 2.0 ** 50


class _SlowMemory(GlobalMemory):
    """A space whose accessors answer differently from its views at the
    addresses of :data:`RUN_SLOW`, so an inline read there shows."""

    def __init__(self):
        super().__init__(RUN_CAPACITY)
        self.inline_loads = self.inline_loads[:3] + (RUN_SLOW, min(RUN_SLOW), max(RUN_SLOW))

    def load_f32(self, addr):
        value = super().load_f32(addr)
        return value - 1000.0 if addr in RUN_SLOW else value


def _run_memory(kind):
    if kind == "slow":
        return _SlowMemory()
    memory = GlobalMemory(RUN_CAPACITY)
    return FootprintRecordingMemory(memory) if kind == "limit0" else memory


def _run_case(case, body=INELIGIBLE):
    """(kernel, args, budget, start cycles) of a drawn case, whose loop
    body is :data:`RUN_KERNEL` completed by ``body``.

    The load span ``[src + i*a, src + i*a + 2]`` meets ``case["edge"]``
    (the end of memory, or the slow span, in the direction it moves)
    in iteration ``k``, give or take ``nudge``; the trip count, the
    budget, the counter's and the iterator's guards and each cycle
    total leave about their ``*_room``/``*_iters`` iterations (None:
    plenty).
    """
    a, step, k, nudge = case["a"], case["step"], case["k"], case["nudge"]
    src = RUN_KERNEL.format(op=("<" if step > 0 else ">") + ("=" * case["inclusive"]),
                            sign="+" if step > 0 else "-", mag=abs(step), a=a, **body)
    kernel = parse_kernel(src)
    (info,) = find_loops(kernel).values()
    # a cost with eighths, so a sum past 2**50 rounds
    info.stmt.body[-1].cost_scale = case["scale"]
    s = case["s"]
    if case["i_room"] is not None:  # the iterator near its guard bound
        (guard,) = [g for g in iteration_ranges(info.stmt).guards if g.name == "i"]
        s = (guard.hi if step > 0 else guard.lo) - step * case["i_room"] + nudge
    s = min(max(s, INT_MIN), INT_MAX)
    e = (INT_MAX if step > 0 else INT_MIN) if case["trips"] is None else s + step * case["trips"]
    e = min(max(e + nudge, INT_MIN), INT_MAX)
    d = a * step
    while True:
        if d >= 0:  # the span's top moves up to the memory end or the slow span
            lo = (RUN_CAPACITY if case["edge"] == "memory" else min(RUN_SLOW)) - d * k + nudge - 2
        else:  # its bottom moves down to -1 or the slow span
            lo = (-1 if case["edge"] == "memory" else max(RUN_SLOW)) - d * k + nudge
        if k == 0 or 0 <= lo < RUN_CAPACITY - 2:
            break
        k -= 1  # start the span in memory
    args = {"src": lo - a * s, "tab": 0, "s": s, "e": e, "c": INT_MAX - 1 - case["c_room"],
            "p": case["p"], "q": case["q"]}
    budget = (2000 if case["budget_iters"] is None
              else RUN_HEAD + RUN_PERIOD * case["budget_iters"] + case["budget_rest"])
    # an iteration's cycles, and those of the statements before the loop
    source = CompiledKernel(kernel, CostModel()).source
    cost = float(re.search(r"cycles \+= ([0-9.]+) \* _n0", source).group(1))
    head = sum(map(float, re.findall(r"^\s*cycles \+= ([0-9.]+)$",
                                     source.split("while True:")[0], re.M)))
    cycles = tuple(0.0 if room is None else EXACT - cost * room - case["cycles_rest"] - before
                   for room, before in ((case["cycles_room"], head),
                                        (case["loop_cycles_room"], 0.0)))
    return kernel, args, budget, cycles


#: How much more often a value that lets a run complete is drawn than
#: one that ends the fast path first: each of the nine terms below has
#: such values, and drawn evenly they left about half the examples
#: without a run.
WEIGHT = 8


def _mostly(common, rare):
    """``common`` values, each :data:`WEIGHT` times as often as each
    ``rare`` one, the values that end the fast path before a run."""
    return st.sampled_from(tuple(common) * WEIGHT + tuple(rare))


_rooms = st.one_of(st.none(), st.integers(0, 5))
_run_rooms = _mostly((None,) * 5 + (1, 2, 3, 4, 5), (0,))  # None half the time, as _rooms
run_cases = st.fixed_dictionaries({
    # a = 0: a span that does not move, at the memory end or the slow span
    "a": _mostly((-4, -1, 1, 4), (0,)),
    "step": st.sampled_from((1, 2, -1, -3)),
    "inclusive": st.booleans(),
    "edge": st.sampled_from(("memory", "slow")),
    "k": _mostly((1, 2, 3, 4, 5), (0,)),
    "nudge": st.integers(-1, 1),
    "s": st.integers(-3, 3),
    "i_room": _run_rooms,
    "trips": _run_rooms,
    "c_room": _mostly((10**6, 0, 1, 2, 3, 4), (-1,)),
    "p": st.integers(-1, 3),
    "q": _mostly((0, 5, 24, 25, 27, 31, 40, 63), (64, -1)),  # tab[q] outside memory
    "budget_iters": _run_rooms,
    "budget_rest": st.integers(0, RUN_PERIOD - 1),
    "cycles_room": _run_rooms,
    "loop_cycles_room": _run_rooms,
    "cycles_rest": st.sampled_from((0.0, 0.125, 1.0)),
    "scale": st.sampled_from((1.0, 1.0625, 1.1875)),
    "memory": st.sampled_from(("global", "slow", "limit0")),
})
#: A case whose every count term leaves plenty, over global memory.
_PLENTY = {"a": 4, "step": 1, "inclusive": False, "edge": "memory", "k": 5, "nudge": 0, "s": 0,
           "i_room": None, "trips": 8, "c_room": 10**6, "p": 1, "q": 5, "budget_iters": None,
           "budget_rest": 0, "cycles_room": None, "loop_cycles_room": None,
           "cycles_rest": 0.0, "scale": 1.0, "memory": "global"}


def _with_run_edge_examples(test):
    """Cases at each count term's edge, with the other terms looser:
    the term one short of, at and past the iterations the loop has."""
    edges = [{"trips": 3}, {"budget_iters": 3, "budget_rest": RUN_PERIOD - 1},
             {"budget_iters": 3, "budget_rest": 0}, {"c_room": 2}, {"c_room": -1},
             {"c_room": 2, "trips": 4},  # the loop ends as the counter passes its guard
             {"cycles_room": 2}, {"cycles_room": 2, "cycles_rest": 0.125},
             # a sum past 2**50 that rounds twice when added per statement
             {"cycles_room": 2, "scale": 1.1875, "cycles_rest": 0.125},
             {"loop_cycles_room": 2, "scale": 1.1875, "cycles_rest": 0.125},
             {"loop_cycles_room": 3, "cycles_rest": 1.0}, {"i_room": 2}, {"i_room": 0},
             # the iterator's guard alone binds, up and down
             {"a": 1, "p": -1, "i_room": 2},
             {"a": 1, "p": 3, "i_room": 1},  # i + p wraps within the run
             {"a": 1, "step": -1, "p": 1, "i_room": 2, "inclusive": True},
             {"k": 3, "nudge": -1}, {"k": 3, "nudge": 1}, {"step": -1, "k": 2},
             {"edge": "slow", "memory": "slow", "k": 2},
             {"edge": "slow", "memory": "slow", "k": 2, "nudge": -1},
             {"edge": "slow", "memory": "slow", "step": -1, "k": 2},
             {"edge": "slow", "memory": "slow", "step": -1, "k": 2, "nudge": 1},
             {"memory": "limit0"}, {"a": 0, "q": 27, "memory": "slow"},
             {"a": -4, "step": -3, "inclusive": True, "trips": 4}]
    for edge in edges:
        test = example(case={**_PLENTY, **edge})(test)
    return test


@_fuzz_settings()
@given(case=run_cases)
@_with_run_edge_examples
def test_counted_runs_match_lockstep(case):
    """Counted runs whose count each term in turn decides: trip count,
    budget, cycle totals near ``2**50``, range guards, memory end, zero
    and either side of a slow span; against lockstep in exception,
    steps, cycles, frame and memory."""
    kernel, args, budget, cycles = _run_case(case)
    assume(all(INT_MIN <= args[name] <= INT_MAX for name in "secpq"))
    words = {addr: float_to_bits(0.25 * addr + 1.0) for addr in range(RUN_CAPACITY)}
    seen, fast = _run(kernel, "compiled", args, budget, memory=_run_memory(case["memory"]),
                      words=words, cycles=cycles)
    ref, _ = _run(kernel, "lockstep", args, budget, memory=_run_memory(case["memory"]),
                  words=words, cycles=cycles)
    assert seen == ref
    event(f"fast iterations: {min(fast, 3)}{'+' if fast > 3 else ''}")


# -- NumPy runs against lockstep ------------------------------------------------------

#: Words a NumPy form must leave to the scalar run or compute exactly:
#: quiet, signalling and negative NaNs, infinities, zeros of either
#: sign (divisors), -2.0 (a negative square-root operand), subnormals
#: and FLT_MAX (whose products overflow).
SPECIAL_WORDS = (0x7FC00000, 0x7FA00001, 0xFFC00001, 0x7F800000, 0xFF800000,
                 0x00000000, 0x80000000, 0xC0000000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF)


def _with_numpy_examples(test):
    """One case per result of a NumPy form, and cases that a later
    block than the first decides (blocks of 3).  A special word is ``(j,
    offset, bits)``: the word ``offset`` past the start of iteration
    ``j``'s span, which in the plenty case holds ``z`` at offset 0,
    ``x`` at 1 and ``y`` at 2."""
    pins = [({}, [], "ran"),
            ({}, [(0, 2, 0x7FA00001)], "nan_word"),
            ({}, [(1, 2, 0xC0000000)], "nonfinite"),  # sqrt(-2.0)
            ({}, [(0, 1, 0x7F800000)], "nonfinite"),  # x * y is +inf
            ({}, [(2, 0, 0x80000000)], "zero_divisor"),
            # with blocks of 3: in the last of two blocks, iterations 3 and 4
            ({}, [(4, 2, 0x7FA00001)], "nan_word"),
            ({}, [(3, 1, 0x7F800000)], "nonfinite"),  # x is +inf in iteration 3
            # a reduction's partial sum is NaN in the middle of three blocks
            ({"k": 8}, [(4, 2, 0xC0000000)], "nonfinite"),
            # stride -4 down to address 0: the last block's slice ends at None
            ({"step": -1, "k": 4, "nudge": 1}, [], "ran")]
    for edge, specials, expect in pins:
        case = {**_PLENTY, **edge, "expect": expect}
        test = example(case=case, eligible=True, specials=specials)(test)
    return example(case=_PLENTY, eligible=False, specials=[])(test)


#: Cases whose count terms mostly leave plenty, so long clean runs,
#: which take the form, are common.
_plenty_cases = st.fixed_dictionaries({
    **{key: st.just(value) for key, value in _PLENTY.items()},
    "a": st.sampled_from((-4, -1, 1, 4)), "step": st.sampled_from((1, 2, -1)),
    "k": st.integers(0, 5), "nudge": st.integers(-1, 1), "s": st.integers(-3, 3),
    "trips": st.one_of(st.none(), st.integers(0, 12)), "p": st.integers(0, 3),
    "q": st.sampled_from((0, 5, 27, 63)), "i_room": _rooms,
    "memory": st.sampled_from(("global", "global", "slow")),
})


@_fuzz_settings()
@given(case=st.one_of(run_cases, _plenty_cases), eligible=st.booleans(),
       specials=st.lists(st.tuples(st.integers(0, 5), st.integers(-1, 3),
                                   st.sampled_from(SPECIAL_WORDS)), max_size=2))
@_with_numpy_examples
def test_numpy_runs_match_lockstep(case, eligible, specials):
    """Every clean counted run takes the NumPy form (the threshold is
    1), in blocks of 3: runs of a loop with a form, and of one refused a form, over
    words with NaNs, infinities, zero divisors, negative square-root
    operands and subnormals; against lockstep in exception, steps,
    cycles, frame and memory."""
    kernel, args, budget, cycles = _run_case(case, ELIGIBLE if eligible else INELIGIBLE)
    assume(all(INT_MIN <= args[name] <= INT_MAX for name in "secpq"))
    words = {addr: float_to_bits(0.25 * addr + 1.0) for addr in range(RUN_CAPACITY)}
    first = args["src"] + case["a"] * args["s"]  # where the first span starts
    for j, offset, bits in specials:
        addr = first + case["a"] * case["step"] * j + offset
        if 0 <= addr < RUN_CAPACITY:
            words[addr] = bits
    registry = fresh_registry()
    with patch.object(codegen, "NUMPY_RUN_MIN", 1), patch.object(codegen, "NUMPY_BLOCK", 3):
        seen, _fast = _run(kernel, "compiled", args, budget, memory=_run_memory(case["memory"]),
                           words=words, cycles=cycles)
    ref, _ = _run(kernel, "lockstep", args, budget, memory=_run_memory(case["memory"]),
                  words=words, cycles=cycles)
    assert seen == ref
    runs = registry.as_dict().get("repro_kir_numpy_runs_total", {"samples": []})["samples"]
    results = {sample["labels"]["result"] for sample in runs}
    for result in sorted(results) or ["none"]:
        event(f"NumPy run: {result}")
    if not eligible:
        assert not results
    if "expect" in case:
        assert case["expect"] in results
