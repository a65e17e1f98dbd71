"""Range guards and bare int32 arithmetic in fast iterations.

``kir/analysis/intervals.py`` picks guards on a loop's int locals and
the operations they keep in int32; the compiled engine checks the
guards in the fast copy's head test and emits those operations without
the wrap.  These cases pin the analysis on CP and on small loops, one
rule each, and the generated source.  Semantics against lockstep are
fuzzed by ``tests/test_property_int32.py`` (guard edges).
"""

import re

import pytest

from repro.core.translator import HauberkTranslator
from repro.gpu.costmodel import CostModel
from repro.kir import parse_kernel
from repro.kir.analysis.intervals import Guard, iteration_ranges
from repro.kir.analysis.loops import FastIteration, fast_iteration, find_loops
from repro.kir.astnodes import child_exprs, walk_exprs, walk_stmts
from repro.kir.interp.codegen import CompiledKernel
from repro.kir.printer import expr_to_source
from repro.workloads import get_workload

from test_fast_iterations import _both

INT_MIN, INT_MAX = -(2**31), 2**31 - 1
WRAP = "_i := "


def _loop(kernel):
    (info,) = [i for i in find_loops(kernel).values()
               if isinstance(fast_iteration(i.stmt), FastIteration)]
    return info.stmt


def _analyse(src):
    """(guards by name, source text of the bare operations) of the
    kernel's one fast-iteration loop."""
    loop = _loop(parse_kernel(src))
    ranges = iteration_ranges(loop)
    nodes = {id(e): e for s, _ in walk_stmts([loop]) for e in _exprs(s)}
    return ({g.name: (g.lo, g.hi) for g in ranges.guards},
            sorted(expr_to_source(nodes[i]) for i in ranges.bare))


def _exprs(stmt):
    for root in child_exprs(stmt):
        yield from walk_exprs(root)


def _fast_copy(source):
    """The head test and the body of the fast copy in generated source."""
    lines = source.splitlines()
    start = next(n for n, line in enumerate(lines) if " <= budget" in line)
    end = next(n for n, line in enumerate(lines) if line.strip() == "except _RERUN:")
    return lines[start], "\n".join(lines[start + 1:end])


def _loop_src(body, pre="", cond="i < n"):
    return f"""
kernel k(float* src, float* out, int n, int m) {{
    float acc = 0.0;
    int j = 0;
    {pre}
    for (int i = 0; {cond}; i = i + 1) {{
        {body}
    }}
    out[0] = acc + float(j);
}}
"""


class TestCP:
    def test_guards_and_bare_operations(self):
        kernel = HauberkTranslator().build(get_workload("CP").kernel, "fift").kernel
        ranges = iteration_ranges(_loop(kernel))
        assert ranges.guards == (Guard("atomid", -(2**29), 2**29 - 1),
                                 Guard("__cnt0", INT_MIN, INT_MAX - 1))
        # atomid * 4 four times, + 1/2/3, and the two increments
        assert len(ranges.bare) == 9

    def test_fast_copy_has_no_wrap_and_one_address_term(self):
        kernel = HauberkTranslator().build(get_workload("CP").kernel, "fift").kernel
        source = CompiledKernel(kernel, CostModel()).source
        head, body = _fast_copy(source)
        assert head.endswith("and (-536870912) <= v27 <= 536870911 and v25 <= 2147483646:")
        assert WRAP not in body
        # a counted run: its count computes atominfo + atomid * 4 once for
        # the load span, and each iteration computes it once, in the
        # first load's view read and accessor call, and reuses it in the
        # view reads of three loads
        run_head, run = re.split(r"for _ in .*:\n", body)
        term = r"\((_w\d+) := v2 \+ \(v27 \* 4\)\)"
        assert len(re.findall(term, run_head)) == 1
        assert len(set(re.findall(term, run))) == 1 and len(re.findall(term, run)) == 2
        assert len(re.findall(r"mem_f32\[_w\d+( \+ [123])?\]", run)) == 3
        # the checked iteration keeps every wrap
        checked = source.split("except _RERUN:")[1]
        assert checked.count(WRAP) >= 9


class TestRules:
    def test_iterator_scale_and_offset(self):
        guards, bare = _analyse(_loop_src("acc = acc + src[i * 4 + 3];"))
        assert guards == {"i": (-(2**29), 2**29 - 1)}
        assert bare == ["i * 4", "i * 4 + 3", "i + 1"]

    def test_an_ask_below_the_floor_keeps_the_wrap(self):
        # i * 4096 is in int32 only for |i| < 2**19: no guard that narrow
        guards, bare = _analyse(_loop_src("acc = acc + src[i * 4096];"))
        assert guards == {"i": (INT_MIN, INT_MAX - 1)}
        assert bare == ["i + 1"]

    def test_a_guard_that_removes_too_few_wraps_is_dropped(self):
        # j * 2 asks for a two-sided guard, which costs two comparisons,
        # to remove one wrap
        guards, bare = _analyse(_loop_src("j = (j * 2) & 7;"))
        assert "j" not in guards and "j * 2" not in bare

    def test_one_sided_guard_for_a_negation(self):
        guards, bare = _analyse(_loop_src("j = -j;", cond="i < n && j < m"))
        assert guards["j"] == (INT_MIN + 1, INT_MAX)
        assert "-j" in bare

    def test_two_locals_stay_wrapped(self):
        guards, bare = _analyse(_loop_src("acc = acc + src[i + m];"))
        assert "m" not in guards and "i + m" not in bare

    @pytest.mark.parametrize("body, op", [
        ("j = (i & 7) + 1;", "(i & 7) + 1"),
        ("j = (i >> 4) - 1;", "(i >> 4) - 1"),
        ("j = (i % 10) - 20;", "i % 10 - 20"),
        ("j = (i < n) * 5;", "(i < n) * 5"),
        ("j = (i << 3 & 255) * (i & 3);", "(i << 3 & 255) * (i & 3)"),
    ])
    def test_interval_sources(self, body, op):
        _guards, bare = _analyse(_loop_src(body))
        assert op in bare

    def test_remainder_by_a_variable_is_bounded_by_the_dividend(self):
        _guards, bare = _analyse(_loop_src("j = ((i & 15) % m) + 1;"))
        assert "(i & 15) % m + 1" in bare

    def test_if_arms_join(self):
        body = "if (i < m) { j = i & 7; } else { j = 100; } acc = acc + src[j + 1];"
        _guards, bare = _analyse(_loop_src(body))
        assert "j + 1" in bare

    def test_an_arm_that_widens_a_local_keeps_the_wrap(self):
        body = "if (i < m) { j = i & 7; } else { j = m; } acc = acc + src[j + 1];"
        _guards, bare = _analyse(_loop_src(body))
        assert "j + 1" not in bare

    def test_a_float_converted_to_int_is_unbounded(self):
        body = "j = i & 7; j = acc; acc = acc + src[j + 1];"
        _guards, bare = _analyse(_loop_src(body))
        assert "j + 1" not in bare


#: a loop whose term ``src + i * 2`` is first computed where it may not
#: run: in an ``if`` arm, or the right operand of ``&&``/``||``
CONDITIONAL_TERMS = [
    ("if (i < m) { acc = acc + src[i * 2]; } acc = acc + src[i * 2 + 1];", "i < n"),
    ("acc = acc + src[i * 2 + 1];", "i < n && (m > 5 || src[i * 2] < 100.0)"),
]


class TestAddressTerms:
    @pytest.mark.parametrize("body, cond", CONDITIONAL_TERMS)
    def test_a_conditional_term_is_not_reused_after_it(self, body, cond):
        source = CompiledKernel(parse_kernel(_loop_src(body, cond=cond)), CostModel()).source
        _head, fast = _fast_copy(source)
        # computed where it may not run, and again after it
        assert len(re.findall(r":= v\d+ \+ \(v\d+ \* 2\)\)", fast)) == 2

    @pytest.mark.parametrize("body, cond", CONDITIONAL_TERMS)
    @pytest.mark.parametrize("m", [0, 3, 100])
    def test_conditional_terms_match_lockstep(self, body, cond, m):
        seen, fast = _both(_loop_src(body, cond=cond), {"n": 8, "m": m})
        assert seen["error"] is None and fast

    def test_a_reassigned_operand_ends_the_term(self):
        body = "acc = acc + src[j + 1]; j = j + 1; acc = acc + src[j + 2];"
        src = _loop_src(body, cond="i < n && j < m")
        source = CompiledKernel(parse_kernel(src), CostModel()).source
        _head, fast = _fast_copy(source)
        assert len(re.findall(r":= v\d+ \+ v\d+\)", fast)) == 2

    @pytest.mark.parametrize("n, m", [(6, 0), (6, 3), (40, 20), (6, 100)])
    def test_terms_match_lockstep(self, n, m):
        body = ("if (i < m) { acc = acc + src[i * 2]; } "
                "acc = acc + src[i * 2 + 1] * src[i * 2]; j = j + 1; "
                "acc = acc + src[j + 2] + src[j];")
        seen, fast = _both(_loop_src(body, cond="i < n && j < m + 4"), {"n": n, "m": m})
        assert fast
