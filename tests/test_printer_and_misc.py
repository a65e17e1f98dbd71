"""Printer edge cases, error types, reporting helpers, evalcore misc."""

import math

from hypothesis import given, settings, strategies as st

from repro.errors import (
    CPUSegmentationFault,
    KernelCrash,
    KernelHang,
    KIRParseError,
    ReproError,
)
from repro.harness.reporting import format_table, pct
from repro.kir import kernel_to_source, parse_kernel
from repro.kir.interp.evalcore import (
    INTRINSIC_IMPL,
    _safe_acos,
    _safe_exp,
    _safe_log,
    _safe_pow,
    _safe_rsqrt,
)
from repro.kir.printer import format_const


class TestPrinter:
    def test_float_constants_stay_floats(self):
        assert format_const(1.0) == "1.0"
        assert format_const(2.5) == "2.5"
        assert format_const(1e-30) == "1e-30"

    def test_string_escaping(self):
        assert format_const('a"b\\c') == '"a\\"b\\\\c"'

    def test_parenthesization_preserves_semantics(self):
        src = "kernel k(int a, int b, int c, int* o) { o[0] = (a + b) * c - a / (b - c); }"
        k1 = parse_kernel(src)
        k2 = parse_kernel(kernel_to_source(k1))
        assert kernel_to_source(k1) == kernel_to_source(k2)

    def test_unary_in_binary(self):
        k = parse_kernel("kernel k(int a, int* o) { o[0] = -a * 2; }")
        text = kernel_to_source(k)
        assert parse_kernel(text)  # reparses cleanly

    @settings(max_examples=30, deadline=None)
    @given(
        ops=st.lists(st.sampled_from("+-*/"), min_size=1, max_size=5),
        vals=st.lists(st.integers(min_value=1, max_value=9), min_size=6, max_size=6),
    )
    def test_roundtrip_random_arith(self, ops, vals):
        expr = str(vals[0])
        for i, op in enumerate(ops):
            expr = f"({expr} {op} {vals[i + 1]})" if i % 2 else f"{expr} {op} {vals[i + 1]}"
        src = f"kernel k(int* o) {{ o[0] = {expr}; }}"
        k1 = parse_kernel(src)
        text1 = kernel_to_source(k1)
        text2 = kernel_to_source(parse_kernel(text1))
        assert text1 == text2


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(KernelCrash, ReproError)
        assert issubclass(KernelHang, ReproError)
        assert issubclass(CPUSegmentationFault, ReproError)

    def test_crash_message(self):
        err = KernelCrash("bad load", thread=3, block=1)
        assert "thread 3" in str(err) and "block 1" in str(err)

    def test_parse_error_position(self):
        err = KIRParseError("oops", line=4, col=9)
        assert err.line == 4 and "line 4" in str(err)

    def test_segfault_address_format(self):
        err = CPUSegmentationFault(0xDEAD, "write")
        assert "0x0000dead" in str(err)


class TestEvalcoreIntrinsics:
    def test_safe_math_edge_cases(self):
        assert math.isnan(_safe_acos(2.0))
        assert _safe_exp(1e9) == math.inf
        assert _safe_log(0.0) == -math.inf
        assert math.isnan(_safe_log(-1.0))
        assert _safe_rsqrt(0.0) == math.inf
        assert _safe_rsqrt(-0.0) == -math.inf
        assert _safe_rsqrt(4.0) == 0.5
        assert math.isnan(_safe_pow(-1.0, 0.5))
        # C99 Annex F: overflow and poles give signed infinities
        assert _safe_pow(10.0, 400.0) == math.inf
        assert _safe_pow(-10.0, 400.0) == math.inf
        assert _safe_pow(-10.0, 401.0) == -math.inf
        assert _safe_pow(0.1, -400.0) == math.inf
        assert _safe_pow(-0.1, -401.0) == -math.inf
        assert _safe_pow(0.0, -1.0) == math.inf
        assert _safe_pow(-0.0, -1.0) == -math.inf
        assert _safe_pow(-0.0, -2.0) == math.inf
        assert _safe_pow(-0.0, -0.5) == math.inf
        assert math.isnan(_safe_pow(-8.0, 1.0 / 3.0))

    def test_intrinsic_table_complete(self):
        from repro.kir.validate import INTRINSICS

        for name in INTRINSICS:
            if name == "__float_as_int":
                continue  # compiled specially
            assert name in INTRINSIC_IMPL, name


class TestReporting:
    def test_pct_bounds(self):
        assert pct(0.0).strip() == "0.0%"
        assert pct(1.0).strip() == "100.0%"

    def test_table_alignment(self):
        text = format_table("Title", ["col", "x"], [("a", 1), ("longer", 22)])
        lines = text.splitlines()
        widths = {len(l) for l in lines[2:]}
        assert len(widths) <= 2  # header+rows padded consistently
