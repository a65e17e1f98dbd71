"""Validation tests: typing rules, scoping, site numbering, loop marks."""

import pytest

from repro.errors import KIRParseError, KIRTypeError, KIRValidationError
from repro.kir import parse_kernel
from repro.kir.astnodes import Const, Decl, Kernel, KernelParam
from repro.kir.builder import decl_float, decl_int, make_kernel
from repro.kir.types import DType, parse_dtype, promote
from repro.kir.validate import validate_kernel


class TestTypes:
    def test_parse_dtype(self):
        assert parse_dtype("int") is DType.INT32
        assert parse_dtype("float *") is DType.PTR_FLOAT32
        with pytest.raises(KIRTypeError):
            parse_dtype("double")

    def test_promote(self):
        assert promote(DType.INT32, DType.INT32) is DType.INT32
        assert promote(DType.INT32, DType.FLOAT32) is DType.FLOAT32
        assert promote(DType.PTR_FLOAT32, DType.INT32) is DType.PTR_FLOAT32
        with pytest.raises(KIRTypeError):
            promote(DType.PTR_FLOAT32, DType.PTR_INT32)

    def test_sensitivity_classes(self):
        assert DType.PTR_FLOAT32.sensitivity_class == "pointer"
        assert DType.INT32.sensitivity_class == "integer"
        assert DType.FLOAT32.sensitivity_class == "fp"


class TestSiteNumbering:
    def test_params_come_first(self):
        k = parse_kernel("kernel p(int a, float b) { int x = a; x = x + 1; }")
        assert [p.site for p in k.params] == [0, 1]
        assert k.body[0].site == 2
        assert k.body[1].site == 3
        assert k.n_sites == 4

    def test_loop_header_sites(self):
        k = parse_kernel(
            "kernel p(int n) { for (int i = 0; i < n; i++) { int y = i; } }"
        )
        loop = k.body[0]
        assert loop.init.site >= 0
        assert loop.update.site >= 0
        assert loop.init.site != loop.update.site

    def test_revalidation_renumbers(self):
        k = parse_kernel("kernel p(int n) { int x = n; }")
        first = k.body[0].site
        k.body.insert(0, Decl("z", DType.INT32, Const(0)))
        k.validated = False
        validate_kernel(k)
        assert k.body[0].site == 1  # param is 0
        assert k.body[1].site == first + 1


class TestLoopMarks:
    def test_in_loop_flags(self):
        k = parse_kernel(
            """
kernel p(int n, float* o) {
    int before = 0;
    for (int i = 0; i < n; i++) {
        int inside = i;
        if (inside > 2) {
            int branch = 1;
        }
    }
    o[0] = 1.0;
}
"""
        )
        loop = k.body[1]
        assert not k.body[0].in_loop
        assert loop.body[0].in_loop
        assert loop.body[1].then[0].in_loop
        assert loop.update.in_loop
        assert not loop.init.in_loop

    def test_nested_loops_get_distinct_ids(self):
        k = parse_kernel(
            """
kernel p(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) {
            int x = i + j;
        }
    }
}
"""
        )
        outer = k.body[0]
        inner = outer.body[0]
        assert outer.loop_id != inner.loop_id
        assert inner.body[0].loop_id == inner.loop_id


class TestTypeRules:
    @pytest.mark.parametrize(
        "src",
        [
            "kernel p(float a) { int x = a % 2; }",  # float modulo
            "kernel p(float a) { int x = a & 1; }",  # float bitwise
            "kernel p(float* a) { float x = a; }",  # pointer into scalar
            "kernel p(float* a, int* b) { int x = a < b; }",  # mixed ptr compare
            "kernel p(float* a) { a[1.5] = 0.0; }",  # float index
            "kernel p(int n) { __syncthreads(); hauberk(n); }",  # non-__ libcall
        ],
    )
    def test_rejected(self, src):
        with pytest.raises((KIRParseError, KIRTypeError, KIRValidationError)):
            parse_kernel(src)

    def test_same_pointer_compare_allowed(self):
        k = parse_kernel("kernel p(float* a, float* b) { int e = a == b; }")
        assert k.validated

    def test_int_cast_of_pointer_allowed(self):
        k = parse_kernel("kernel p(float* a) { int bits = int(a); }")
        assert k.validated

    def test_implicit_conversions_annotated(self):
        k = parse_kernel("kernel p(int n) { float f = 0.0; f = n; int i = 0; i = f; }")
        assert k.body[1].target_dtype is DType.FLOAT32
        assert k.body[3].target_dtype is DType.INT32

    def test_assign_marks_target_dtype(self):
        k = parse_kernel("kernel p(int n) { int x = 0; x = n; }")
        assert k.body[1].target_dtype is DType.INT32

    @pytest.mark.parametrize("literal", ["0xFFFFFFFF", "2147483648", "0x80000000",
                                         "-2147483649", "4294967296"])
    def test_int_literal_outside_int32_rejected(self, literal):
        with pytest.raises(KIRValidationError, match="outside the int32 range"):
            parse_kernel(f"kernel p(int* o) {{ o[0] = {literal}; }}")

    @pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**40])
    def test_built_int_constant_outside_int32_rejected(self, value):
        kernel = Kernel(name="big", params=[], body=[Decl("x", DType.INT32, Const(value))])
        with pytest.raises(KIRValidationError, match="outside the int32 range"):
            validate_kernel(kernel)

    @pytest.mark.parametrize("literal, value", [("-2147483648", -(2**31)),
                                                ("2147483647", 2**31 - 1),
                                                ("0x7FFFFFFF", 2**31 - 1)])
    def test_int32_limits_accepted(self, literal, value):
        k = parse_kernel(f"kernel p(int* o) {{ o[0] = {literal}; }}")
        assert k.body[0].value.value == value


class TestKernelLevelChecks:
    def test_duplicate_params(self):
        kernel = Kernel(
            name="dup",
            params=[KernelParam("a", DType.INT32), KernelParam("a", DType.INT32)],
        )
        with pytest.raises(KIRValidationError):
            validate_kernel(kernel)

    def test_shared_size_positive(self):
        with pytest.raises(KIRValidationError):
            parse_kernel("kernel p(int n) { shared int s[0]; int x = n; }")

    def test_builder_make_kernel(self):
        k = make_kernel(
            "b", [("n", DType.INT32)], [decl_int("x", 1), decl_float("y", 2.5)]
        )
        assert k.validated and k.n_sites == 3

    def test_uses_sync_flag(self):
        k = parse_kernel("kernel p(int n) { shared int s[4]; __syncthreads(); }")
        assert k.uses_sync

    def test_shared_mem_words(self):
        k = parse_kernel(
            "kernel p(int n) { shared int a[10]; shared float b[6]; int x = n; }"
        )
        assert k.shared_mem_words == 16
