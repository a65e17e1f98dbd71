"""Analysis tests: dataflow sites, loops/trip counts, dependency, liveness."""

import pytest

from repro.core.translator import HauberkTranslator
from repro.kir import parse_kernel
from repro.kir.analysis import (
    collect_sites,
    derive_trip_count,
    find_loops,
    live_intervals,
    names_read_stmt,
    names_written_stmt,
    register_pressure,
    select_loop_targets,
)
from repro.kir.analysis.dependency import (
    build_loop_dependency_graph,
    cumulative_backward_dependency,
)
from repro.kir.analysis.loops import top_level_loops
from repro.kir.interp.codegen import compile_expr
from repro.workloads import all_workloads, get_workload


LOOP_SRC = """
kernel k(float* data, int n, float* out) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float base = float(tid) * 0.5;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float x = data[i];
        float y = x * x + base;
        float z = y / (x + 1.0);
        acc = acc + z;
    }
    out[tid] = acc;
}
"""


class TestSites:
    def test_site_table_structure(self):
        k = parse_kernel(LOOP_SRC)
        sites = collect_sites(k)
        names = [s.name for s in sites]
        assert names[:3] == ["data", "n", "out"]  # params first
        by_name = {}
        for site in sites:
            by_name.setdefault(site.name, site)  # first (declaring) site wins
        assert by_name["x"].in_loop
        assert not by_name["base"].in_loop
        assert by_name["acc"].kind == "decl"

    def test_self_accumulator_detected(self):
        k = parse_kernel(LOOP_SRC)
        sites = {s.name: s for s in collect_sites(k) if s.kind == "assign"}
        assert sites["acc"].self_accumulating

    def test_self_accumulator_requires_outer_decl(self):
        src = """
kernel k(int n) {
    for (int i = 0; i < n; i++) {
        int local = 0;
        local = local + 1;
    }
}
"""
        sites = collect_sites(parse_kernel(src))
        assigns = [s for s in sites if s.kind == "assign" and s.name == "local"]
        assert assigns and not assigns[0].self_accumulating

    def test_reads_and_ops_counted(self):
        k = parse_kernel(LOOP_SRC)
        z = next(s for s in collect_sites(k) if s.name == "z")
        assert z.reads == {"y", "x"}
        assert z.n_ops == 2  # / and +

    def test_read_write_sets(self):
        k = parse_kernel(LOOP_SRC)
        loop = k.body[3]
        assert "acc" in names_written_stmt(loop)
        assert "data" in names_read_stmt(loop)
        assert "out" not in names_read_stmt(loop)


class TestLoops:
    def test_simple_trip_count(self):
        k = parse_kernel("kernel k(int n) { int s = 0; for (int i = 0; i < n; i++) { s += i; } }")
        loop = k.body[1]
        expr = derive_trip_count(loop)
        assert expr is not None
        fn = compile_expr(_validated_expr(k, expr))
        assert fn({"n": 7}, None) == 7

    def test_le_and_strided(self):
        k = parse_kernel(
            "kernel k(int n) { int s = 0; for (int i = 2; i <= n; i = i + 3) { s += i; } }"
        )
        expr = derive_trip_count(k.body[1])
        fn = compile_expr(_validated_expr(k, expr))
        # i = 2,5,8,...; for n=8 -> 3 iterations
        assert fn({"n": 8}, None) == 3

    def test_clamps_to_zero(self):
        k = parse_kernel("kernel k(int n) { int s = 0; for (int i = 0; i < n; i++) { s += 1; } }")
        fn = compile_expr(_validated_expr(k, derive_trip_count(k.body[1])))
        assert fn({"n": -5}, None) == 0

    def test_rejects_modified_bound(self):
        k = parse_kernel(
            """
kernel k(int n) {
    int m = n;
    for (int i = 0; i < m; i++) { m = m - 1; }
}
"""
        )
        assert derive_trip_count(k.body[1]) is None

    def test_rejects_break(self):
        k = parse_kernel(
            """
kernel k(int n) {
    for (int i = 0; i < n; i++) { if (i == 2) { break; } }
}
"""
        )
        assert derive_trip_count(k.body[0]) is None

    def test_rejects_nonconstant_step(self):
        k = parse_kernel(
            "kernel k(int n, int s) { for (int i = 0; i < n; i = i + s) { int x = i; } }"
        )
        assert derive_trip_count(k.body[0]) is None

    def test_loop_forest(self):
        k = parse_kernel(
            """
kernel k(int n) {
    for (int i = 0; i < n; i++) {
        for (int j = 0; j < n; j++) { int a = i; }
    }
    while (n > 0) { int b = 1; break; }
}
"""
        )
        loops = find_loops(k)
        assert len(loops) == 3
        tops = top_level_loops(k)
        assert len(tops) == 2
        outer = next(l for l in tops if l.is_for)
        assert len(outer.children) == 1


class TestDependency:
    def test_cp_figure9_ordering(self):
        from repro.workloads import get_workload

        k = get_workload("CP").kernel
        loop = top_level_loops(k)[0]
        graph = build_loop_dependency_graph(k, loop)
        scores = {
            info.name: cumulative_backward_dependency(graph, sid)
            for sid, info in graph.sites.items()
        }
        assert scores["energyx2"] > scores["energyx1"]
        selection = select_loop_targets(k, loop, maxvar=1)
        assert selection.selected_names == ["energyx2"]

    def test_forward_dependents_excluded(self):
        src = """
kernel k(float* d, int n, float* o) {
    float total = 0.0;
    for (int i = 0; i < n; i++) {
        float a = d[i];
        float b = a * 2.0;
        total = total + b;
    }
    o[0] = total;
}
"""
        k = parse_kernel(src)
        loop = top_level_loops(k)[0]
        sel = select_loop_targets(k, loop, maxvar=3)
        # total (self-acc) absorbs a and b, which feed it
        assert sel.selected_names[0] == "total"
        assert "a" not in sel.selected_names
        assert "b" not in sel.selected_names

    def test_maxvar_two_picks_independent(self):
        src = """
kernel k(float* d, int n, float* o) {
    float s1 = 0.0;
    float s2 = 0.0;
    for (int i = 0; i < n; i++) {
        s1 = s1 + d[i];
        s2 = s2 + d[i] * d[i];
    }
    o[0] = s1;
    o[1] = s2;
}
"""
        k = parse_kernel(src)
        loop = top_level_loops(k)[0]
        sel = select_loop_targets(k, loop, maxvar=2)
        assert set(sel.selected_names) == {"s1", "s2"}

    def test_pointer_sites_not_protectable(self):
        src = """
kernel k(float* d, int n, float* o) {
    for (int i = 0; i < n; i++) {
        float* p = d + i;
        float v = p[0];
        o[i] = v;
    }
}
"""
        k = parse_kernel(src)
        loop = top_level_loops(k)[0]
        sel = select_loop_targets(k, loop, maxvar=1)
        assert sel.selected_names != ["p"]


class TestLiveness:
    def test_pressure_grows_with_live_vars(self):
        small = parse_kernel("kernel k(int n) { int a = n; int b = a; int c = b; }")
        wide = parse_kernel(
            """
kernel k(int n, int* o) {
    int a = n; int b = n; int c = n; int d = n; int e = n;
    o[0] = a + b + c + d + e;
}
"""
        )
        assert register_pressure(wide) > register_pressure(small)

    def test_loop_extends_liveness(self):
        k = parse_kernel(
            """
kernel k(int n, int* o) {
    int before = n * 2;
    for (int i = 0; i < n; i++) { o[i] = before; }
}
"""
        )
        intervals = {iv.name: iv for iv in live_intervals(k)}
        assert intervals["before"].length >= 2

    def test_duplication_raises_pressure(self):
        base = parse_kernel(
            "kernel k(int n, int* o) { int a = n; int b = a + 1; o[0] = a + b; }"
        )
        dup = parse_kernel(
            """
kernel k(int n, int* o) {
    int a = n; int a2 = n;
    int b = a + 1; int b2 = a2 + 1;
    o[0] = a + b;
    o[1] = a2 + b2;
}
"""
        )
        assert register_pressure(dup) > register_pressure(base)


#: ``register_pressure`` of every workload build, pinned: the GPU cost
#: model's spill penalty is a function of these numbers, so any change
#: to the live-interval estimate must show up here first.
PINNED_PRESSURE = {
    "CP": (16, 21, 16, 21),
    "MRI-FHD": (21, 30, 21, 30),
    "MRI-Q": (17, 25, 17, 25),
    "PNS": (14, 18, 14, 18),
    "RPES": (14, 19, 14, 19),
    "SAD": (15, 23, 15, 23),
    "TPACF": (12, 18, 12, 18),
    "OCEAN": (15, 20, 15, 20),
    "RAYTRACE": (17, 22, 17, 22),
}


class TestPinnedPressure:
    def test_every_workload_is_pinned(self):
        assert sorted(PINNED_PRESSURE) == sorted(all_workloads())

    @pytest.mark.parametrize("name", sorted(PINNED_PRESSURE))
    def test_register_pressure_of_each_build(self, name):
        kernel = get_workload(name).kernel
        translator = HauberkTranslator()
        got = tuple(
            register_pressure(translator.build(kernel, mode).kernel)
            for mode in ("original", "ft", "fi", "fift")
        )
        assert got == PINNED_PRESSURE[name]


def _validated_expr(kernel, expr):
    """Type a synthesized expression in the kernel's parameter scope."""
    from repro.kir.validate import _Scope, _Validator

    v = _Validator(kernel)
    scope = _Scope()
    for p in kernel.params:
        scope.names[p.name] = p.dtype
    v.expr(expr, scope)
    return expr


class TestTripCountExtensions:
    """Forms from the paper's Section V.B text beyond the basic pattern."""

    def _count(self, src, loop_index, env):
        k = parse_kernel(src)
        loop = [s for s in k.body if hasattr(s, "update")][loop_index]
        expr = derive_trip_count(loop)
        assert expr is not None
        return compile_expr(_validated_expr(k, expr))(env, None)

    def test_conjunction_bound_is_minimum(self):
        src = """
kernel k(int a, int b) {
    int s = 0;
    for (int i = 0; (i < a) && (i < b); i++) { s += i; }
}
"""
        assert self._count(src, 0, {"a": 9, "b": 5}) == 5
        assert self._count(src, 0, {"a": 2, "b": 7}) == 2

    def test_decreasing_loop(self):
        src = """
kernel k(int n) {
    int s = 0;
    for (int i = n; i > 0; i = i - 1) { s += i; }
}
"""
        assert self._count(src, 0, {"n": 6}) == 6

    def test_decreasing_with_stride_and_ge(self):
        src = """
kernel k(int n) {
    int s = 0;
    for (int i = n; i >= 2; i = i - 3) { s += i; }
}
"""
        # i = 10, 7, 4 -> 3 iterations (stops before 1)
        assert self._count(src, 0, {"n": 10}) == 3

    def test_flipped_comparison_spelling(self):
        src = """
kernel k(int n) {
    int s = 0;
    for (int i = 0; n > i; i++) { s += i; }
}
"""
        assert self._count(src, 0, {"n": 4}) == 4

    def test_step_on_left(self):
        src = """
kernel k(int n) {
    int s = 0;
    for (int i = 0; i < n; i = 2 + i) { s += i; }
}
"""
        assert self._count(src, 0, {"n": 7}) == 4

    def test_mismatched_direction_rejected(self):
        k = parse_kernel(
            "kernel k(int n) { for (int i = 0; i > n; i++) { int x = i; } }"
        )
        assert derive_trip_count(k.body[0]) is None

    def test_mixed_conjunction_rejected(self):
        k = parse_kernel(
            "kernel k(int a, int b) { for (int i = 0; (i < a) && (i > b); i++) { int x = i; } }"
        )
        assert derive_trip_count(k.body[0]) is None
