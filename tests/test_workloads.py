"""Workload tests: kernel-vs-golden equivalence, specs, registry, sizes."""

import numpy as np
import pytest

from repro.core.program import HauberkProgram, RunStatus
from repro.errors import WorkloadError
from repro.workloads import all_workloads, get_workload
from repro.workloads.graphics import PerceptualSpec
from repro.workloads.spec import (
    MRIQ_SPEC,
    PNS_SPEC,
    RPES_SPEC,
    ToleranceSpec,
    exact_spec,
    percent_spec,
)

HPC = ("CP", "MRI-FHD", "MRI-Q", "PNS", "RPES", "SAD", "TPACF")


class TestToleranceSpec:
    def test_exact(self):
        spec = exact_spec()
        g = np.array([1.0, 2.0])
        assert spec.check(g.copy(), g)
        assert not spec.check(np.array([1.0, 2.0001]), g)

    def test_percent(self):
        spec = percent_spec(0.01)
        g = np.array([100.0])
        assert spec.check(np.array([100.9]), g)
        assert not spec.check(np.array([101.2]), g)

    def test_max_mode_pns(self):
        g = np.array([0.001, 100.0])
        # tolerance is max(0.01, 1%) elementwise
        assert PNS_SPEC.check(np.array([0.009, 100.9]), g)
        assert not PNS_SPEC.check(np.array([0.012, 100.0]), g)

    def test_sum_mode_rpes(self):
        g = np.array([10.0])
        assert RPES_SPEC.check(np.array([10.2]), g)
        assert not RPES_SPEC.check(np.array([10.21]), g)

    def test_global_term_mriq(self):
        g = np.array([1000.0, 0.0001])
        tol = MRIQ_SPEC.tolerance(g)
        assert tol[1] == pytest.approx(1e-4 * 1000.0)  # global term dominates

    def test_nonfinite_output_fails(self):
        spec = percent_spec()
        g = np.array([1.0])
        assert not spec.check(np.array([np.inf]), g)
        assert not spec.check(np.array([np.nan]), g)

    def test_shape_mismatch_fails(self):
        assert not exact_spec().check(np.zeros(3), np.zeros(4))

    def test_violations_count(self):
        spec = percent_spec(0.01)
        g = np.ones(4)
        out = np.array([1.0, 2.0, 1.0, 3.0])
        assert spec.violations(out, g) == 2

    @pytest.mark.parametrize("spec", [percent_spec(0.01), PNS_SPEC, RPES_SPEC, MRIQ_SPEC,
                                      get_workload("SAD").spec])
    def test_checker_agrees_with_the_elementwise_rule(self, spec):
        # one golden, many outputs: the checker computes its tolerance once
        g = np.array([100.0, -3.0, 0.0, 1e-3, 7.5])
        tol = spec.tolerance(g)
        check = spec.checker(g)
        outputs = [g.copy(), np.where(g == 0.0, -0.0, g)]
        for i in range(g.size):  # one element at its tolerance edge, or past it
            for value in (g[i] + tol[i], g[i] - tol[i], np.nextafter(g[i] + tol[i], np.inf),
                          np.nan, np.inf, -np.inf):
                out = g.copy()
                out[i] = value
                outputs.append(out)
        outputs += [g[:4], g.reshape(1, 5), g.astype(np.float32), g + 1e-12]
        for out in outputs:
            out64 = np.asarray(out, dtype=np.float64)
            expected = (out64.shape == g.shape and bool(np.isfinite(out64).all()) and (
                bool(np.array_equal(out64, g)) if spec == exact_spec()
                else bool((np.abs(out64 - g) <= tol).all())))
            assert check(out) == spec.check(out, g) == expected

    @pytest.mark.parametrize("spec", [percent_spec(0.01), PNS_SPEC, RPES_SPEC, MRIQ_SPEC,
                                      exact_spec(), PerceptualSpec()])
    def test_changed_elements_check_as_the_whole_output(self, spec):
        """``check_changed(base, base_ok, idx, values)`` is the check of
        ``base`` patched at ``idx``, for a passing and a failing base."""
        rng = np.random.default_rng(3)
        g = rng.uniform(0.0, 1.0, 40)
        check = spec.checker(g)
        # a step of about the tolerance (a level for the perceptual spec)
        step = (np.maximum(spec.tolerance(g), 1e-6) if isinstance(spec, ToleranceSpec)
                else np.full(40, 0.01))
        for base in (g.copy(), np.where(np.arange(40) == 7, g + 0.5, g)):
            base_ok = check(base)
            for _ in range(60):
                idx = rng.choice(40, int(rng.integers(0, 5)), replace=False)
                values = g[idx] + rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 2.0],
                                             idx.size) * step[idx]
                values = np.where(rng.random(idx.size) < 0.1, np.nan, values)
                values = np.where(rng.random(idx.size) < 0.1, -np.inf, values)
                patched = base.copy()
                patched[idx] = values
                assert check.check_changed(base, base_ok, idx.tolist(), values.tolist()) \
                    == check(patched)
        assert check.check_changed(g, True, [], []) == check(g)

    def test_invalid_spec(self):
        with pytest.raises(WorkloadError):
            ToleranceSpec(mode="bogus")
        with pytest.raises(WorkloadError):
            ToleranceSpec(rel=-1.0)


class TestRegistry:
    def test_all_registered(self):
        names = all_workloads()
        assert names[:7] == list(HPC)
        assert "OCEAN" in names and "RAYTRACE" in names

    def test_unknown_name(self):
        with pytest.raises(WorkloadError):
            get_workload("NOPE")

    def test_case_insensitive(self):
        assert get_workload("cp").name == "CP"


@pytest.mark.parametrize("name", HPC + ("OCEAN", "RAYTRACE"))
class TestGoldenEquivalence:
    def test_kernel_matches_golden(self, name):
        wl = get_workload(name)
        prog = HauberkProgram(wl)
        inp = wl.generate_input(3)
        result = prog.run(mode="original", inp=inp)
        assert result.status is RunStatus.OK
        assert wl.spec.check(result.output, wl.golden(inp)), name

    def test_inputs_deterministic(self, name):
        wl = get_workload(name)
        a = wl.generate_input(5)
        b = wl.generate_input(5)
        for ba, bb in zip(a.buffers, b.buffers):
            if ba.data is not None:
                assert np.array_equal(ba.data, bb.data)

    def test_different_seeds_differ(self, name):
        wl = get_workload(name)
        golden_a = wl.golden(wl.generate_input(0))
        golden_b = wl.golden(wl.generate_input(1))
        assert not np.array_equal(golden_a, golden_b)

    def test_memory_profile_positive(self, name):
        wl = get_workload(name)
        profile = wl.memory_profile(wl.generate_input(0))
        assert sum(profile.values()) > 0
        assert profile["pointer"] > 0  # kernels take buffer params


class TestWorkloadShapes:
    def test_rpes_is_nonloop_dominated(self):
        prog = HauberkProgram(get_workload("RPES"))
        result = prog.run(mode="original", seed=0)
        assert result.launch.loop_fraction < 0.6

    def test_loop_dominated_programs(self):
        for name in ("CP", "MRI-Q", "MRI-FHD", "PNS", "TPACF"):
            prog = HauberkProgram(get_workload(name))
            result = prog.run(mode="original", seed=0)
            assert result.launch.loop_fraction > 0.9, name

    def test_sad_is_integer_program(self):
        wl = get_workload("SAD")
        profile = wl.memory_profile(wl.generate_input(0))
        assert profile["integer"] > profile["fp"]
        assert wl.spec.abs_const == wl.spec.rel == 0.0  # exact

    def test_fp_programs_fp_dominated(self):
        for name in ("CP", "MRI-Q", "MRI-FHD", "RPES"):
            wl = get_workload(name)
            profile = wl.memory_profile(wl.generate_input(0))
            assert profile["fp"] > profile["integer"], name

    def test_tpacf_uses_over_half_shared_memory(self):
        from repro.gpu.device import GT200_SPEC

        wl = get_workload("TPACF")
        assert wl.kernel.shared_mem_words * 2 > GT200_SPEC.shared_mem_words
        assert wl.kernel.uses_sync

    def test_cp_unroll_requires_even_volx(self):
        with pytest.raises(ValueError):
            get_workload("CP", volx=7)

    def test_sad_dimension_check(self):
        with pytest.raises(ValueError):
            get_workload("SAD", width=10, mbsize=4)

    def test_workload_sizes_scale(self):
        small = HauberkProgram(get_workload("CP", numatoms=8)).run("original", seed=0)
        big = HauberkProgram(get_workload("CP", numatoms=32)).run("original", seed=0)
        assert big.launch.total_cycles > 2 * small.launch.total_cycles


class TestGraphics:
    def test_perceptual_spec_tolerates_single_pixel(self):
        from repro.workloads.graphics import frame_corruption_stats

        wl = get_workload("OCEAN")
        inp = wl.generate_input(0)
        golden = wl.golden(inp)
        corrupted = golden.copy()
        corrupted[5] += 0.5  # one blown pixel
        assert wl.spec.check(corrupted, golden)
        stats = frame_corruption_stats(corrupted, golden)
        assert stats.corrupted_pixels == 1

    def test_perceptual_spec_flags_stripe(self):
        wl = get_workload("OCEAN")
        inp = wl.generate_input(0)
        golden = wl.golden(inp)
        corrupted = golden.copy()
        corrupted[:: wl.width] += 0.5  # a vertical stripe
        assert not wl.spec.check(corrupted, golden)

    def test_render_frame_shape(self):
        wl = get_workload("RAYTRACE")
        inp = wl.generate_input(0)
        frame = wl.render_frame(wl.golden(inp))
        assert frame.shape == (wl.height, wl.width)
        assert 0.0 <= frame.min() and frame.max() <= 1.0
