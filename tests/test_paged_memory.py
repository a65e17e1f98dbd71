"""Sparse paged device memory: parity with the dense backing.

The paged store's contract is that it is *indistinguishable* from the
dense ``np.uint32`` array except in capacity and residency: every
workload, engine, and campaign mode must produce bit-identical results
over either backing.  Plus the page-level semantics the dense path
never had to define: allocations straddling page boundaries, bulk
fault injection spanning pages, lazy materialization preserving
binary32 special patterns, and copy-on-write snapshot isolation.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.program import HauberkProgram
from repro.errors import DeviceMemoryError, GPUError
from repro.gpu.device import Device, DeviceSpec
from repro.gpu.faults import inject_word_faults
from repro.gpu.memory import (
    GlobalMemory,
    PAGED_THRESHOLD_WORDS,
    PagedGlobalMemory,
)
from repro.gpu.paging import PagedSnapshot, PagedWords
from repro.gpu.runtime import GPURuntime
from repro.harness.fig02_memory import run_gb_scale
from repro.kir.types import DType
from repro.swifi.campaign import build_fault_specs
from repro.swifi.parallel import run_campaign
from repro.swifi.targets import enumerate_targets
from repro.workloads import all_workloads, get_workload

#: Deliberately tiny pages so every workload's buffers straddle many.
SMALL_PAGE = 1 << 8

ENGINES = ("closure", "lockstep")

# Interesting binary32 patterns (see test_memory_space.py): signaling
# NaN payloads, denormals, -0.0 — the bits that die in any backing
# that round-trips through Python floats.
SNAN_BITS = 0x7F800001
SNAN_PAYLOAD_BITS = 0x7FA5A5A5
DENORM_MIN_BITS = 0x00000001
DENORM_MAX_BITS = 0x007FFFFF
NEG_ZERO_BITS = 0x80000000

SPECIAL_BITS = [
    SNAN_BITS, SNAN_PAYLOAD_BITS, 0x7FC00001, 0xFFC0DEAD,
    DENORM_MIN_BITS, DENORM_MAX_BITS, NEG_ZERO_BITS,
    0x7F800000, 0xFF800000, 0x7F7FFFFF, 0x00000000, 0xFFFFFFFF,
]

word_patterns = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)


def _paged_device(page_words: int = SMALL_PAGE) -> Device:
    return Device(spec=DeviceSpec(paged=True, page_words=page_words))


def _paged_memory(capacity: int = 1 << 16,
                  page_words: int = SMALL_PAGE) -> PagedGlobalMemory:
    mem = PagedGlobalMemory(capacity, page_words=page_words)
    mem.alloc("buf", 1000, DType.FLOAT32)
    return mem


# ---------------------------------------------------------------------------
# backing selection
# ---------------------------------------------------------------------------


class TestBackingSelection:
    def test_small_capacity_stays_dense(self):
        mem = GlobalMemory.create(1 << 16)
        assert type(mem) is GlobalMemory and not mem.is_paged

    def test_threshold_switches_to_paged(self):
        mem = GlobalMemory.create(PAGED_THRESHOLD_WORDS)
        assert isinstance(mem, PagedGlobalMemory) and mem.is_paged
        # allocation of the whole space must not materialize it
        mem.alloc("huge", PAGED_THRESHOLD_WORDS, DType.FLOAT32)
        assert mem.resident_pages == 0

    def test_explicit_override_beats_threshold(self):
        assert not GlobalMemory.create(1 << 24, paged=False).is_paged
        assert GlobalMemory.create(1 << 10, paged=True).is_paged

    def test_env_forces_paged(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAGED_MEMORY", "1")
        assert GlobalMemory.create(1 << 10).is_paged
        monkeypatch.setenv("REPRO_PAGED_MEMORY", "0")
        assert not GlobalMemory.create(1 << 10).is_paged

    def test_device_spec_selects_paged(self):
        dev = _paged_device()
        assert dev.memory.is_paged
        assert dev.memory.page_words == SMALL_PAGE
        assert not Device().memory.is_paged  # default spec stays dense

    def test_paged_has_no_flat_words_array(self):
        # unconverted flat-ndarray layers must fail loudly, not
        # silently materialize gigabytes
        with pytest.raises(AttributeError):
            _paged_memory().words


# ---------------------------------------------------------------------------
# workload launch parity: all 9 workloads x 2 engines x 2 backings
# ---------------------------------------------------------------------------


def _launch_words(wl, inp, device, engine):
    runtime = GPURuntime(device, engine=engine)
    args, _handles = wl.setup_memory(device, inp)
    result = runtime.launch(wl.kernel, inp.grid, inp.block, args,
                            budget=wl.hang_budget)
    snap = device.memory.snapshot()
    if isinstance(snap, PagedSnapshot):
        snap = snap.materialize()
    return result, snap, device.memory.digest()


class TestWorkloadLaunchParity:
    @pytest.mark.parametrize("name", all_workloads())
    def test_paged_matches_dense_across_engines(self, name):
        wl = get_workload(name)
        inp = wl.generate_input(seed=7)
        for engine in ENGINES:
            res_d, words_d, dig_d = _launch_words(wl, inp, Device(), engine)
            res_p, words_p, dig_p = _launch_words(
                wl, inp, _paged_device(), engine)
            assert res_d == res_p, \
                f"{name}/{engine}: LaunchResult diverged dense vs paged"
            assert np.array_equal(words_d, words_p), \
                f"{name}/{engine}: device words diverged dense vs paged"
            assert dig_d == dig_p, \
                f"{name}/{engine}: content digest diverged dense vs paged"


# ---------------------------------------------------------------------------
# campaign parity: fi / fift over both backings
# ---------------------------------------------------------------------------


def _campaign_results(name, mode, paged, n=10, seed=11):
    wl = get_workload(name)
    device = _paged_device() if paged else Device()
    prog = HauberkProgram(wl, device=device)
    if mode == "fift":
        prog.train(seeds=[0])
    sites = enumerate_targets(wl.kernel)
    inp = wl.generate_input(0)
    specs = build_fault_specs(sites, inp.n_threads, masks_per_site=2,
                              bit_counts=(1, 6), seed=seed)[:n]
    result = run_campaign(None, specs, runner_factory=lambda:
                          prog.trial_runner(mode, 0))
    return prog, result


class TestCampaignParity:
    @pytest.mark.parametrize("mode", ("fi", "fift"))
    @pytest.mark.parametrize("name", ("CP", "PNS"))
    def test_campaign_outcomes_identical(self, name, mode):
        prog_d, dense = _campaign_results(name, mode, paged=False)
        prog_p, paged = _campaign_results(name, mode, paged=True)
        assert dense.summary() == paged.summary()
        for a, b in zip(dense.trials, paged.trials):
            assert a.spec == b.spec
            assert a.outcome == b.outcome
            assert a.observation == b.observation
        if mode == "fift":
            assert prog_d.cb.alarm_raised == prog_p.cb.alarm_raised
            assert prog_d.cb.sdc_bit == prog_p.cb.sdc_bit
            assert list(prog_d.cb.events) == list(prog_p.cb.events)


# ---------------------------------------------------------------------------
# page-boundary semantics
# ---------------------------------------------------------------------------


class TestPageBoundaries:
    def test_allocation_straddles_pages(self):
        mem = PagedGlobalMemory(1 << 16, page_words=SMALL_PAGE)
        # base 200, 300 words: crosses the 256-word page boundary
        mem.alloc("pad", 200, DType.FLOAT32)
        buf = mem.alloc("buf", 300, DType.FLOAT32)
        data = np.arange(300, dtype=np.float32)
        mem.memcpy_htod(buf, data)
        assert np.array_equal(mem.memcpy_dtoh(buf), data)
        # scalar access on both sides of the boundary
        assert mem.load_f32(buf.base + 55) == 55.0
        assert mem.load_f32(buf.base + 56) == 56.0
        assert mem.resident_pages == 2

    def test_bulk_gather_scatter_across_pages(self):
        mem = _paged_memory()
        addrs = np.array([0, SMALL_PAGE - 1, SMALL_PAGE, 999], np.int64)
        bits = np.array([1.0, 2.0, 3.0, 4.0], np.float32).view(np.uint32)
        mem.scatter_words(addrs, bits)
        assert mem.gather_words(addrs).tolist() == bits.tolist()
        # scalar loads agree with the bulk path
        assert [mem.load_f32(int(a)) for a in addrs] == [1.0, 2.0, 3.0, 4.0]

    def test_bulk_inject_spans_pages(self):
        mem = _paged_memory()
        addrs = [SMALL_PAGE - 1, SMALL_PAGE, 2 * SMALL_PAGE + 3]
        old, new = inject_word_faults(mem, addrs, [1, 1 << 31, 0xFF])
        assert old.tolist() == [0, 0, 0]
        assert new.tolist() == [1, 1 << 31, 0xFF]
        assert mem.load_word(SMALL_PAGE) == 1 << 31

    def test_bulk_inject_all_or_nothing(self):
        mem = _paged_memory()
        before = mem.snapshot()
        with pytest.raises(DeviceMemoryError,
                           match="fault injection outside mapped memory"):
            inject_word_faults(mem, [0, 500, mem.mapped_end], [1, 1, 1])
        # nothing was flipped: the bad address aborted the whole batch
        assert mem.golden_diff(before) == 0

    def test_gather_of_untouched_pages_is_zero_and_lazy(self):
        mem = PagedGlobalMemory(1 << 20, page_words=SMALL_PAGE)
        mem.alloc("big", 1 << 20, DType.FLOAT32)
        addrs = np.arange(0, 1 << 20, 1 << 10, dtype=np.int64)
        assert not mem.gather_words(addrs).any()
        assert mem.resident_pages == 0  # reads never materialize


# ---------------------------------------------------------------------------
# bit-pattern fidelity through lazy materialization
# ---------------------------------------------------------------------------


class TestBitPatternFidelity:
    @settings(max_examples=60, deadline=None)
    @given(bits=word_patterns, offset=st.integers(min_value=0, max_value=999))
    def test_word_roundtrip_through_fresh_page(self, bits, offset):
        # every example gets a store whose page materializes lazily
        mem = _paged_memory()
        mem.store_word(offset, bits)
        assert mem.load_word(offset) == bits
        # the typed f32 round-trip must preserve the exact pattern too
        # (sNaN quiet bit, denormals, -0.0)
        mem.store_f32(offset, mem.load_f32(offset))
        assert mem.load_word(offset) == bits

    @settings(max_examples=30, deadline=None)
    @given(bits=st.lists(word_patterns, min_size=1, max_size=40))
    def test_bulk_roundtrip_matches_dense(self, bits):
        dense = GlobalMemory(1 << 16)
        paged = PagedGlobalMemory(1 << 16, page_words=SMALL_PAGE)
        addrs = np.arange(len(bits), dtype=np.int64) * 37  # page-hopping
        for mem in (dense, paged):
            mem.alloc("buf", 1 << 12, DType.FLOAT32)
            for a, b in zip(addrs, bits):
                mem.store_word(int(a), b)
        np.testing.assert_array_equal(
            dense.gather_words(addrs), paged.gather_words(addrs))
        # and scattering those bits back at reversed addresses keeps
        # bit parity (sNaN payloads, denormals, -0.0 included)
        bits_back = dense.gather_words(addrs)
        dense.scatter_words(addrs[::-1], bits_back)
        paged.scatter_words(addrs[::-1], bits_back)
        np.testing.assert_array_equal(
            dense.gather_words(addrs), paged.gather_words(addrs))
        assert paged.gather_words(addrs[::-1]).tolist() == [
            int(b) for b in bits]

    def test_snapshot_materialize_preserves_patterns(self):
        mem = _paged_memory()
        for i, bits in enumerate(SPECIAL_BITS):
            mem.store_word(i * 83, bits)  # spread over several pages
        words = mem.snapshot().materialize()
        for i, bits in enumerate(SPECIAL_BITS):
            assert int(words[i * 83]) == bits


# ---------------------------------------------------------------------------
# copy-on-write snapshots
# ---------------------------------------------------------------------------


class TestCopyOnWriteSnapshots:
    def test_mutation_after_snapshot_does_not_alter_it(self):
        mem = _paged_memory()
        mem.store_word(10, 0xAAAA)
        snap = mem.snapshot()
        mem.store_word(10, 0xBBBB)
        mem.store_word(900, 0xCCCC)  # a page absent from the snapshot
        assert int(snap.gather(np.array([10]))[0]) == 0xAAAA
        assert int(snap.gather(np.array([900]))[0]) == 0
        assert snap.materialize()[10] == 0xAAAA

    def test_snapshot_is_page_refs_not_copies(self):
        mem = PagedGlobalMemory(1 << 20, page_words=SMALL_PAGE)
        mem.alloc("big", 1 << 20, DType.FLOAT32)
        mem.store_word(0, 1)
        snap = mem.snapshot()
        assert snap.resident_pages == 1  # one touched page, not 4096
        assert snap.resident_bytes == SMALL_PAGE * 4

    def test_golden_diff_is_page_granular(self):
        mem = _paged_memory()
        mem.store_word(5, 7)
        snap = mem.snapshot()
        assert mem.golden_diff(snap) == 0
        mem.store_word(5, 8)
        mem.store_word(600, 9)
        assert mem.golden_diff(snap) == 2
        mem.restore(snap)
        assert mem.golden_diff(snap) == 0
        assert mem.load_word(5) == 7 and mem.load_word(600) == 0

    def test_restore_then_write_does_not_corrupt_snapshot(self):
        # restore re-shares pages; the next write must COW again
        mem = _paged_memory()
        mem.store_word(20, 0x1111)
        snap = mem.snapshot()
        mem.restore(snap)
        mem.store_word(20, 0x2222)
        assert int(snap.gather(np.array([20]))[0]) == 0x1111

    def test_cross_backing_restore(self):
        dense = GlobalMemory(1 << 16)
        paged = _paged_memory()
        dense.alloc("buf", 1000, DType.FLOAT32)
        data = np.arange(1000, dtype=np.float32)
        dense.memcpy_htod(dense.allocations["buf"], data)
        paged.memcpy_htod(paged.allocations["buf"], data)
        # paged snapshot into dense memory and vice versa
        dense.restore(paged.snapshot())
        paged.restore(dense.snapshot())
        assert dense.digest() == paged.digest()

    def test_restore_mismatch_names_class_and_lengths(self):
        dense = GlobalMemory(1 << 16)
        dense.alloc("buf", 64, DType.FLOAT32)
        with pytest.raises(GPUError, match=(
                r"cannot restore GlobalMemory: ndarray snapshot of 5 words "
                r"does not match 64 allocated words")):
            dense.restore(np.zeros(5, np.uint32))
        paged = _paged_memory()
        with pytest.raises(GPUError, match=(
                r"cannot restore PagedGlobalMemory: PagedSnapshot snapshot "
                r"of \d+ words does not match 1000 allocated words")):
            paged.restore(PagedGlobalMemory(1 << 16).snapshot())


# ---------------------------------------------------------------------------
# the PagedWords store itself
# ---------------------------------------------------------------------------


class TestPagedWordsStore:
    def test_duplicate_scatter_is_last_wins(self):
        store = PagedWords(1 << 12, page_words=SMALL_PAGE)
        dense = np.zeros(1 << 12, np.uint32)
        addrs = np.array([3, 3, 300, 3, 300], np.int64)
        vals = np.array([1, 2, 3, 4, 5], np.uint32)
        store.scatter(addrs, vals)
        dense[addrs] = vals
        assert store.item(3) == dense[3] == 4
        assert store.item(300) == dense[300] == 5


# ---------------------------------------------------------------------------
# GB-scale: resident backing proportional to touched pages
# ---------------------------------------------------------------------------


class TestGBScale:
    def test_gb_footprint_resident_on_touch(self):
        row = run_gb_scale()
        assert row.footprint_words >= 1 << 28  # >= 1 GB of binary32 state
        assert row.output_ok and row.restore_clean
        assert row.golden_diff_words == row.injected_faults
        # resident backing is the touched pages, not the footprint:
        # 512 strided touches on 16 KiB pages ~ 8 MiB vs 1 GiB
        assert row.resident_bytes <= row.footprint_bytes / 64
        assert row.snapshot_resident_bytes <= 2 * row.resident_bytes
