"""Bit-exactness and protocol tests for the typed NumPy backing store.

The whole differential stack assumes a device word is a 32-bit pattern
that never canonicalizes at rest: NaN payloads, denormals, -0.0 and
±inf must survive store → snapshot → restore → load, memcpy round
trips, and XOR fault injection exactly.  These properties pin that
down over random patterns, and the protocol tests pin the MemorySpace
layering itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bits import bits_to_float, float_to_bits
from repro.core.checkpoint import Checkpoint
from repro.cpusim.machine import DATA_BASE, PagedMemory
from repro.errors import DeviceMemoryError, GPUError
from repro.gpu.faults import inject_word_faults
from repro.gpu.memory import (
    FootprintRecordingMemory,
    GlobalMemory,
    ReplayMemoryGuard,
    ThreadFootprint,
)
from repro.kir.types import DType
from repro.memspace import MemorySpace, WordReinterpret
from repro.swifi.injector import MemoryFaultInjector

# Interesting binary32 patterns: quiet/signaling NaN payloads, ±inf,
# denormals (smallest and largest), -0.0, and exact-boundary values.
SNAN_BITS = 0x7F800001  # signaling NaN, payload 1
SNAN_PAYLOAD_BITS = 0x7FA5A5A5  # signaling NaN, nontrivial payload
QNAN_BITS = 0x7FC00001  # quiet NaN, payload 1
NEG_QNAN_BITS = 0xFFC0DEAD
DENORM_MIN_BITS = 0x00000001
DENORM_MAX_BITS = 0x007FFFFF
NEG_ZERO_BITS = 0x80000000
POS_INF_BITS = 0x7F800000
NEG_INF_BITS = 0xFF800000
FLT_MAX_BITS = 0x7F7FFFFF

SPECIAL_BITS = [
    SNAN_BITS, SNAN_PAYLOAD_BITS, QNAN_BITS, NEG_QNAN_BITS,
    DENORM_MIN_BITS, DENORM_MAX_BITS, NEG_ZERO_BITS,
    POS_INF_BITS, NEG_INF_BITS, FLT_MAX_BITS, 0x00000000, 0xFFFFFFFF,
]

word_patterns = st.one_of(
    st.sampled_from(SPECIAL_BITS),
    st.integers(min_value=0, max_value=0xFFFFFFFF),
)


def fresh_memory(nwords: int = 64) -> GlobalMemory:
    mem = GlobalMemory(capacity_words=256)
    mem.alloc("buf", nwords, DType.FLOAT32)
    return mem


class TestWordRoundTrip:
    """Random 32-bit patterns survive every path through the store."""

    @given(bits=word_patterns)
    @settings(max_examples=200, deadline=None)
    def test_store_word_load_word(self, bits):
        mem = fresh_memory()
        mem.store_word(3, bits)
        assert mem.load_word(3) == bits

    @given(bits=word_patterns)
    @settings(max_examples=200, deadline=None)
    def test_snapshot_restore_round_trip(self, bits):
        mem = fresh_memory()
        mem.store_word(5, bits)
        snap = mem.snapshot()
        mem.store_word(5, ~bits & 0xFFFFFFFF)  # clobber
        mem.restore(snap)
        assert mem.load_word(5) == bits

    @given(bits=word_patterns)
    @settings(max_examples=200, deadline=None)
    def test_memcpy_round_trip(self, bits):
        """htod of the pattern's float32 value, dtoh back: same bits."""
        mem = fresh_memory()
        host = np.array([bits], dtype=np.uint32).view(np.float32)
        mem.memcpy_htod(mem.allocations["buf"], host)
        assert mem.load_word(0) == bits
        back = mem.memcpy_dtoh(mem.allocations["buf"], count=1)
        assert back.dtype == np.float32
        assert back.view(np.uint32)[0] == bits

    @given(bits=word_patterns)
    @settings(max_examples=200, deadline=None)
    def test_float_accessor_round_trip(self, bits):
        """store_f32(load_f32(bits)) preserves bits up to NaN quieting.

        Loading reinterprets through a float64 register, which quiets a
        signaling NaN exactly as the legacy struct path did; every
        non-sNaN pattern round-trips identically.
        """
        mem = fresh_memory()
        mem.store_word(7, bits)
        value = mem.load_f32(7)
        mem.store_f32(8, value)
        assert mem.load_word(8) == float_to_bits(bits_to_float(bits))

    @given(bits=word_patterns, mask=st.integers(min_value=0, max_value=0xFFFFFFFF))
    @settings(max_examples=200, deadline=None)
    def test_inject_then_undo_is_identity(self, bits, mask):
        mem = fresh_memory()
        mem.store_word(2, bits)
        mem.inject_word_fault(2, mask)
        assert mem.load_word(2) == bits ^ mask
        mem.inject_word_fault(2, mask)
        assert mem.load_word(2) == bits


class TestSignalingNaNPayload:
    """Acceptance criterion: sNaN payloads survive the full state cycle."""

    def test_snan_survives_store_snapshot_restore_load(self):
        mem = fresh_memory()
        mem.store_word(4, SNAN_PAYLOAD_BITS)
        snap = mem.snapshot()
        mem.reset()
        mem.alloc("buf", 64, DType.FLOAT32)
        mem.restore(snap)
        # the word at rest still holds the signaling pattern bit-exactly
        assert mem.load_word(4) == SNAN_PAYLOAD_BITS
        # reading it as a float yields a NaN (quieted in the register,
        # as real hardware does — the stored word is untouched)
        assert mem.load_f32(4) != mem.load_f32(4)
        assert mem.load_word(4) == SNAN_PAYLOAD_BITS

    def test_inject_word_fault_on_nan_preserves_xored_payload(self):
        """Regression: XOR into a NaN word perturbs exactly the mask bits."""
        mem = fresh_memory()
        mem.store_word(9, QNAN_BITS)
        mem.inject_word_fault(9, 0x00000F00)
        assert mem.load_word(9) == QNAN_BITS ^ 0x00000F00
        mem.store_word(10, SNAN_PAYLOAD_BITS)
        mem.inject_word_fault(10, 1 << 31)  # flip the sign of an sNaN
        assert mem.load_word(10) == SNAN_PAYLOAD_BITS | (1 << 31)

    def test_denormal_and_negzero_survive_htod(self):
        mem = fresh_memory()
        host = np.array(
            [DENORM_MIN_BITS, DENORM_MAX_BITS, NEG_ZERO_BITS], dtype=np.uint32
        ).view(np.float32)
        mem.memcpy_htod(mem.allocations["buf"], host)
        assert [mem.load_word(i) for i in range(3)] == [
            DENORM_MIN_BITS, DENORM_MAX_BITS, NEG_ZERO_BITS,
        ]


class TestStoreSemantics:
    """The fast dtype-view paths match the struct-based reference."""

    @given(value=st.floats(allow_nan=True, allow_infinity=True, width=64))
    @settings(max_examples=300, deadline=None)
    def test_store_f32_matches_float_to_bits(self, value):
        mem = fresh_memory()
        mem.store_f32(0, value)
        assert mem.load_word(0) == float_to_bits(value)

    @given(value=st.integers(min_value=-(2**63), max_value=2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_store_i32_wraps_two_complement(self, value):
        mem = fresh_memory()
        mem.store_i32(0, value)
        assert mem.load_word(0) == value & 0xFFFFFFFF

    def test_out_of_range_store_saturates_to_inf(self):
        mem = fresh_memory()
        mem.store_f32(0, 1e300)
        assert mem.load_word(0) == POS_INF_BITS
        mem.store_f32(0, -1e300)
        assert mem.load_word(0) == NEG_INF_BITS


class TestMemorySpaceProtocol:
    """Every layer satisfies the structural protocol."""

    def test_all_layers_are_memory_spaces(self):
        mem = fresh_memory()
        recording = FootprintRecordingMemory(mem)
        guard = ReplayMemoryGuard(mem, 0, {}, {})
        paged = PagedMemory()
        for space in (mem, recording, guard, paged):
            assert isinstance(space, MemorySpace)
            assert isinstance(space, WordReinterpret)

    def test_layers_agree_with_base_memory(self):
        """A recorded or guarded store leaves the same bits as a direct one."""
        for bits in SPECIAL_BITS:
            value = bits_to_float(bits)
            direct = fresh_memory()
            direct.store_f32(1, value)
            recorded = fresh_memory()
            FootprintRecordingMemory(recorded).store_f32(1, value)
            guarded = fresh_memory()
            ReplayMemoryGuard(guarded, 0, {}, {}).store_f32(1, value)
            assert direct.load_word(1) == recorded.load_word(1) == guarded.load_word(1)

    def test_paged_memory_typed_accessors(self):
        paged = PagedMemory()
        paged.map_range(DATA_BASE, 16)
        paged.store_f32(DATA_BASE, -0.0)
        assert paged.load_word(DATA_BASE) == NEG_ZERO_BITS
        paged.store_i32(DATA_BASE + 1, -2)
        assert paged.load_i32(DATA_BASE + 1) == -2
        assert paged.load_word(DATA_BASE + 1) == 0xFFFFFFFE

    def test_error_messages_preserved(self):
        mem = fresh_memory()
        with pytest.raises(DeviceMemoryError, match="load outside device memory"):
            mem.load_f32(mem.capacity)
        with pytest.raises(DeviceMemoryError, match="store outside device memory"):
            mem.store_i32(-1, 0)
        with pytest.raises(DeviceMemoryError, match="store outside device memory"):
            FootprintRecordingMemory(mem).store_f32(mem.capacity, 1.0)
        with pytest.raises(
            DeviceMemoryError, match="fault injection outside mapped memory"
        ):
            mem.inject_word_fault(mem.used_words, 1)


class TestHtodGuard:
    """memcpy_htod rejects allocations from a different device memory."""

    def test_stale_allocation_rejected(self):
        mem_a = fresh_memory()
        mem_b = GlobalMemory(capacity_words=256)
        foreign = mem_b.alloc("buf", 64, DType.FLOAT32)
        with pytest.raises(GPUError, match="stale allocation"):
            mem_a.memcpy_htod(foreign, np.zeros(4, dtype=np.float32))

    def test_reset_invalidates_old_handles(self):
        mem = fresh_memory()
        old = mem.allocations["buf"]
        mem.reset()
        mem.alloc("buf", 64, DType.FLOAT32)
        with pytest.raises(GPUError, match="stale allocation"):
            mem.memcpy_htod(old, np.zeros(4, dtype=np.float32))


class TestAllocationBisect:
    def test_allocation_of_across_many_buffers(self):
        mem = GlobalMemory(capacity_words=4096)
        allocs = [mem.alloc(f"b{i}", 7) for i in range(40)]
        for a in allocs:
            assert mem.allocation_of(a.base) is a
            assert mem.allocation_of(a.end - 1) is a
        assert mem.allocation_of(mem.used_words) is None
        assert mem.allocation_of(-1) is None
        assert mem.allocation_of(4095) is None


class TestBulkInjection:
    def test_inject_word_faults_journaled_undo(self):
        mem = fresh_memory()
        patterns = [QNAN_BITS, DENORM_MAX_BITS, 0x12345678]
        for i, bits in enumerate(patterns):
            mem.store_word(i, bits)
        injector = MemoryFaultInjector(mem)
        new_bits = injector.inject([0, 1, 2], [0xFF, 0xFF00, 0xFF0000])
        assert list(new_bits) == [
            QNAN_BITS ^ 0xFF, DENORM_MAX_BITS ^ 0xFF00, 0x12345678 ^ 0xFF0000,
        ]
        assert injector.injected_words == 3
        injector.undo()
        assert [mem.load_word(i) for i in range(3)] == patterns

    def test_inject_word_faults_validates_all_addresses(self):
        mem = fresh_memory()
        before = mem.snapshot()
        with pytest.raises(
            DeviceMemoryError, match="fault injection outside mapped memory"
        ):
            inject_word_faults(mem, [0, mem.used_words], [1, 1])
        assert np.array_equal(mem.snapshot(), before)  # all-or-nothing

    def test_mismatched_lengths_rejected(self):
        mem = fresh_memory()
        with pytest.raises(DeviceMemoryError, match="addresses"):
            inject_word_faults(mem, [0, 1], [1])

    def test_repeated_address_equals_sequential_single_words(self):
        addrs, masks = [5, 9, 5, 5, 9, 2], [1, 0x100, 2, 0x8000_0000, 7, 4]
        bulk, single = fresh_memory(), fresh_memory()
        for i in range(12):
            bulk.store_word(i, 0x1234_5670 + i)
            single.store_word(i, 0x1234_5670 + i)
        old_bits, new_bits = inject_word_faults(bulk, addrs, masks)
        for addr, mask in zip(addrs, masks):
            single.inject_word_fault(addr, mask)
        assert np.array_equal(bulk.snapshot(), single.snapshot())
        assert bulk.load_word(5) == (0x1234_5675 ^ 1 ^ 2 ^ 0x8000_0000)
        # each lane reports its word before and after the whole call
        assert list(old_bits) == [0x1234_5670 + a for a in addrs]
        assert list(new_bits) == [single.load_word(a) for a in addrs]

    def test_golden_diff_counts_the_corrupted_words(self):
        rng = np.random.default_rng(1234)
        nwords = 1 << 12
        mem = GlobalMemory(capacity_words=nwords)
        mem.alloc("state", nwords, DType.FLOAT32)
        mem.words[:] = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint32)
        golden = mem.snapshot()
        corrupt = np.unique(rng.integers(0, nwords, size=64))
        inject_word_faults(mem, corrupt, [1 << 20] * len(corrupt))
        assert np.count_nonzero(mem.snapshot() != golden) == len(corrupt)

    def test_repeated_address_undo_is_exact(self):
        mem = fresh_memory()
        mem.store_word(5, QNAN_BITS)
        before = mem.snapshot()
        injector = MemoryFaultInjector(mem)
        injector.inject([5, 5], [1, 2])
        assert mem.load_word(5) == QNAN_BITS ^ 3
        injector.inject([5, 6, 5], [0x10, 0x20, 0x10])
        assert mem.load_word(5) == QNAN_BITS ^ 3
        injector.undo()
        assert np.array_equal(mem.snapshot(), before)


class TestBulkWordPrimitives:
    def test_duplicate_scatter_is_last_wins(self):
        mem = fresh_memory()
        addrs = np.array([3, 3, 30, 3, 30], np.int64)
        mem.scatter_words(addrs, np.array([1, 2, 3, 4, 5], np.uint32))
        assert mem.load_word(3) == 4
        assert mem.load_word(30) == 5

    def test_restore_mismatch_names_class_and_lengths(self):
        mem = fresh_memory()
        with pytest.raises(GPUError, match=(
                r"cannot restore GlobalMemory: ndarray snapshot of 5 words "
                r"does not match 64 allocated words")):
            mem.restore(np.zeros(5, np.uint32))


class TestFootprintNetArrays:
    def test_net_arrays_collapse_duplicate_addresses(self):
        fp = ThreadFootprint()
        fp.stores = [(5, 10, 11), (6, 20, 21), (5, 11, 12)]
        addrs, old_bits, new_bits = fp.net_stores()
        by_addr = {a: (o, n) for a, o, n in zip(addrs, old_bits, new_bits)}
        # first-store old, last-store new per address
        assert by_addr == {5: (10, 12), 6: (20, 21)}

    def test_scatter_undo_matches_reverse_replay(self):
        mem = fresh_memory()
        fp = ThreadFootprint()
        rec = FootprintRecordingMemory(mem)
        rec.fp = fp
        rec.store_i32(3, 100)
        rec.store_i32(3, 200)
        rec.store_i32(4, 300)
        addrs, old_bits, _new = fp.net_stores()
        for addr, bits in zip(addrs, old_bits):  # undo
            mem.store_word(addr, bits)
        assert mem.load_i32(3) == 0 and mem.load_i32(4) == 0


class TestDeviceCheckpoint:
    def test_checkpoint_captures_and_restores_device_words(self):
        mem = fresh_memory()
        mem.store_word(0, SNAN_PAYLOAD_BITS)
        mem.store_word(1, 0xDEADBEEF)
        cp = Checkpoint.capture("pre-kernel", memory=mem)
        mem.store_word(0, 0)
        mem.store_word(1, 0)
        cp.restore_device(mem)
        assert mem.load_word(0) == SNAN_PAYLOAD_BITS
        assert mem.load_word(1) == 0xDEADBEEF

    def test_host_only_checkpoint_refuses_device_restore(self):
        mem = fresh_memory()
        cp = Checkpoint.capture("host-only")
        from repro.errors import RecoveryError

        with pytest.raises(RecoveryError, match="holds no device memory"):
            cp.restore_device(mem)
