"""Flat device memory with *no* fine-grained protection.

The paper attributes the GPU/CPU SDC gap partly to "the lack of
fine-grained error protection in GPUs: unlike modern CPUs, GPUs do not
have a page-granularity memory access permission checking" (Section
II.A cause (a)).  This model reproduces that: allocations are packed
into one flat word-addressed space, so a corrupted pointer that stays
inside the mapped range silently reads/writes *another buffer's* data
(an SDC path), and only addresses outside the mapped range crash the
kernel.  Contrast with :mod:`repro.cpusim.machine`, which checks pages.

Memory keeps raw 32-bit words (bit patterns); typed accessors
reinterpret on the way in/out, which is also where float64 interpreter
values round through binary32 — matching data stored in real GDDR.
Keeping words as bit patterns (never Python floats) means NaN
payloads, denormals, and -0.0 survive storage, snapshot, restore, and
fault injection bit-exactly, and whole-state operations
(``snapshot``/``restore``/``memcpy``/golden diffs) are vectorized
NumPy ops instead of per-word Python loops.

The backing is one contiguous ``np.uint32`` array with zero-copy
``float32``/``int32`` dtype views (:class:`GlobalMemory`).  All
device-memory views here implement the
:class:`~repro.memspace.MemorySpace` protocol, so the footprint
recorder and the replay guard compose as layers over
:class:`GlobalMemory` rather than ad-hoc look-alikes.

Inline loads.  The compiled engine reads most words without calling
``load_f32``/``load_i32``.  Each space here gives an ``inline_loads``
tuple ``(f32, i32, limit, slow, slow_lo, slow_hi)``: ``memoryview``
objects reading the words as binary32 and as int32, a limit, a
``frozenset`` of addresses and that set's bounds (:func:`slow_bounds`).
For a load of ``addr`` with ``0 <= addr < limit`` and ``addr not in
slow``, the typed accessor must return what the view holds at
``addr`` whenever that is not a NaN.  Every other load, and every NaN,
goes through the accessor: that is where a signaling NaN keeps its
payload, an out-of-bounds address crashes and a layer checks or logs
the access.  Every address of ``slow`` lies in ``[slow_lo, slow_hi]``,
so a counted run of loop iterations may read a whole span of addresses
inline once the span is in ``[0, limit)`` and misses that interval;
an empty set gives ``(limit, -1)``.  The bounds are computed once per
slow set, never per thread.  The views hold fewer than ``2**31``
words, so an address that a wrapped int32 index moves by a multiple of
``2**32`` is outside them and a read there raises ``IndexError``.
:class:`GlobalMemory` gives its ``capacity`` and an empty set;
:class:`ReplayMemoryGuard` gives the capacity and every address a
golden thread stored; :class:`FootprintRecordingMemory` gives limit 0,
so it logs every load.  ``ExecContext`` copies the tuple when the
space is installed.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bits import bits_to_float, bits_to_int, float_to_bits
from repro.errors import DeviceMemoryError, GPUError
from repro.kir.types import DType
from repro.memspace import MemorySpace, WordReinterpret  # noqa: F401 (re-export)

#: Largest finite binary32 magnitude: float64 values inside this bound
#: cast to float32 without overflow, so the fast store path can write
#: through the dtype view; anything else (±huge, NaN) takes the exact
#: struct-based slow path.
_F32_MAX = 3.4028234663852886e38


def slow_bounds(slow: frozenset, limit: int) -> Tuple[int, int]:
    """``(slow_lo, slow_hi)`` of the inline-load contract: the least
    address of ``slow``, at most ``limit``, and the greatest, or
    ``(limit, -1)`` when ``slow`` is empty."""
    if not slow:
        return limit, -1
    return min(min(slow), limit), max(slow)


@dataclass
class Allocation:
    """One device buffer: a contiguous range of the flat word space."""

    name: str
    base: int
    nwords: int
    dtype: DType

    @property
    def end(self) -> int:
        return self.base + self.nwords

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class GlobalMemory(WordReinterpret):
    """Word-addressed flat device memory with a bump allocator.

    The backing store is ``words`` (``np.uint32``); ``f32`` and ``i32``
    are zero-copy reinterpreting views of the same buffer.  The four
    :class:`~repro.memspace.MemorySpace` accessors override the
    :class:`~repro.memspace.WordReinterpret` defaults with fast paths
    reading/writing through those views (bit-identical semantics — the
    word primitives remain the reference implementation).
    """

    def __init__(self, capacity_words: int = 1 << 20):
        if not 0 < capacity_words < 1 << 31:  # the inline-load contract
            raise GPUError(f"invalid memory capacity {capacity_words}")
        self.capacity = capacity_words
        #: Raw 32-bit word patterns — the single backing store.
        self.words: np.ndarray = np.zeros(capacity_words, dtype=np.uint32)
        #: Zero-copy binary32 view of :attr:`words`.
        self.f32: np.ndarray = self.words.view(np.float32)
        #: Zero-copy two's-complement view of :attr:`words`.
        self.i32: np.ndarray = self.words.view(np.int32)
        self.allocations: Dict[str, Allocation] = {}
        #: Allocation records ordered by base address (bump allocation
        #: appends in address order), for bisect lookups.
        self._ordered: List[Allocation] = []
        self._bases: List[int] = []
        self._brk = 0
        #: Highest mapped address + 1; accesses past this crash.
        self.mapped_end = 0
        #: Views, limit and slow set of the inline-load contract (see
        #: the module docstring): every in-bounds load may read the views.
        self.inline_loads = (memoryview(self.f32), memoryview(self.i32),
                             capacity_words, frozenset(), capacity_words, -1)

    # -- allocation ----------------------------------------------------
    def alloc(self, name: str, nwords: int, dtype: DType = DType.FLOAT32) -> Allocation:
        """Allocate a named buffer; returns its allocation record."""
        if name in self.allocations:
            raise GPUError(f"buffer {name!r} already allocated")
        if nwords <= 0:
            raise GPUError(f"invalid allocation size {nwords} for {name!r}")
        if self._brk + nwords > self.capacity:
            raise GPUError(
                f"device out of memory: need {nwords} words, "
                f"{self.capacity - self._brk} free"
            )
        allocation = Allocation(name=name, base=self._brk, nwords=nwords, dtype=dtype)
        self.allocations[name] = allocation
        self._ordered.append(allocation)
        self._bases.append(allocation.base)
        self._brk += nwords
        self.mapped_end = self._brk
        return allocation

    def reset(self) -> None:
        """Free everything (between program runs)."""
        self.words[: self._brk] = 0
        self.allocations.clear()
        self._ordered.clear()
        self._bases.clear()
        self._brk = 0
        self.mapped_end = 0

    def allocation_of(self, addr: int) -> Optional[Allocation]:
        """The allocation containing ``addr``, if any (diagnostics).

        Bisects the base-sorted allocation list: this sits on the
        pointer-fault classification path (one lookup per corrupted
        pointer), where the old linear scan was O(allocations) per
        trial.
        """
        i = bisect_right(self._bases, addr) - 1
        if i >= 0:
            candidate = self._ordered[i]
            if candidate.contains(addr):
                return candidate
        return None

    # -- raw word-range primitives (trusted internal bulk access) -------
    #
    # The differential engine, replay guards, and fault injectors move
    # raw bit patterns in and out by address array or contiguous range.
    # These four primitives, each a single ndarray op, are the only
    # seam they need — callers never touch ``.words``.

    def gather_words(self, addrs: np.ndarray) -> np.ndarray:
        """Raw bits at ``addrs`` as a fresh ``uint32`` array (no checks)."""
        return self.words[addrs]

    def scatter_words(self, addrs: np.ndarray, bits: np.ndarray) -> None:
        """Write raw bits at ``addrs``; duplicates resolve last-wins."""
        self.words[addrs] = bits

    def read_words(self, start: int, n: int) -> np.ndarray:
        """A fresh contiguous ``uint32`` array of ``n`` words."""
        return self.words[start:start + n].copy()

    def write_words(self, start: int, bits: np.ndarray) -> None:
        """Write a contiguous ``uint32`` array at ``start``."""
        self.words[start:start + bits.size] = bits

    # -- raw word access (bounds policy of the whole device space) ------
    #
    # Access is checked against the *device address space* (capacity),
    # not against allocations: GT200-era GPUs have no per-allocation
    # MMU faulting, so a corrupted pointer that stays on the device
    # reads or clobbers unrelated data silently (the SDC path), and
    # only addresses outside the device crash the kernel.  This is the
    # paper's "lack of fine-grained error protection" made concrete.

    def load_word(self, addr: int) -> int:
        if 0 <= addr < self.capacity:
            return self.words.item(addr)
        raise DeviceMemoryError(f"load outside device memory: {addr}")

    def store_word(self, addr: int, bits: int) -> None:
        if 0 <= addr < self.capacity:
            self.words[addr] = bits & 0xFFFFFFFF
            return
        raise DeviceMemoryError(f"store outside device memory: {addr}")

    # -- typed scalar access (kernel loads/stores, the hot path) ---------

    def load_f32(self, addr: int) -> float:
        if 0 <= addr < self.capacity:
            value = self.f32.item(addr)
            if value != value:
                # NaN: the view's float32→float64 cast quietens a
                # signaling pattern; re-widen bitwise so the payload
                # (quiet bit included) survives a load/store cycle
                return bits_to_float(self.words.item(addr))
            return value
        raise DeviceMemoryError(f"load outside device memory: {addr}")

    def load_i32(self, addr: int) -> int:
        if 0 <= addr < self.capacity:
            return self.i32.item(addr)
        raise DeviceMemoryError(f"load outside device memory: {addr}")

    def store_f32(self, addr: int, value: float) -> None:
        if 0 <= addr < self.capacity:
            if -_F32_MAX <= value <= _F32_MAX:
                self.f32[addr] = value
            else:
                # NaN / out-of-binary32-range: the struct path preserves
                # the exact legacy semantics (saturate to ±inf, quiet
                # NaN payload propagation) without a cast warning
                self.words[addr] = float_to_bits(value)
            return
        raise DeviceMemoryError(f"store outside device memory: {addr}")

    def store_i32(self, addr: int, value: int) -> None:
        if 0 <= addr < self.capacity:
            self.words[addr] = value & 0xFFFFFFFF
            return
        raise DeviceMemoryError(f"store outside device memory: {addr}")

    # -- bulk transfer (cudaMemcpy equivalents) --------------------------
    def memcpy_htod(self, dst: Allocation, array: np.ndarray) -> None:
        """Copy a host NumPy array into a device buffer (vectorized)."""
        if self.allocations.get(dst.name) is not dst:
            raise GPUError(
                f"htod into stale allocation {dst.name!r}: "
                "not an allocation of this device memory"
            )
        flat = np.ascontiguousarray(array).reshape(-1)
        if flat.size > dst.nwords:
            raise GPUError(
                f"htod overflow: {flat.size} elements into {dst.nwords} words"
            )
        if dst.dtype is DType.FLOAT32 or dst.dtype is DType.PTR_FLOAT32:
            bits = flat.astype(np.float32).view(np.uint32)
        else:
            bits = flat.astype(np.int32).view(np.uint32)
        self.write_words(dst.base, bits)

    def memcpy_dtoh(self, src: Allocation, count: Optional[int] = None) -> np.ndarray:
        """Copy a device buffer back to a host NumPy array."""
        n = src.nwords if count is None else count
        if n > src.nwords:
            raise GPUError(f"dtoh overflow: {n} words from {src.nwords}-word buffer")
        bits = self.read_words(src.base, n)
        if src.dtype is DType.FLOAT32 or src.dtype is DType.PTR_FLOAT32:
            return bits.view(np.float32)
        return bits.view(np.int32)

    # -- fault injection (memory/bus faults) -----------------------------
    def inject_word_fault(self, addr: int, mask: int) -> None:
        """XOR an error mask into one memory word (Section VII).

        Operates on the raw bit pattern, so an XOR into a NaN-holding
        word changes exactly the masked bits of the payload (see
        :func:`repro.gpu.faults.inject_word_faults` for the bulk form).
        """
        if not 0 <= addr < self.mapped_end:
            raise DeviceMemoryError(f"fault injection outside mapped memory: {addr}")
        self.store_word(addr, self.load_word(addr) ^ (mask & 0xFFFFFFFF))

    @property
    def used_words(self) -> int:
        return self._brk

    # -- whole-state snapshots (differential trials, checkpoints) --------
    def snapshot(self) -> np.ndarray:
        """Raw bits of every allocated word (golden-state checkpoint).

        One vectorized ``uint32`` copy, independent of later stores; it
        feeds :meth:`restore` and the differential engine's golden
        compares.
        """
        return self.words[: self._brk].copy()

    def restore(self, words: np.ndarray) -> None:
        """Overwrite allocated words with a prior :meth:`snapshot`.

        The allocation table must already match the snapshot's layout
        (callers re-run the same deterministic ``setup_memory`` first);
        the error on a length mismatch names the memory class and both
        lengths.
        """
        if len(words) != self._brk:
            raise GPUError(
                f"cannot restore {type(self).__name__}: "
                f"{type(words).__name__} snapshot of {len(words)} words "
                f"does not match {self._brk} allocated words"
            )
        self.words[: self._brk] = words


# ---------------------------------------------------------------------------
# footprint recording + guarded replay (differential trial execution)
# ---------------------------------------------------------------------------


@dataclass
class ThreadFootprint:
    """Global-memory accesses of one thread during a golden run.

    ``stores`` keeps program order and raw bit patterns, so undoing a
    thread (reverse replay of ``(addr, old, new)``) and re-applying it
    (forward replay of ``new``) are both exact.  :meth:`net_stores`
    collapses those replays to one store per unique address.
    """

    loads: Set[int] = field(default_factory=set)
    stores: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def store_addrs(self) -> Set[int]:
        return {addr for addr, _old, _new in self.stores}

    def net_stores(self) -> Tuple[List[int], List[int], List[int]]:
        """``(addrs, old_bits, new_bits)``, one entry per unique address.

        Reverse replay of the program-ordered store list leaves each
        address holding the ``old`` bits of its *first* store; forward
        replay leaves the ``new`` bits of its *last* store.
        """
        first_old: Dict[int, int] = {}
        last_new: Dict[int, int] = {}
        for addr, old, new in self.stores:
            if addr not in first_old:
                first_old[addr] = old
            last_new[addr] = new
        return (list(first_old), list(first_old.values()),
                [last_new[a] for a in first_old])


class FootprintRecordingMemory(WordReinterpret):
    """Memory layer that logs every typed access into a footprint.

    The compiled engine copies accessors from ``ctx`` per thread, so
    swapping this layer in for one launch records footprints with zero
    cost on the normal (unwrapped) path — the same enable/disable
    idiom as the obs layer.  Loads delegate typed (the recorded fact
    is the address); stores reinterpret once via the shared
    :class:`~repro.memspace.WordReinterpret` helper and journal the
    raw before/after bit patterns.
    """

    __slots__ = ("mem", "fp")

    def __init__(self, mem: GlobalMemory):
        self.mem = mem
        self.fp = ThreadFootprint()

    @property
    def inline_loads(self) -> tuple:
        """Limit 0: every load goes through the logging accessors."""
        f32, i32 = self.mem.inline_loads[:2]
        return f32, i32, 0, frozenset(), 0, -1

    def begin_thread(self) -> ThreadFootprint:
        """Start a fresh footprint; returns the one just finished."""
        done = self.fp
        self.fp = ThreadFootprint()
        return done

    def load_f32(self, addr: int) -> float:
        value = self.mem.load_f32(addr)
        self.fp.loads.add(addr)
        return value

    def load_i32(self, addr: int) -> int:
        value = self.mem.load_i32(addr)
        self.fp.loads.add(addr)
        return value

    def store_word(self, addr: int, bits: int) -> None:
        mem = self.mem
        if not 0 <= addr < mem.capacity:
            mem.store_word(addr, bits)  # raises DeviceMemoryError
        old = mem.load_word(addr)
        mem.store_word(addr, bits)
        self.fp.stores.append((addr, old, bits & 0xFFFFFFFF))


class ReplayConflict(Exception):
    """A replayed thread touched another thread's footprint.

    Raised by :class:`ReplayMemoryGuard` when a faulted thread stores
    into memory a later thread owns (pointer faults redirect stores);
    the differential engine catches it and falls back to full
    execution for that one trial.  Deliberately
    *not* a :class:`~repro.errors.KernelCrash`: it must not be mistaken
    for a program failure.
    """


class ReplayMemoryGuard(WordReinterpret):
    """Memory layer for single-thread replay with conflict detection.

    The simulated grid executes threads sequentially in gtid order, so
    program order totally orders cross-thread memory effects.  Replay of
    thread ``T`` runs against golden-final memory with ``T``'s own
    stores undone; the guard exploits the ordering to admit accesses a
    naive "never touch a foreign footprint" rule would reject:

    * **Loads** never conflict.  An address stored by an *earlier*
      thread holds its golden value in both worlds (earlier threads are
      never faulted in ``T``'s trial).  An address owned by a *later*
      thread holds that thread's future value here, but in the real
      trial it still holds its pre-launch bits, the ``old`` bits of the
      owner's first golden store (``pre_launch``), and the guard
      returns those.
    * **Stores** — a store to an address owned by a later thread
      conflicts (the later thread's read-then-write could observe it);
      a store whose golden readers are all at-or-before ``T`` is
      invisible to everyone else; a store read by a *later* thread is
      admitted provisionally and checked at the end of the replay: if
      the final bits equal the golden bits (masked fault), later
      readers observe nothing and the trial is still exact —
      :meth:`deferred_mismatch` reports the verdict.

    ``store_owner`` maps each golden-stored address to its storing
    thread; ``pre_launch`` maps it to its bits before the launch;
    ``load_readers`` maps each golden-loaded address to its *latest*
    reading thread.  ``stored`` is the set of ``store_owner``'s
    addresses, which the guard's ``inline_loads`` sends to the
    accessors, and ``stored_bounds`` its :func:`slow_bounds`; an engine
    builds both, and one guard, once, and :meth:`retarget` readies the
    guard for each trial.
    The first store to each address is journaled with the bits it
    found (:attr:`written`), so the differential engine can put each
    written word back after the replay.
    """

    __slots__ = (
        "mem", "thread", "store_owner", "load_readers", "pre_launch",
        "inline_loads", "written", "deferred",
    )

    def __init__(
        self,
        mem: GlobalMemory,
        thread: int,
        store_owner: Dict[int, int],
        load_readers: Dict[int, int],
        pre_launch: Optional[Dict[int, int]] = None,
        stored: Optional[frozenset] = None,
        stored_bounds: Optional[Tuple[int, int]] = None,
    ):
        self.mem = mem
        self.thread = thread
        self.store_owner = store_owner
        self.load_readers = load_readers
        self.pre_launch = {} if pre_launch is None else pre_launch
        if stored is None:
            stored = frozenset(store_owner)
        if stored_bounds is None:
            stored_bounds = slow_bounds(stored, mem.capacity)
        f32, i32 = mem.inline_loads[:2]
        self.inline_loads = (f32, i32, mem.capacity, stored, *stored_bounds)
        #: Every address this guard let a store through to since the
        #: last :meth:`retarget`, in first-store order -> the bits it
        #: held before that store; its owner clears it once the words
        #: are back.
        self.written: Dict[int, int] = {}
        #: Stored addresses whose golden readers include a later thread.
        self.deferred: Set[int] = set()

    @property
    def capacity(self) -> int:
        """Words of the device address space (the bounds of a load)."""
        return self.mem.capacity

    def _later_owned(self, addr: int) -> bool:
        owner = self.store_owner.get(addr)
        return owner is not None and owner > self.thread

    def load_f32(self, addr: int) -> float:
        if self._later_owned(addr):
            return bits_to_float(self.pre_launch[addr])
        return self.mem.load_f32(addr)

    def load_i32(self, addr: int) -> int:
        if self._later_owned(addr):
            return bits_to_int(self.pre_launch[addr])
        return self.mem.load_i32(addr)

    def _check_store(self, addr: int) -> None:
        if self._later_owned(addr):
            raise ReplayConflict(
                f"store to address {addr} stored by thread {self.store_owner[addr]}")
        reader = self.load_readers.get(addr)
        if reader is not None and reader > self.thread:
            self.deferred.add(addr)

    def store_word(self, addr: int, bits: int) -> None:
        self._check_store(addr)
        mem = self.mem
        if addr not in self.written and 0 <= addr < mem.capacity:
            self.written[addr] = mem.load_word(addr)
        mem.store_word(addr, bits)

    def retarget(self, thread: int) -> None:
        """Ready the guard to replay ``thread``: forget the stores and
        deferred checks of the last replay, which a replay that ended
        early (a conflict or a kernel failure) leaves behind."""
        self.thread = thread
        self.written.clear()
        self.deferred.clear()

    def deferred_mismatch(self, golden_words: np.ndarray) -> bool:
        """Whether any later-read stored address ended up non-golden.

        Called once after a replay completes; ``True`` means a later
        thread would have observed a changed value and the trial must
        fall back to full execution.  One vectorized gather + compare
        against the golden snapshot.
        """
        if not self.deferred:
            return False
        addrs = np.fromiter(self.deferred, dtype=np.int64, count=len(self.deferred))
        if bool((addrs >= len(golden_words)).any()):
            return True
        golden_bits = np.asarray(golden_words, dtype=np.uint32)[addrs]
        return not np.array_equal(self.mem.gather_words(addrs), golden_bits)
