"""Sparse paged word store: GB-scale address spaces, resident-on-touch.

:class:`PagedWords` keeps a word-addressed space as a dict of
fixed-size ``np.uint32`` pages that materialize only when written.
Reads of absent pages return zero without allocating anything, so a
1 GB-128 GB address space costs memory proportional to the pages a
kernel actually touches — the same move
the Error-Code-Correction repo's 128 Gb sparse-memory-map simulator
makes (ROADMAP item 5).

Snapshots are copy-on-write: :meth:`PagedWords.snapshot` hands out
references to the current pages and marks them shared; the next write
to a shared page copies it first.  A snapshot is therefore O(resident
pages) pointers, not O(address space) bytes, and diffing two snapshots
skips pages that are still the *same object* — page-granular golden
diffs.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Set, Tuple

import numpy as np

from repro.errors import GPUError

#: Default page size in words (256 KiB pages: big enough that fancy
#: indexing amortizes the per-page Python dispatch, small enough that
#: a sparse kernel's resident set stays proportional to its touch set).
DEFAULT_PAGE_WORDS = 1 << 16
#: Bytes per word: device memory is binary32 bit patterns.
_WORD_BYTES = 4


def _require_power_of_two(page_words: int) -> None:
    if page_words <= 0 or page_words & (page_words - 1):
        raise GPUError(f"page size must be a positive power of two, "
                       f"got {page_words}")


class PagedWords:
    """A sparse, paged ``uint32`` word array with COW snapshots."""

    __slots__ = ("capacity", "page_words", "page_bits", "page_mask",
                 "pages", "_shared")

    def __init__(self, capacity: int, page_words: int = DEFAULT_PAGE_WORDS):
        if capacity < 0:
            raise GPUError(f"invalid paged capacity {capacity}")
        _require_power_of_two(page_words)
        self.capacity = capacity
        self.page_words = page_words
        self.page_bits = page_words.bit_length() - 1
        self.page_mask = page_words - 1
        #: page index -> page array (``page_words`` long, ``uint32``).
        self.pages: Dict[int, np.ndarray] = {}
        #: Pages referenced by a live snapshot: copy before writing.
        self._shared: Set[int] = set()

    # -- page lifecycle -------------------------------------------------

    def _writable(self, p: int) -> np.ndarray:
        """The page at index ``p``, materialized and safe to mutate."""
        page = self.pages.get(p)
        if page is None:
            page = np.zeros(self.page_words, np.uint32)
            self.pages[p] = page
        elif p in self._shared:
            page = page.copy()
            self.pages[p] = page
            self._shared.discard(p)
        return page

    @property
    def resident_pages(self) -> int:
        return len(self.pages)

    @property
    def resident_bytes(self) -> int:
        return len(self.pages) * self.page_words * _WORD_BYTES

    # -- scalar access --------------------------------------------------

    def item(self, addr: int):
        """The word at ``addr`` as a Python scalar (no bounds check)."""
        page = self.pages.get(addr >> self.page_bits)
        if page is None:
            return 0
        return page.item(addr & self.page_mask)

    def set_item(self, addr: int, value) -> None:
        self._writable(addr >> self.page_bits)[addr & self.page_mask] = value

    # -- bulk access ----------------------------------------------------

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        """Values at ``addrs`` (any order, duplicates fine); fresh array."""
        addrs = np.asarray(addrs, np.int64)
        out = np.zeros(addrs.shape, np.uint32)
        if addrs.size == 0:
            return out
        pg = addrs >> self.page_bits
        for p in np.unique(pg):
            page = self.pages.get(int(p))
            if page is not None:
                sel = pg == p
                out[sel] = page[addrs[sel] & self.page_mask]
        return out

    def scatter(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Write ``values`` at ``addrs``; duplicate addresses last-wins.

        Per-page fancy assignment preserves the relative order of each
        page's lanes, so duplicate resolution matches a flat ndarray's
        ``arr[addrs] = values`` exactly.
        """
        addrs = np.asarray(addrs, np.int64)
        if addrs.size == 0:
            return
        pg = addrs >> self.page_bits
        values = np.asarray(values)
        for p in np.unique(pg):
            sel = pg == p
            self._writable(int(p))[addrs[sel] & self.page_mask] = values[sel]

    def __len__(self) -> int:
        return self.capacity

    # -- contiguous ranges ----------------------------------------------

    def _range_pages(self, start: int, n: int) -> Iterator[Tuple[int, int, int, int]]:
        """Yield ``(page_index, page_lo, page_hi, out_offset)`` spans."""
        end = start + n
        addr = start
        while addr < end:
            p = addr >> self.page_bits
            lo = addr & self.page_mask
            hi = min(self.page_words, lo + (end - addr))
            yield p, lo, hi, addr - start
            addr += hi - lo

    def read_range(self, start: int, n: int) -> np.ndarray:
        """A fresh contiguous array of ``n`` words from ``start``."""
        out = np.zeros(n, np.uint32)
        for p, lo, hi, off in self._range_pages(start, n):
            page = self.pages.get(p)
            if page is not None:
                out[off:off + (hi - lo)] = page[lo:hi]
        return out

    def write_range(self, start: int, values: np.ndarray) -> None:
        """Write a contiguous array at ``start``.

        All-zero spans skip absent pages, so restoring a mostly-zero
        image into a sparse store does not materialize untouched space.
        """
        values = np.asarray(values, np.uint32)
        for p, lo, hi, off in self._range_pages(start, values.size):
            chunk = values[off:off + (hi - lo)]
            if p not in self.pages and not chunk.any():
                continue
            self._writable(p)[lo:hi] = chunk

    def zero_range(self, start: int, n: int) -> None:
        """Reset ``[start, start+n)`` to zero.

        Pages fully inside the range are dropped (back to lazy);
        partially-covered resident pages are zeroed in place.  Absent
        pages already read as zero and stay absent.
        """
        for p, lo, hi, _off in self._range_pages(start, n):
            if lo == 0 and hi == self.page_words:
                self.pages.pop(p, None)
                self._shared.discard(p)
            elif p in self.pages:
                self._writable(p)[lo:hi] = 0

    # -- snapshots (copy-on-write) ---------------------------------------

    def snapshot_pages(self, length: int) -> "PagedSnapshot":
        """COW snapshot of the first ``length`` words.

        Pages overlapping the range are handed out by reference and
        marked shared: the next write to any of them copies first, so
        the snapshot is immutable from the store's point of view.
        """
        if length == 0:
            return PagedSnapshot({}, 0, self.page_words)
        last = (length - 1) >> self.page_bits
        snap: Dict[int, np.ndarray] = {}
        for p, page in self.pages.items():
            if p <= last:
                snap[p] = page
                self._shared.add(p)
        return PagedSnapshot(snap, length, self.page_words)

    def restore_range(self, snap: "PagedSnapshot") -> None:
        """Overwrite ``[0, len(snap))`` with a snapshot's content.

        Exactly the words the snapshot covers are written — content
        beyond its length (including the tail of a boundary page) is
        left untouched, matching the dense ``words[:brk] = snapshot``
        semantics.  Full pages are adopted by reference (re-shared);
        resident pages absent from the snapshot are dropped back to
        lazy zero.
        """
        if snap.page_words != self.page_words:
            raise GPUError(
                f"snapshot page geometry ({snap.page_words} words) does not "
                f"match store ({self.page_words} words)"
            )
        length = snap.length
        if length == 0:
            return
        # the last page the snapshot *fully* covers
        full_last = (length >> self.page_bits) - 1
        boundary = length >> self.page_bits if length & self.page_mask else None
        for p in [q for q in self.pages if q <= full_last]:
            if p not in snap.pages:
                self.pages.pop(p)
                self._shared.discard(p)
        for p, page in snap.pages.items():
            if p <= full_last:
                self.pages[p] = page
                self._shared.add(p)
        if boundary is not None:
            lo_words = length & self.page_mask
            src = snap.pages.get(boundary)
            if src is not None:
                self._writable(boundary)[:lo_words] = src[:lo_words]
            elif boundary in self.pages:
                self._writable(boundary)[:lo_words] = 0


class PagedSnapshot:
    """An immutable COW snapshot of the first ``length`` words.

    Quacks enough like the dense snapshot ndarray for the layers above:
    ``len()`` is the word count, :meth:`gather` is fancy indexing,
    :meth:`materialize` produces the equivalent contiguous array.
    """

    __slots__ = ("pages", "length", "page_words", "page_bits", "page_mask")

    def __init__(self, pages: Dict[int, np.ndarray], length: int,
                 page_words: int):
        self.pages = pages
        self.length = length
        self.page_words = page_words
        self.page_bits = page_words.bit_length() - 1
        self.page_mask = page_words - 1

    def __len__(self) -> int:
        return self.length

    @property
    def resident_pages(self) -> int:
        return len(self.pages)

    @property
    def resident_bytes(self) -> int:
        return len(self.pages) * self.page_words * _WORD_BYTES

    def gather(self, addrs: np.ndarray) -> np.ndarray:
        """Snapshot values at ``addrs`` (no bounds check)."""
        addrs = np.asarray(addrs, np.int64)
        out = np.zeros(addrs.shape, np.uint32)
        if addrs.size == 0:
            return out
        pg = addrs >> self.page_bits
        for p in np.unique(pg):
            page = self.pages.get(int(p))
            if page is not None:
                sel = pg == p
                out[sel] = page[addrs[sel] & self.page_mask]
        return out

    def materialize(self) -> np.ndarray:
        """The snapshot as one contiguous array (small footprints only)."""
        out = np.zeros(self.length, np.uint32)
        for p, page in self.pages.items():
            start = p << self.page_bits
            if start >= self.length:
                continue
            n = min(self.page_words, self.length - start)
            out[start:start + n] = page[:n]
        return out

    def diff_count(self, store: PagedWords, length: Optional[int] = None) -> int:
        """Words in ``[0, length)`` where ``store`` deviates from this.

        Page-granular: a page that is still the *same object* in both
        (COW pages never mutated since the snapshot) is skipped without
        comparing a single word; pages absent from both are trivially
        equal.  Never materializes the full address space.
        """
        n = self.length if length is None else min(length, self.length)
        if n <= 0:
            return 0
        count = 0
        last = (n - 1) >> self.page_bits
        indices = set(self.pages) | set(store.pages)
        zeros: Optional[np.ndarray] = None
        for p in indices:
            if p > last:
                continue
            mine = self.pages.get(p)
            theirs = store.pages.get(p)
            if mine is theirs:
                continue  # unchanged since snapshot (COW identity)
            if mine is None or theirs is None:
                if zeros is None:
                    zeros = np.zeros(self.page_words, np.uint32)
                mine = zeros if mine is None else mine
                theirs = zeros if theirs is None else theirs
            start = p << self.page_bits
            span = min(self.page_words, n - start)
            count += int(np.count_nonzero(mine[:span] != theirs[:span]))
        return count
