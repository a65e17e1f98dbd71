"""Device-memory micro-benchmarks — the typed NumPy backing store.

Measures the operations the whole campaign stack leans on, old vs new,
in one process:

* **scalar load/store** — per-word typed access through the zero-copy
  dtype views vs the legacy ``List[int]`` + ``struct`` reinterpretation
  (the kernel interpreter's hot path);
* **snapshot / restore** — whole-state checkpointing (differential
  golden recording, guardian checkpoints);
* **golden-diff** — counting words that deviate from a golden snapshot
  (SDC classification, deferred-store verdicts).

The "old" numbers come from a faithful in-file shim of the previous
``List[int]`` implementation, so both sides run on the same
interpreter and machine and the recorded ratios are honest.  Snapshot,
restore, and golden-diff must each clear **5x**; results land in
``BENCH_memory.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from typing import List

import numpy as np

from repro.bits import bits_to_float, bits_to_int, float_to_bits, int_to_bits
from repro.gpu.memory import GlobalMemory
from repro.harness.reporting import format_table
from repro.kir.types import DType

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class _LegacyMemory:
    """The pre-refactor backing store: ``List[int]`` words + struct codecs.

    Mirrors the old ``GlobalMemory`` operations measured here (bounds
    checks included) so the old-vs-new ratios compare like for like.
    """

    def __init__(self, capacity_words: int):
        self.capacity = capacity_words
        self.words: List[int] = [0] * capacity_words
        self._brk = capacity_words

    def load_f32(self, addr: int) -> float:
        if 0 <= addr < self.capacity:
            return bits_to_float(self.words[addr])
        raise IndexError(addr)

    def load_i32(self, addr: int) -> int:
        if 0 <= addr < self.capacity:
            return bits_to_int(self.words[addr])
        raise IndexError(addr)

    def store_f32(self, addr: int, value: float) -> None:
        if 0 <= addr < self.capacity:
            self.words[addr] = float_to_bits(value)
            return
        raise IndexError(addr)

    def store_i32(self, addr: int, value: int) -> None:
        if 0 <= addr < self.capacity:
            self.words[addr] = int_to_bits(value)
            return
        raise IndexError(addr)

    def snapshot(self) -> List[int]:
        return self.words[: self._brk]

    def restore(self, words: List[int]) -> None:
        self.words[: self._brk] = words


def _best_seconds(fn, repeats: int = 5) -> float:
    """Best-of-N wall time of ``fn()`` (min is robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _per_op_ns(fn_once, n_ops: int, repeats: int = 5) -> float:
    return _best_seconds(fn_once, repeats) / n_ops * 1e9


def test_memory_ops(scale, report):
    smoke = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"
    nwords = 1 << 16 if smoke else 1 << 18
    n_scalar = 20_000 if smoke else 100_000

    rng = np.random.default_rng(1234)
    pattern = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint32)

    new = GlobalMemory(capacity_words=nwords)
    new.alloc("state", nwords, DType.FLOAT32)
    new.words[:] = pattern
    old = _LegacyMemory(nwords)
    old.words[:] = [int(b) for b in pattern]

    results = {}

    # -- scalar typed access (the interpreter's hot path) -----------------
    addrs = [int(a) for a in rng.integers(0, nwords, size=n_scalar)]
    values = [float(v) for v in rng.normal(size=n_scalar)]

    def scalar_loads(mem):
        load = mem.load_f32
        def run():
            for a in addrs:
                load(a)
        return run

    def scalar_stores(mem):
        store = mem.store_f32
        pairs = list(zip(addrs, values))
        def run():
            for a, v in pairs:
                store(a, v)
        return run

    results["load_f32"] = {
        "old_ns_per_op": round(_per_op_ns(scalar_loads(old), n_scalar), 1),
        "new_ns_per_op": round(_per_op_ns(scalar_loads(new), n_scalar), 1),
    }
    results["store_f32"] = {
        "old_ns_per_op": round(_per_op_ns(scalar_stores(old), n_scalar), 1),
        "new_ns_per_op": round(_per_op_ns(scalar_stores(new), n_scalar), 1),
    }
    new.words[:] = pattern  # undo the random stores
    old.words[:] = [int(b) for b in pattern]

    # -- snapshot / restore ------------------------------------------------
    old_snap = old.snapshot()
    new_snap = new.snapshot()
    results["snapshot"] = {
        "old_seconds": _best_seconds(lambda: old.snapshot()),
        "new_seconds": _best_seconds(lambda: new.snapshot()),
    }
    results["restore"] = {
        "old_seconds": _best_seconds(lambda: old.restore(old_snap)),
        "new_seconds": _best_seconds(lambda: new.restore(new_snap)),
    }

    # -- golden-diff: count words deviating from the golden snapshot ------
    corrupt = rng.integers(0, nwords, size=max(nwords // 1000, 8))
    new.words[corrupt] ^= 1 << 20
    for a in corrupt:
        old.words[int(a)] ^= 1 << 20

    def old_diff() -> int:
        return sum(1 for a, b in zip(old.words, old_snap) if a != b)

    def new_diff() -> int:
        return int(np.count_nonzero(new.words[: nwords] != new_snap))

    assert old_diff() == new_diff() > 0  # both sides agree before timing
    results["golden_diff"] = {
        "old_seconds": _best_seconds(old_diff),
        "new_seconds": _best_seconds(new_diff),
    }

    rows = []
    for op in ("snapshot", "restore", "golden_diff"):
        entry = results[op]
        speedup = entry["old_seconds"] / max(entry["new_seconds"], 1e-9)
        entry["speedup"] = round(speedup, 1)
        entry["old_seconds"] = round(entry["old_seconds"], 6)
        entry["new_seconds"] = round(entry["new_seconds"], 6)
        rows.append((op, f"{entry['old_seconds'] * 1e3:.3f}ms",
                     f"{entry['new_seconds'] * 1e3:.3f}ms",
                     f"{entry['speedup']:.1f}x"))
    for op in ("load_f32", "store_f32"):
        entry = results[op]
        entry["speedup"] = round(
            entry["old_ns_per_op"] / max(entry["new_ns_per_op"], 1e-9), 2
        )
        rows.append((op, f"{entry['old_ns_per_op']:.0f}ns",
                     f"{entry['new_ns_per_op']:.0f}ns",
                     f"{entry['speedup']:.2f}x"))

    payload = {
        "benchmark": "memory_ops",
        "nwords": nwords,
        "scalar_ops": n_scalar,
        "cpu_count": os.cpu_count(),
        "operations": results,
    }
    (REPO_ROOT / "BENCH_memory.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    report(format_table(
        f"Device-memory operations - {nwords} words",
        ["operation", "old (List[int])", "new (uint32 ndarray)", "speedup"],
        rows,
    ))

    # the refactor's reason to exist: whole-state ops are vectorized
    for op in ("snapshot", "restore", "golden_diff"):
        assert results[op]["speedup"] >= 5.0, \
            f"{op} speedup {results[op]['speedup']}x below the 5x floor"
    # scalar accessors must not regress (the interpreter hot path)
    for op in ("load_f32", "store_f32"):
        assert results[op]["speedup"] >= 1.0, \
            f"{op} slower than the legacy struct path"
