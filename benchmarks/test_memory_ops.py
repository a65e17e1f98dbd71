"""Device-memory micro-benchmarks of the typed NumPy backing store.

Measures the operations the whole campaign stack leans on:

* **scalar load/store**: per-word typed access through the accessors
  (the path every load the compiled engine does not read inline takes);
* **snapshot / restore**: whole-state checkpointing (differential
  golden recording, guardian checkpoints);
* **golden-diff**: counting words that deviate from a golden snapshot
  (SDC classification, deferred-store verdicts).

Each is recorded as an absolute time (best of five, nanoseconds per
operation or seconds per call) in ``BENCH_memory.json`` at the repo
root, with the word count and the CPU count; compare the file between
commits on one machine.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.gpu.memory import GlobalMemory
from repro.harness.reporting import format_table
from repro.kir.types import DType

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _best_seconds(fn, repeats: int = 5) -> float:
    """Best-of-N wall time of ``fn()`` (min is robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_memory_ops(scale, report):
    smoke = os.environ.get("REPRO_BENCH_SCALE", "").lower() == "smoke"
    nwords = 1 << 16 if smoke else 1 << 18
    n_scalar = 20_000 if smoke else 100_000

    rng = np.random.default_rng(1234)
    pattern = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint32)

    mem = GlobalMemory(capacity_words=nwords)
    mem.alloc("state", nwords, DType.FLOAT32)
    mem.words[:] = pattern

    # -- scalar typed access ----------------------------------------------
    addrs = [int(a) for a in rng.integers(0, nwords, size=n_scalar)]
    pairs = list(zip(addrs, (float(v) for v in rng.normal(size=n_scalar))))

    def scalar_loads():
        load = mem.load_f32
        for a in addrs:
            load(a)

    def scalar_stores():
        store = mem.store_f32
        for a, v in pairs:
            store(a, v)

    results = {
        "load_f32": {"ns_per_op": round(_best_seconds(scalar_loads) / n_scalar * 1e9, 1)},
        "store_f32": {"ns_per_op": round(_best_seconds(scalar_stores) / n_scalar * 1e9, 1)},
    }
    mem.words[:] = pattern  # undo the random stores

    # -- snapshot / restore ------------------------------------------------
    snap = mem.snapshot()
    results["snapshot"] = {"seconds": _best_seconds(mem.snapshot)}
    results["restore"] = {"seconds": _best_seconds(lambda: mem.restore(snap))}

    # -- golden-diff: count words deviating from the golden snapshot ------
    corrupt = np.unique(rng.integers(0, nwords, size=max(nwords // 1000, 8)))
    mem.words[corrupt] ^= 1 << 20

    def golden_diff() -> int:
        return int(np.count_nonzero(mem.words[:nwords] != snap))

    assert golden_diff() == len(corrupt)
    results["golden_diff"] = {"seconds": _best_seconds(golden_diff)}

    rows = []
    for op in ("load_f32", "store_f32"):
        rows.append((op, f"{results[op]['ns_per_op']:.0f} ns/op"))
    for op in ("snapshot", "restore", "golden_diff"):
        results[op]["seconds"] = round(results[op]["seconds"], 6)
        rows.append((op, f"{results[op]['seconds'] * 1e3:.3f} ms"))

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
        f"Device-memory operations - {nwords} words (uint32 ndarray)",
        ["operation", "best of 5"],
        rows,
    ))
