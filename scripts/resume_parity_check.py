#!/usr/bin/env python
"""End-to-end resume-parity check: SIGKILL a campaign, resume, compare.

The unit tests simulate interruption by truncating the journal; this
script performs the real experiment CI runs:

1. spawn a child process running a journaled campaign
   (``CampaignOptions(run_dir=...)``) over a small but non-trivial
   workload;
2. let the child stop itself once ``KILL_AFTER_RECORDS`` trials are
   journaled (each of its trial runners waits before starting a trial
   past that point), then ``SIGKILL`` its whole process group
   mid-campaign — no atexit, no flush-on-close, exactly the failure the
   journal exists for;
3. resume the campaign in this process (``CampaignOptions(resume=...)``)
   and assert the result is bit-identical to an uninterrupted run.

The default mode runs that cycle twice: once with a ``workers=1``
victim (the parent runs every trial itself) and once with a
``workers=2`` victim, whose forked lease workers die in the same
``killpg``; each resume uses the victim's worker count.

Exit status 0 on parity, 1 on any mismatch or when the kill did not
land mid-campaign.  Usage::

    PYTHONPATH=src python scripts/resume_parity_check.py
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.core.program import HauberkProgram
from repro.kir.types import DType
from repro.swifi import (
    CampaignOptions, build_fault_specs, differential_runner, enumerate_targets,
    run_campaign,
)
from repro.workloads.base import BufferSpec, Workload, WorkloadInput

KERNEL_SRC = """
kernel parity(float* data, float* out, int n) {
    int tid = blockIdx.x * blockDim.x + threadIdx.x;
    float acc = 0.0;
    for (int i = 0; i < n; i++) {
        float v = data[i] * 1.0009765625 + float(tid);
        acc = acc + v * v;
    }
    out[tid] = acc;
}
"""

N_DATA = 96
N_THREADS = 8
MASKS_PER_SITE = 6
KILL_AFTER_RECORDS = 8
KILL_DEADLINE_S = 120.0


class ParityWorkload(Workload):
    """Small looped workload, whose campaign the child stops midway."""

    name = "PARITY"
    source = KERNEL_SRC

    def generate_input(self, seed: int = 0) -> WorkloadInput:
        rng = np.random.default_rng(seed + 7)
        data = rng.uniform(0.5, 2.0, N_DATA).astype(np.float32)
        return WorkloadInput(
            buffers=[
                BufferSpec("data", DType.FLOAT32, N_DATA, data),
                BufferSpec("out", DType.FLOAT32, N_THREADS,
                           np.zeros(N_THREADS, dtype=np.float32)),
            ],
            scalars={"n": N_DATA},
            buffer_params={"data": "data", "out": "out"},
            outputs=["out"],
            grid=(1, 1),
            block=(N_THREADS, 1),
            meta={"data": data},
        )

    def golden(self, inp: WorkloadInput) -> np.ndarray:
        data = inp.meta["data"].astype(np.float64)
        tids = np.arange(N_THREADS, dtype=np.float64)
        vals = data[None, :].astype(np.float32) * np.float32(1.0009765625)
        vals = (vals.astype(np.float64) + tids[:, None])
        return (vals * vals).sum(axis=1).astype(np.float32).astype(np.float64)


def _specs():
    wl = ParityWorkload()
    inp = wl.generate_input(0)
    return wl, build_fault_specs(
        enumerate_targets(wl.kernel),
        n_threads=inp.n_threads,
        masks_per_site=MASKS_PER_SITE,
        bit_counts=(1, 3),
        seed=11,
    )


def _options(workers: int = 1, **overrides) -> CampaignOptions:
    return CampaignOptions(workers=workers, **overrides)


def _journal_path(root: str) -> str | None:
    if not os.path.isdir(root):
        return None
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry, "journal.jsonl")
        if os.path.exists(path):
            return path
    return None


def _journal_lines(root: str) -> int:
    path = _journal_path(root)
    if path is None:
        return 0
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def run_child(root: str, workers: int) -> int:
    """Child mode: run the journaled campaign until it has
    ``KILL_AFTER_RECORDS`` records, then wait to be killed.

    Every trial runner (the process itself, or each forked worker)
    checks the journal before each trial, so the campaign stops a few
    records past the mark whatever the trial speed; a forked worker
    finishes at most the chunk it holds.
    """
    wl, specs = _specs()
    program = HauberkProgram(wl)

    def runner_factory():
        runner = differential_runner(program, "fi", 0)

        def stopping(spec):
            if _journal_lines(root) >= KILL_AFTER_RECORDS:
                time.sleep(KILL_DEADLINE_S)  # the parent kills us here
            return runner(spec)

        return stopping

    run_campaign(program, specs, mode="fi",
                 options=_options(workers, run_dir=root),
                 runner_factory=runner_factory)
    return 0


def _kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL a child started in its own session, and everything it forked."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def run_check(root: str, workers: int = 1) -> int:
    wl, specs = _specs()
    print(f"[parity] campaign plan: {len(specs)} specs, "
          f"victim workers={workers}")

    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child", root,
         str(workers)],
        start_new_session=True,  # killpg reaches forked workers too
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join(
                 p for p in ("src", os.environ.get("PYTHONPATH", "")) if p)},
    )
    deadline = time.monotonic() + KILL_DEADLINE_S
    while time.monotonic() < deadline:
        if child.poll() is not None:
            break
        if _journal_lines(root) >= KILL_AFTER_RECORDS:
            _kill_group(child)
            break
        time.sleep(0.05)
    else:
        _kill_group(child)
        print("[parity] FAIL: child produced no journal records in time")
        return 1

    journaled = _journal_lines(root)
    print(f"[parity] child exited {child.returncode} with "
          f"{journaled}/{len(specs)} records journaled")
    if not 0 < journaled < len(specs):
        print("[parity] FAIL: the kill did not land mid-campaign")
        return 1

    resumed = run_campaign(HauberkProgram(ParityWorkload()), specs, mode="fi",
                           options=_options(workers, resume=root))
    baseline = run_campaign(HauberkProgram(ParityWorkload()), specs,
                            mode="fi", options=_options())

    failures = []
    if resumed.summary() != baseline.summary():
        failures.append(f"summary mismatch:\n  resumed:  "
                        f"{resumed.summary()}\n  baseline: "
                        f"{baseline.summary()}")
    for i, (a, b) in enumerate(zip(resumed.trials, baseline.trials)):
        if a.outcome != b.outcome or a.observation != b.observation \
                or a.spec != b.spec:
            failures.append(f"trial {i} mismatch: {a} != {b}")
    if len(resumed.trials) != len(baseline.trials):
        failures.append(f"trial count {len(resumed.trials)} != "
                        f"{len(baseline.trials)}")

    if failures:
        print("[parity] FAIL: killed-and-resumed differs from uninterrupted")
        for failure in failures[:10]:
            print(f"[parity]   {failure}")
        return 1
    print(f"[parity] OK: resumed workers={workers} campaign ({journaled} "
          f"replayed + {len(specs) - journaled} re-executed trials) is "
          f"bit-identical to the uninterrupted run")
    return 0


def run_checks(root: str) -> int:
    """The default mode: a ``workers=1`` victim, then a ``workers=2`` one."""
    for workers in (1, 2):
        status = run_check(os.path.join(root, f"workers{workers}"), workers)
        if status:
            return status
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", nargs=2, metavar=("ROOT", "WORKERS"),
                        help="(internal) run the journaled campaign child")
    parser.add_argument("--root", metavar="DIR",
                        help="journal root (default: a fresh temp dir)")
    args = parser.parse_args()
    if args.child:
        return run_child(args.child[0], int(args.child[1]))
    if args.root:
        return run_checks(args.root)
    with tempfile.TemporaryDirectory(prefix="resume-parity-") as root:
        return run_checks(root)


if __name__ == "__main__":
    raise SystemExit(main())
