#!/usr/bin/env python
"""Study-level parity gate: the smoke study's tables, four ways.

Runs ``repro run <experiment> --scale smoke --json-dir`` (``all`` by
default) four ways and compares every JSON table each writes with the
default run's:

1. the default (compiled engine, differential replay, one worker);
2. the lockstep interpreter with full launches: this script runs
   ``repro`` in a child whose ``GPURuntime`` defaults to the lockstep
   engine, with ``--no-differential``;
3. ``--workers 2``;
4. a journaled run (``--run-dir``) killed after :data:`KILL_AFTER`
   journal records (the child stalls before its next record and its
   process group gets ``SIGKILL``), then ``--resume`` of that journal.

Every run treats a ``RuntimeWarning`` as an error.  Tables must be
equal cell for cell, but for the wall-clock cells :data:`WALL_CLOCK`
names.  Exit status 0 on parity, 1 on a difference.
Usage::

    PYTHONPATH=src python scripts/study_parity.py [--experiment all]
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

#: Table file -> the headers of its columns that hold wall-clock times.
WALL_CLOCK: Dict[str, Sequence[str]] = {
    "section-ix-d-instrumentation-time.json": ("FT build", "FI build"),
}
#: Journal records the killed run writes before it stalls.
KILL_AFTER = 40
#: Seconds the parent waits for the stalled child.
KILL_DEADLINE_S = 600.0


def _env() -> dict:
    src = str(Path(__file__).resolve().parent.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p)}


def _repro(args: List[str], child: Optional[str] = None, **popen) -> subprocess.Popen:
    """Start ``repro <args>``, in this script's ``child`` mode if given;
    a numeric warning fails the run."""
    python = [sys.executable, "-W", "error::RuntimeWarning"]
    if child is None:
        cmd = [*python, "-m", "repro", *args]
    else:
        cmd = [*python, os.path.abspath(__file__), "--child", child, "--", *args]
    return subprocess.Popen(cmd, env=_env(), stdout=subprocess.DEVNULL, **popen)


def _run(args: List[str], child: Optional[str] = None) -> None:
    proc = _repro(args, child)
    if proc.wait() != 0:
        raise SystemExit(f"[study-parity] FAIL: repro {' '.join(args)} exited {proc.returncode}")


def _journal_records(root: Path) -> int:
    return sum(path.read_bytes().count(b"\n") for path in root.glob("*/journal.jsonl"))


def killed_and_resumed(study: List[str], root: Path, tables: Path,
                       doctor: Optional[Callable[[Path], None]] = None) -> None:
    """Way 4: kill a journaled run after :data:`KILL_AFTER` records, let
    ``doctor`` see the run directory, then resume it into ``tables``."""
    child = _repro(study + ["--run-dir", str(root)], child=f"stall:{KILL_AFTER}",
                   start_new_session=True)
    deadline = time.monotonic() + KILL_DEADLINE_S
    while child.poll() is None and time.monotonic() < deadline:
        if _journal_records(root) >= KILL_AFTER:
            break
        time.sleep(0.05)
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    child.wait()
    if not 0 < _journal_records(root) <= KILL_AFTER:
        raise SystemExit(f"[study-parity] FAIL: the kill left {_journal_records(root)} records")
    if doctor is not None:
        doctor(root)
    _run(study + ["--resume", str(root), "--json-dir", str(tables)])


def _masked(name: str, table: dict) -> dict:
    columns = WALL_CLOCK.get(name, ())
    if not columns:
        return table
    drop = [i for i, header in enumerate(table.get("headers", [])) if header in columns]
    rows = [[None if i in drop else cell for i, cell in enumerate(row)]
            for row in table.get("rows", [])]
    return {**table, "rows": rows}


def compare(base: Path, other: Path) -> List[str]:
    """How ``other``'s tables differ from ``base``'s (empty: they agree)."""
    names = sorted(p.name for p in base.glob("*.json"))
    others = sorted(p.name for p in other.glob("*.json"))
    if names != others:
        return [f"tables {names} != {others}"]
    diffs = []
    for name in names:
        a = _masked(name, json.loads((base / name).read_text()))
        b = _masked(name, json.loads((other / name).read_text()))
        if a != b:
            diffs.append(f"{name} differs")
    return diffs


def check(experiment: str, root: Path) -> int:
    study = ["run", experiment, "--scale", "smoke"]
    ways = {"lockstep-full": ("lockstep", ["--no-differential"]),
            "workers-2": (None, ["--workers", "2"])}
    t0 = time.monotonic()
    _run(study + ["--json-dir", str(root / "default")])
    for way, (child, extra) in ways.items():
        _run(study + extra + ["--json-dir", str(root / way)], child)
    killed_and_resumed(study, root / "journal", root / "resumed")
    failures = []
    for way in (*ways, "resumed"):
        diffs = compare(root / "default", root / way)
        failures += [f"{way}: {d}" for d in diffs]
        print(f"[study-parity] {way}: {'differs' if diffs else 'equal'}")
    if failures:
        for failure in failures:
            print(f"[study-parity] FAIL: {failure}")
        return 1
    print(f"[study-parity] OK: {experiment} tables equal four ways "
          f"({time.monotonic() - t0:.0f} s)")
    return 0


def child(mode: str, args: List[str]) -> int:
    """Run ``repro <args>`` with ``mode``'s patch applied in-process."""
    if mode == "lockstep":
        from repro.gpu import runtime

        init = runtime.GPURuntime.__init__

        def lockstep_init(self, device=None, costmodel=None, engine=None):
            init(self, device, costmodel, runtime.ENGINE_LOCKSTEP if engine is None else engine)

        runtime.GPURuntime.__init__ = lockstep_init
    elif mode.startswith("stall:"):
        from repro.swifi.journal import CampaignJournal

        left = int(mode.partition(":")[2])
        append = CampaignJournal.append_trial

        def stalling_append(self, *a, **k):
            nonlocal left
            if left <= 0:
                time.sleep(KILL_DEADLINE_S)  # the parent kills us here
            left -= 1
            return append(self, *a, **k)

        CampaignJournal.append_trial = stalling_append
    else:
        raise SystemExit(f"unknown child mode {mode!r}")
    from repro.__main__ import main

    return main(args)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--experiment", default="all")
    parser.add_argument("--root", metavar="DIR", help="work directory (default: a temp dir)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("args", nargs="*", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return child(args.child, args.args)
    if args.root:
        return check(args.experiment, Path(args.root))
    with tempfile.TemporaryDirectory(prefix="study-parity-") as root:
        return check(args.experiment, Path(root))


if __name__ == "__main__":
    raise SystemExit(main())
