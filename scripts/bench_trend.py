#!/usr/bin/env python
"""Benchmark trend tracking: append snapshots, fail on regressions.

The benchmark suites write point-in-time payloads (``BENCH_campaign.json``,
``BENCH_memory.json``) at the repo root and overwrite them on every run,
so a perf regression is invisible unless someone diffs by hand.  This
script closes that loop:

* **append** — each invocation appends the current payloads as one
  JSON line per file under ``bench_results/`` (``campaign.trend.jsonl``
  / ``memory.trend.jsonl``), building a local history.
* **baseline** — ``--record`` stores the current payloads as the
  comparison baseline (``bench_results/baseline_campaign.json`` /
  ``baseline_memory.json``).
* **check** — without ``--record``, every tracked metric is compared
  against the baseline; any metric that regressed by more than the
  threshold (default 20%) fails the run with exit code 1
  (``--no-fail`` reports but exits 0).

Tracked metrics are ratios/rates where more is better
(``trials_per_sec``, ``speedup*``)
plus the profiler ``overhead`` where less is better.  Absolute wall
times are *not* compared — they shift with the host; the ratios are
what the paper's claims rest on.

Payloads that record a ``scale`` preset are only compared against a
baseline recorded at the *same* preset: a ``smoke`` payload checked
against a ``campaign`` baseline (or vice versa) produces phantom
regressions from the differing trial counts and grid sizes, not from
any code change — exactly the failure mode that once flagged the CP
differential campaign as 3x slower when only the preset had changed.
Mismatched scales skip the check with an explanatory note.

Usage::

    python scripts/bench_trend.py --record      # set today's baseline
    python scripts/bench_trend.py               # append + check vs baseline
    python scripts/bench_trend.py --threshold 0.1 --no-fail
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Dict, Iterator, List, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Bench payloads tracked: short name -> repo-root filename.
BENCH_FILES = {
    "campaign": "BENCH_campaign.json",
    "memory": "BENCH_memory.json",
}

#: Minimum baseline magnitude for a ratio check; metrics smaller than
#: this are pure timer noise and are skipped.
EPSILON = 1e-9


def _walk_metrics(payload: Any, prefix: str = "") -> Iterator[Tuple[str, float, bool]]:
    """Yield ``(dotted_path, value, more_is_better)`` for tracked metrics.

    Rates and speedups regress when they *drop*; the profiler
    ``overhead`` regresses when it *rises*.  Everything else (raw
    seconds, counts, flags) is environment-dependent and skipped.
    """
    if isinstance(payload, dict):
        for key, value in payload.items():
            path = f"{prefix}.{key}" if prefix else key
            if isinstance(value, (dict, list)):
                yield from _walk_metrics(value, path)
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                leaf = key.rsplit(".", 1)[-1]
                if leaf == "trials_per_sec" or leaf.startswith("speedup"):
                    yield path, float(value), True
                elif leaf == "overhead":
                    yield path, float(value), False
    elif isinstance(payload, list):
        for i, value in enumerate(payload):
            yield from _walk_metrics(value, f"{prefix}[{i}]")


def _load(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        print(f"bench-trend: unreadable {path}: {exc}", file=sys.stderr)
        return None


def _append_snapshot(results_dir: pathlib.Path, name: str,
                     payload: Dict[str, Any]) -> pathlib.Path:
    results_dir.mkdir(exist_ok=True)
    trend = results_dir / f"{name}.trend.jsonl"
    with open(trend, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")
    return trend


def _check(name: str, current: Dict[str, Any], baseline: Dict[str, Any],
           threshold: float) -> List[str]:
    """Regressions of ``current`` vs ``baseline`` beyond ``threshold``."""
    base_metrics = {path: (value, more)
                    for path, value, more in _walk_metrics(baseline)}
    regressions = []
    for path, value, more_is_better in _walk_metrics(current):
        base = base_metrics.get(path)
        if base is None:
            continue  # new metric: no baseline to regress against
        base_value, _ = base
        if more_is_better:
            if abs(base_value) < EPSILON:
                continue
            change = (base_value - value) / abs(base_value)
            arrow = f"{base_value:g} -> {value:g}"
        else:
            # lower-is-better with a near-zero baseline (overhead):
            # compare absolute movement against the threshold directly
            change = ((value - base_value) / abs(base_value)
                      if abs(base_value) >= EPSILON else value - base_value)
            arrow = f"{base_value:g} -> {value:g}"
        if change > threshold:
            regressions.append(
                f"{name}:{path} regressed {change * 100:.1f}% ({arrow})"
            )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Append benchmark snapshots and fail on regressions."
    )
    parser.add_argument("--record", action="store_true",
                        help="store current payloads as the baseline")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="relative regression tolerance (default 0.20)")
    parser.add_argument("--no-fail", action="store_true",
                        help="report regressions but exit 0")
    parser.add_argument("--root", default=str(REPO_ROOT),
                        help="repo root holding the BENCH_*.json payloads")
    args = parser.parse_args(argv)

    root = pathlib.Path(args.root)
    results_dir = root / "bench_results"
    regressions: List[str] = []
    seen_any = False
    for name, filename in sorted(BENCH_FILES.items()):
        payload = _load(root / filename)
        if payload is None:
            print(f"bench-trend: {filename} absent, skipping")
            continue
        seen_any = True
        trend = _append_snapshot(results_dir, name, payload)
        baseline_path = results_dir / f"baseline_{name}.json"
        if args.record:
            baseline_path.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            print(f"bench-trend: baseline recorded at {baseline_path}")
            continue
        baseline = _load(baseline_path)
        if baseline is None:
            print(f"bench-trend: no baseline for {name} "
                  f"(run with --record first); appended to {trend}")
            continue
        cur_scale = payload.get("scale")
        base_scale = baseline.get("scale")
        if cur_scale != base_scale and (cur_scale or base_scale):
            # different presets measure different workloads entirely —
            # comparing them reports phantom regressions, not real ones
            print(f"bench-trend: {name}: scale mismatch "
                  f"(current {cur_scale!r} vs baseline {base_scale!r}) — "
                  f"skipping check; re-record the baseline at this scale")
            continue
        found = _check(name, payload, baseline, args.threshold)
        regressions.extend(found)
        status = f"{len(found)} regression(s)" if found else "ok"
        print(f"bench-trend: {name}: {status} "
              f"(threshold {args.threshold * 100:.0f}%, history {trend})")

    if not seen_any:
        print("bench-trend: no BENCH_*.json payloads found — "
              "run the benchmark suites first", file=sys.stderr)
        return 1
    for line in regressions:
        print(f"bench-trend: {line}", file=sys.stderr)
    if regressions and not args.no_fail:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
