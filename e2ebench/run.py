"""End-to-end benchmark of Hauberk fault-injection campaigns.

One run builds the Hauberk program of one workload from source, runs
its Figure 14 fault-injection campaigns pass after pass for a fixed
wall-clock window, checks the results, and prints one JSON object as
the last line of its standard output::

    python3 e2ebench/run.py --workload cp --seed 1 --seconds 10 --trace 0

The unit of work is one fault-injection trial, as in the paper's
Section VIII: run the program once with one armed fault and classify
the outcome.  ``--trace 0`` reports the end-to-end metrics (trial
throughput, the time a hanging trial takes, set-up time, projected
paper-scale study time); ``--trace 1`` repeats the same work with the
campaign phase profiler installed and reports the per-layer ledger
instead.  The two runs differ only in that instrumentation, so
comparing them gives the tracing overhead.

The traffic is the program's own: each workload runs the campaigns
``repro run fig14`` runs for its benchmark under the ``BENCH`` preset
(16 sampled sites x 4 masks, one campaign per error-bit count, FI&FT
build, trained detectors, the workload's own watchdog budget).  The
fault population, input and trial order are therefore fixed, and so
is every trial's outcome.  About one trial in twenty hangs until the
watchdog and costs as much as a thousand of the others, so the two
kinds are measured apart: each cycle of the window runs one pass over
the trials that end (:func:`split_plan`), then the plan's first
hanging trial.  The first cycle must reproduce the digest recorded in
:data:`EXPECTED`; the seed picks the trials cross-checked between
replay and full execution.

End-to-end times are in reference seconds.  A shared CPU drifts by a
fifth in speed between processes, which would swamp the differences
the benchmark exists to show; so the run times a fixed pure-Python
loop around every set-up and every pass, and scales each span by what
that loop takes on the reference machine (:data:`CALIBRATION_S`) over
what it took next to the span.

The benchmark needs the ``repro`` package under ``src/`` next to this
directory; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Trials per application in the paper's study (Section VIII); the
#: projected study time runs this many trials in the plan's mix.
PAPER_TRIALS = 10_000
#: Cold set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 9
#: Trials cross-checked between replay and full execution.
PARITY_TRIALS = 4
#: A pass runs every ``STRIDE``-th trial that ends: with replay off a
#: CP trial is a full grid launch, and the whole plan would take half
#: a minute a pass.
STRIDE = 4
#: Seconds :func:`calibration_loop` takes on the reference machine
#: (one core of a 2-vCPU cloud VM).
CALIBRATION_S = 0.04
#: Input data set the program is trained and attacked on (Figure 14
#: trains and tests on the same input, Section IX.B).
INPUT_SEED = 0
#: Build mode of the Figure 14 campaigns.
MODE = "fift"


@dataclass(frozen=True)
class Case:
    """One benchmark workload: a program, its backing and execution path."""

    program: str
    #: Serve eligible trials by differential single-thread replay.
    differential: bool = True


#: Why each workload is here: ``cp`` is the replay fast path with the
#: Hauberk detectors armed; ``cp-full`` runs the same trials with replay
#: off, so every trial is a full grid launch (on the scalar engine: the
#: Hauberk runtime library keeps FI&FT launches off the vectorized one).
CASES: Dict[str, Case] = {
    "cp": Case("CP"),
    "cp-full": Case("CP", differential=False),
}

#: Positions, in the flattened Figure 14 plan, of the trials that run
#: into the watchdog: 17 of CP's 320 trials, which take 79 of the
#: plan's 81 seconds.  The digest pins the first of them as a hang and
#: every other trial in a pass as not one.
HANGS: Dict[str, Tuple[int, ...]] = {
    "CP": (2, 32, 64, 65, 67, 128, 129, 130, 131,
           192, 193, 194, 195, 256, 257, 258, 259),
}

#: Digest of the first cycle's (outcome, observation) list per workload.
#: Replay and full execution give bit-identical trials, so the two
#: share one digest.
EXPECTED: Dict[str, str] = {
    "cp": "5dd68a188c60acaa",
    "cp-full": "5dd68a188c60acaa",
}


def _import_repro() -> None:
    """Put ``src/`` on the import path, or exit with 2 when it is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


# -- set-up ---------------------------------------------------------------


def _fresh_workload(case: Case, rep: int):
    """A workload instance whose kernel is parsed anew.

    Parsed kernels (and the translation and compilation caches hung off
    them) are shared per source text inside one process.  A trailing
    comment makes the text unique, so each set-up repetition pays the
    cold cost a new process would.
    """
    from repro.workloads import get_workload

    base = type(get_workload(case.program))
    fresh = type(base.__name__, (base,), {
        "source": base.source + f"\n// set-up repetition {rep}\n",
    })
    return fresh()


def set_up(case: Case, rep: int, spans: Dict[str, List[float]]):
    """Parse, translate, train, compile and golden-record one program.

    Each layer's wall time is appended to ``spans[layer]``.
    """
    from repro.core.program import HauberkProgram
    from repro.swifi import differential_runner

    def span(name, fn):
        t0 = time.perf_counter()
        out = fn()
        spans.setdefault(name, []).append(time.perf_counter() - t0)
        return out

    workload = _fresh_workload(case, rep)
    span("parse", lambda: workload.kernel)
    program = HauberkProgram(workload)
    build = span("translate", lambda: program.build(MODE))
    span("train", lambda: program.train(seeds=[INPUT_SEED]))
    span("compile", lambda: program.runtime.prepare(build.kernel))
    span("golden", lambda: differential_runner(program, MODE, INPUT_SEED))
    return program


def fault_plan(case: Case, program) -> List[list]:
    """The campaigns ``run_fig14`` runs for ``case.program`` at ``BENCH``.

    Figure 14 draws every benchmark's sites from one generator, in the
    order of its ``NAMES``, so the draws of the benchmarks before this
    one are replayed first; then one campaign per error-bit count.
    """
    import numpy as np

    from repro.harness.config import BENCH
    from repro.harness.fig14_coverage import NAMES
    from repro.swifi import build_fault_specs, select_targets
    from repro.workloads import get_workload

    rng = np.random.default_rng(BENCH.seed + 14)
    for name in NAMES[:NAMES.index(case.program)]:
        select_targets(get_workload(name).kernel, BENCH.max_targets, rng)
    sites = select_targets(program.workload.kernel, BENCH.max_targets, rng)
    inp, _golden = program.campaign_io(INPUT_SEED)
    return [
        build_fault_specs(
            sites, n_threads=inp.n_threads,
            masks_per_site=BENCH.masks_per_site, bit_counts=(bits,),
            seed=BENCH.seed + bits,
        )
        for bits in BENCH.bit_counts
    ]


def split_plan(case: Case, plan: List[list]) -> Tuple[List[list], list]:
    """``(the pass's campaigns, the plan's hanging trials)``.

    A pass keeps every :data:`STRIDE`-th trial of each campaign that
    ends before the watchdog.
    """
    hangs = set(HANGS[case.program])
    ending: List[list] = []
    hanging = []
    at = 0
    for specs in plan:
        ending.append(
            [s for i, s in enumerate(specs, at) if i not in hangs][::STRIDE])
        hanging += [s for i, s in enumerate(specs, at) if i in hangs]
        at += len(specs)
    return ending, hanging


# -- checks ----------------------------------------------------------------


def golden_ok(program) -> bool:
    """Whether the fault-free output matches the NumPy reference."""
    obs = program.trial_runner(MODE, INPUT_SEED)(None)
    return not obs.failure and obs.output_ok


def parity_ok(program, specs, seed: int) -> bool:
    """Whether ``seed``'s sample of trials replays as full execution runs."""
    import numpy as np

    from repro.swifi import CampaignOptions, run_campaign

    picks = np.random.default_rng(seed).choice(
        len(specs), PARITY_TRIALS, replace=False)
    sample = [specs[int(i)] for i in picks]
    replayed = run_campaign(program, sample, MODE,
                            CampaignOptions(seed=INPUT_SEED))
    full = run_campaign(program, sample, MODE,
                        CampaignOptions(seed=INPUT_SEED, differential=False))
    return _keys(replayed.trials) == _keys(full.trials)


def _keys(trials) -> List[tuple]:
    return [(t.outcome, t.observation) for t in trials]


def digest(trials) -> str:
    """Short sha256 of the trials' outcomes and observations, in order."""
    h = hashlib.sha256()
    for t in trials:
        o = t.observation
        h.update(f"{t.outcome.name} {o.failure:d}{o.detected:d}"
                 f"{o.output_ok:d}{o.activated:d} {o.note}\n".encode())
    return h.hexdigest()[:16]


# -- measurement -------------------------------------------------------------


def calibration_loop() -> float:
    """Seconds a fixed dict-heavy pure-Python loop takes right now."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(200_000):
        table[i & 255] = table.get((i * 7) & 255, 0) + i
    return time.perf_counter() - t0


def timed(fn):
    """``(result, wall seconds, reference seconds)`` of calling ``fn``.

    The reference time scales the wall time by the calibration loop's
    mean over the runs just before and just after the call.
    """
    before = calibration_loop()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    after = calibration_loop()
    return out, wall, wall * 2 * CALIBRATION_S / (before + after)


def measure(program, case: Case, ending, hang, seconds: float):
    """Run cycles until ``seconds`` have passed.

    A cycle is one pass over the ``ending`` campaigns, then the ``hang``
    trial on its own.  Returns ``(first cycle trials, reference pass
    seconds, reference hang seconds, wall seconds, trials, failed)``.
    Every cycle must reproduce the first trial for trial; a trial that
    differs, or that a worker death quarantined, counts as failed.
    """
    from repro.swifi import CampaignOptions, run_campaign
    from repro.swifi.outcomes import Outcome

    options = CampaignOptions(seed=INPUT_SEED, differential=case.differential)

    def one_cycle():
        results, cycle_wall, pass_ref = [], 0.0, 0.0
        for specs in ending:
            campaign, campaign_wall, campaign_ref = timed(
                lambda: run_campaign(program, specs, MODE, options))
            results += campaign.trials
            cycle_wall += campaign_wall
            pass_ref += campaign_ref
        campaign, hang_wall, hang_ref = timed(
            lambda: run_campaign(program, [hang], MODE, options))
        results += campaign.trials
        return results, cycle_wall + hang_wall, pass_ref, hang_ref

    first: list = []
    passes: List[float] = []
    hangs: List[float] = []
    wall = 0.0
    trials = failed = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results, cycle_wall, pass_ref, hang_ref = one_cycle()
        wall += cycle_wall
        passes.append(pass_ref)
        hangs.append(hang_ref)
        if not first:
            first = results
        failed += sum(
            t.outcome is Outcome.WORKER_KILLED or key != ref
            for t, key, ref in zip(results, _keys(results), _keys(first))
        )
        trials += len(results)
    return first, passes, hangs, wall, trials, failed


# -- reporting ---------------------------------------------------------------


def _total(registry, name: str) -> float:
    """Sum of a counter over all its label sets (0 when never touched)."""
    metric = registry.as_dict().get(name)
    if metric is None:
        return 0.0
    return float(sum(sample["value"] for sample in metric["samples"]))


def ledger(spans, profiler, registry, trials: int, wall: float) -> dict:
    """Per-layer metrics: set-up spans, trial phases and layer counters.

    The phases ``diff_replay``, ``full_run`` and ``merge`` tile a trial;
    ``vector_run`` lies inside ``full_run``.  ``other_ms_per_trial`` is
    the campaign time no phase covers.
    """
    out = {}
    for name in ("parse", "translate", "train", "compile", "golden"):
        out[f"setup_{name}_ms"] = (statistics.median(spans[name]) * 1e3, "ms")

    def phase_ms(prefix: str) -> float:
        seconds = sum(sec for key, (_n, sec) in profiler.totals.items()
                      if key.partition(":")[0] == prefix)
        return seconds / trials * 1e3

    replay, full, merge = (phase_ms(p) for p in
                           ("diff_replay", "full_run", "merge"))
    out["replay_ms_per_trial"] = (replay, "ms")
    out["full_run_ms_per_trial"] = (full, "ms")
    out["vector_run_ms_per_trial"] = (phase_ms("vector_run"), "ms")
    out["merge_ms_per_trial"] = (merge, "ms")
    out["other_ms_per_trial"] = (wall / trials * 1e3 - replay - full - merge,
                                 "ms")
    hits = _total(registry, "repro_swifi_diff_hits_total")
    launches = _total(registry, "repro_launch_total")
    out["diff_hit_ratio"] = (hits / trials, "ratio")
    out["launches_per_trial"] = (launches / trials, "count")
    out["vector_launch_ratio"] = (
        _total(registry, "repro_kir_vectorized_launches_total")
        / max(1.0, launches), "ratio")
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from repro.obs.metrics import fresh_registry
    from repro.obs.profile import PhaseProfiler, use_profiler

    case = CASES[name]
    spans: Dict[str, List[float]] = {}
    setups: List[float] = []
    for rep in range(SETUP_REPS):
        program, _wall, ref = timed(lambda: set_up(case, rep, spans))
        setups.append(ref)

    plan = fault_plan(case, program)
    ending, hanging = split_plan(case, plan)
    checked = golden_ok(program) and parity_ok(
        program, [spec for specs in ending for spec in specs], seed)

    registry = fresh_registry()
    profiler = PhaseProfiler() if trace else None
    with use_profiler(profiler):
        first, passes, hangs, wall, trials, failed = measure(
            program, case, ending, hanging[0], seconds)
    got = digest(first)
    tally = Counter(t.outcome.name for t in first)
    print(f"e2ebench: {name} cycle of {len(first)} trials, digest {got}, "
          f"{dict(sorted(tally.items()))}, cycles {len(passes)}",
          file=sys.stderr)
    checked = checked and got == EXPECTED[name]

    setup_s = statistics.median(setups)
    trials_per_s = sum(map(len, ending)) / statistics.median(passes)
    hang_s = statistics.median(hangs)
    # a study runs the plan's mix: its share of hanging trials at the
    # measured hang time, the rest at the measured throughput
    share = len(hanging) / sum(map(len, plan))
    per_trial = share * hang_s + (1 - share) / trials_per_s
    if trace:
        metrics = ledger(spans, profiler, registry, trials, wall)
    else:
        metrics = {
            "trials_per_s": (trials_per_s, "1/s"),
            "hang_s": (hang_s, "s"),
            "setup_s": (setup_s, "s"),
            "study_s": (setup_s + PAPER_TRIALS * per_trial, "s"),
        }
    return {
        "correct": checked and failed == 0,
        "attempted": trials,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_repro()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
