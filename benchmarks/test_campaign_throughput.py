"""Campaign throughput — differential replay and the parallel engine.

Measures trials/second for seeded fault-injection campaigns run through
``repro.swifi.run_campaign`` along two axes:

* **differential vs full execution** — the same serial campaign with
  the differential trial engine on (the default) and off, for CP and
  for PNS (a long-looping kernel where single-thread replay pays off
  most).  The best ``speedup_diff_vs_full`` is asserted >= 3x.  A
  trial whose fault hangs the target thread costs the same in both
  worlds: in a loop with a hang shape (CP's atom loop) the engine
  decides the hang at the loop head, elsewhere (PNS's loop has a
  branch) the thread runs its statement budget out, so a spec draw
  with such hangs measures their full cost plus only the *other*
  trials' savings.
* **worker scaling** — the CP differential campaign with 1 / 2 / 4
  worker processes.  Worker speedups are reported, not asserted: they
  depend on visible CPUs, and on a single-core container the fork pool
  legitimately measures near-1x — those configs carry
  ``"cpu_limited": true`` so downstream readers don't mistake a
  scheduling artifact for a regression.
* **fi replay on a larger grid** — on a grid larger than the
  deliberately tiny default workload inputs: a mode-``fi`` campaign
  through differential replay vs full execution, both on the default
  closure engine (replay is the one fast fault-injection path).

Every configuration of a workload must produce the same ``summary()``
(the determinism contract); results land in ``BENCH_campaign.json`` at
the repo root.  The payload records the active scale preset, since a
``smoke`` payload and a ``campaign`` one differ in trial counts and do
not compare.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import numpy as np

from repro.core.program import HauberkProgram
from repro.exec import fork_available
from repro.harness.reporting import format_table
from repro.swifi import (
    CampaignOptions,
    build_fault_specs,
    differential_runner,
    run_campaign,
    select_targets,
)
from repro.workloads import get_workload
from repro.workloads.cp import CPWorkload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKER_COUNTS = (1, 2, 4)
#: Process-time seconds each side of the profiler-overhead comparison
#: runs at least.  Two smoke-scale CP campaigns a side (0.5 s) differed
#: by up to 20% between interleaved sides on a shared 2-vCPU VM; five a
#: side stayed within 3%.
MIN_TIMED_SECONDS = 2.0
#: Profiling may cost at most this share of a campaign's time.
PROFILER_OVERHEAD_BOUND = 0.05
#: The PNS pair uses single-bit flips (the paper's primary fault
#: model).  A flip that lands in a loop bound turns the trial into a
#: watchdog hang; PNS's loop has a branch, so no hang verdict ends it
#: early and the replay runs the budget out just like the full run —
#: a handful of hang trials bounds the campaign speedup (Amdahl);
#: masked/detected trials replay in ~1% of the full-grid time.


def _specs(scale, name, n_trials=None, bit_counts=(1, 6)):
    wl = get_workload(name)
    rng = np.random.default_rng(scale.seed + 77)
    sites = select_targets(wl.kernel, scale.max_targets, rng)
    inp = wl.generate_input(0)
    specs = build_fault_specs(
        sites,
        n_threads=inp.n_threads,
        masks_per_site=scale.masks_per_site,
        bit_counts=bit_counts,
        seed=scale.seed + 77,
    )
    return wl, specs[:n_trials] if n_trials else specs


def _timed(prog, specs, workers, differential, profile=False):
    options = CampaignOptions(workers=workers, differential=differential,
                              profile=profile)
    start = time.perf_counter()
    result = run_campaign(prog, specs, mode="fift", options=options)
    return time.perf_counter() - start, result.summary()


def _profiler_overhead(prog, specs):
    """CP w1-diff process time per campaign with the phase profiler on
    vs off.

    The acceptance bar for the flight recorder: profiling must cost
    <= 5% on the configuration campaigns actually run hot (serial
    differential).  One such campaign takes a few milliseconds, so the
    two sides alternate, campaign by campaign, until each has run
    ``MIN_TIMED_SECONDS``; process time leaves out the time other
    processes hold the CPU.
    """
    totals = {False: 0.0, True: 0.0}
    runs = 0
    while min(totals.values()) < MIN_TIMED_SECONDS:
        for profile in (False, True):
            options = CampaignOptions(workers=1, differential=True, profile=profile)
            start = time.process_time()
            run_campaign(prog, specs, mode="fift", options=options)
            totals[profile] += time.process_time() - start
        runs += 1
    off, on = totals[False], totals[True]
    return {
        "workload": "CP",
        "config": "w1-diff",
        "campaigns_per_side": runs,
        "profile_off_seconds": round(off / runs, 5),
        "profile_on_seconds": round(on / runs, 5),
        "profile_off_total_seconds": round(off, 4),
        "profile_on_total_seconds": round(on, 4),
        "overhead": round(on / off - 1.0, 4),
    }


def _config(key, workers, differential, elapsed, n_trials, baseline):
    entry = {
        "engine": "closure",
        "workers": workers,
        "differential": differential,
        "seconds": round(elapsed, 4),
        "trials_per_sec": round(n_trials / elapsed, 2),
        "speedup_vs_serial_full": round(baseline / elapsed, 3),
    }
    if workers > 1 and os.cpu_count() == 1:
        entry["cpu_limited"] = True
    return key, entry


def _scale_name():
    """Mirror of conftest's preset selection, for payload labelling."""
    raw = os.environ.get("REPRO_BENCH_SCALE", "").lower()
    return "smoke" if raw == "smoke" else "campaign"


#: fi-comparison sizing: the default workload inputs are tiny (64 CP
#: threads), where a full-grid trial costs little more than a replayed
#: one.  These grids are still far below the paper's 512x512 slice.
_ENGINE_SIZING = {
    "smoke": {"numatoms": 64, "volx": 32, "voly": 16, "n_trials": 10},
    "campaign": {"numatoms": 96, "volx": 64, "voly": 32, "n_trials": 16},
}


def _engine_comparison(scale, scale_name):
    """Differential vs full mode-``fi`` campaigns on a larger CP grid.

    Returns ``(section, rows)`` — the ``engine_comparison`` payload
    section (the key predates the single fast engine and is kept so the
    trend history stays comparable) and report-table rows.  Campaign
    summaries are asserted identical across paths (differential
    replay's contract); a hang the engine cannot decide at a loop head
    (the atomid strike whose index wraps int32) runs the budget out on
    both paths and bounds the speedup, so it is reported, not gated.
    """
    sizing = _ENGINE_SIZING[scale_name]
    wl_kw = {k: sizing[k] for k in ("numatoms", "volx", "voly")}

    camp_seconds = {}
    camp_summaries = {}
    n_trials = sizing["n_trials"]
    for path in ("full", "diff"):
        wl = CPWorkload(**wl_kw)
        prog = HauberkProgram(wl)
        rng = np.random.default_rng(scale.seed + 2077)
        sites = select_targets(wl.kernel, scale.max_targets, rng)
        inp = wl.generate_input(0)
        specs = build_fault_specs(
            sites, n_threads=inp.n_threads,
            masks_per_site=scale.masks_per_site, bit_counts=(1, 6),
            seed=scale.seed + 2077,
        )[:n_trials]
        if path == "full":
            runner = prog.trial_runner("fi", 0)
        else:
            runner = differential_runner(prog, "fi", 0)  # records golden
        runner(specs[0])  # warm every shared cache outside the timer
        start = time.perf_counter()
        campaign = run_campaign(None, specs, runner_factory=lambda: runner)
        camp_seconds[path] = time.perf_counter() - start
        camp_summaries[path] = campaign.summary()
    assert camp_summaries["diff"] == camp_summaries["full"], \
        "differential campaign diverged from full execution"
    camp_speedup = camp_seconds["full"] / camp_seconds["diff"]

    n_threads = (wl_kw["volx"] // 2) * wl_kw["voly"]
    section = {
        "workload": "CP",
        "workload_params": wl_kw,
        "n_threads": n_threads,
        "configs": {
            "w1-full-fi-closure": {
                "engine": "closure", "differential": False,
                "mode": "fi", "n_trials": n_trials,
                "seconds": round(camp_seconds["full"], 4),
                "trials_per_sec": round(n_trials / camp_seconds["full"], 2),
            },
            "w1-diff-fi": {
                "engine": "closure", "differential": True,
                "mode": "fi", "n_trials": n_trials,
                "seconds": round(camp_seconds["diff"], 4),
                "trials_per_sec": round(n_trials / camp_seconds["diff"], 2),
                "speedup_vs_full_closure": round(camp_speedup, 2),
            },
        },
    }
    rows = [
        (f"campaign-fi ({n_trials} trials): full vs diff", f"{n_threads} thr",
         f"{camp_seconds['full']:.2f}s",
         f"{camp_seconds['diff']:.2f}s",
         f"{camp_speedup:.1f}x"),
    ]
    return section, rows


def test_campaign_throughput(scale, report):
    workloads = {}
    rows = []
    overhead = None

    for name, n_trials, bit_counts, worker_counts in (
        ("CP", None, (1, 6), WORKER_COUNTS),
        ("PNS", None, (1,), (1,)),
    ):
        wl, specs = _specs(scale, name, n_trials, bit_counts)
        prog = HauberkProgram(wl)
        prog.train(seeds=[0])
        # Warm every shared cache (translate, compile, golden input,
        # differential golden recording) outside the timed region so
        # each configuration measures trial execution only.
        run_campaign(prog, specs[:1], mode="fift",
                     options=CampaignOptions(workers=1, differential=False))
        run_campaign(prog, specs[:1], mode="fift",
                     options=CampaignOptions(workers=1, differential=True))

        summaries = {}
        configs = {}
        full_elapsed, summaries["w1-full"] = _timed(
            prog, specs, workers=1, differential=False)
        key, entry = _config("w1-full", 1, False, full_elapsed,
                             len(specs), full_elapsed)
        configs[key] = entry
        for workers in worker_counts:
            if workers > 1 and not fork_available():
                continue
            ckey = f"w{workers}-diff"
            elapsed, summaries[ckey] = _timed(
                prog, specs, workers=workers, differential=True)
            key, entry = _config(ckey, workers, True, elapsed,
                                 len(specs), full_elapsed)
            configs[key] = entry

        diff_vs_full = round(
            full_elapsed / (configs["w1-diff"]["seconds"] or 1e-9), 3)
        workloads[name] = {
            "n_trials": len(specs),
            "configs": configs,
            "speedup_diff_vs_full": diff_vs_full,
        }
        for ckey, c in configs.items():
            rows.append((
                name, ckey, c["workers"],
                "on" if c["differential"] else "off",
                f"{c['seconds']:.2f}s", f"{c['trials_per_sec']:.1f}",
                f"{c['speedup_vs_serial_full']:.2f}x",
                "yes" if c.get("cpu_limited") else "",
            ))

        # determinism contract: identical summary for every config
        for ckey, summary in summaries.items():
            assert summary == summaries["w1-full"], \
                f"{name} {ckey} diverged from the serial full run"
        assert all(c["trials_per_sec"] > 0 for c in configs.values())

        if name == "CP":
            overhead = _profiler_overhead(prog, specs)

    scale_name = _scale_name()
    engines, engine_rows = _engine_comparison(scale, scale_name)

    payload = {
        "benchmark": "campaign_throughput",
        "mode": "fift",
        "scale": scale_name,
        "cpu_count": os.cpu_count(),
        "fork_available": fork_available(),
        "workloads": workloads,
        "engine_comparison": engines,
        "overhead": overhead,
    }
    (REPO_ROOT / "BENCH_campaign.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    report(format_table(
        f"Campaign throughput - fift, {os.cpu_count()} visible CPU(s)",
        ["workload", "config", "workers", "diff", "wall time", "trials/s",
         "speedup", "cpu-limited"],
        rows,
    ))
    report(format_table(
        f"fi replay comparison - CP {engines['n_threads']} threads, "
        f"{scale_name} scale",
        ["config", "grid", "baseline", "fast path", "speedup"],
        engine_rows,
    ))
    report(
        f"profiler overhead (CP w1-diff, {overhead['campaigns_per_side']} "
        f"interleaved campaigns a side): {overhead['overhead'] * 100:+.1f}% "
        f"({overhead['profile_off_seconds'] * 1000:.2f}ms -> "
        f"{overhead['profile_on_seconds'] * 1000:.2f}ms per campaign)"
    )

    # flight-recorder acceptance: profiling costs <= 5% on CP w1-diff;
    # the absolute escape for timer noise is 5% of one side's minimum
    # timed region
    assert (overhead["overhead"] <= PROFILER_OVERHEAD_BOUND
            or overhead["profile_on_total_seconds"]
            - overhead["profile_off_total_seconds"]
            <= PROFILER_OVERHEAD_BOUND * MIN_TIMED_SECONDS), overhead

    # the differential engine's reason to exist: at least one eligible
    # workload must clear 3x over full execution (draws heavy with hangs
    # that run the budget out legitimately bound the others — see the
    # module docstring)
    assert max(w["speedup_diff_vs_full"] for w in workloads.values()) >= 3.0
