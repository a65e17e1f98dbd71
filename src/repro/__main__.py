"""Command-line interface: regenerate paper experiments from a shell.

Usage::

    python -m repro list                      # available experiments
    python -m repro run fig04 --scale loopy   # regenerate one figure
    python -m repro run all --scale smoke     # everything, fast
    python -m repro run fig04 --trace t.jsonl # + a JSON-lines trace
    python -m repro run fig04 --json-dir out/ # + tables as JSON
    python -m repro run fig14 --run-dir runs  # durable trial journal
    python -m repro run fig14 --resume runs   # resume a killed campaign
    python -m repro run sec9c --progress --profile --run-dir runs
                                              # live progress + phase profile
    python -m repro report runs               # post-mortem of a journaled run
    python -m repro metrics fig04             # Prometheus metrics dump
    python -m repro workloads                 # benchmark inventory
    python -m repro inspect CP --mode ft      # show instrumented source
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import time
from typing import Callable, Dict, Tuple

from repro.harness.config import BENCH, LOOPY, SMOKE

_SCALES = {"smoke": SMOKE, "bench": BENCH, "loopy": LOOPY}


def _workers_arg(value: str):
    """argparse type for --workers: a count, or 'auto' for one per CPU."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _campaign_parent() -> argparse.ArgumentParser:
    """Shared campaign flags, parsed into one ``CampaignOptions``.

    A single parent parser keeps ``run`` and ``metrics`` (and any future
    campaign-driving subcommand) flag-for-flag identical.
    """
    parent = argparse.ArgumentParser(add_help=False)
    grp = parent.add_argument_group("campaign execution")
    grp.add_argument("--workers", type=_workers_arg, metavar="N",
                     help="campaign worker processes (or 'auto'; default 1)")
    grp.add_argument("--no-differential", action="store_true",
                     help="run every campaign trial as a full grid "
                          "execution instead of differential replay")
    grp.add_argument("--run-dir", metavar="DIR",
                     help="journal every campaign trial under DIR "
                          "(one subdirectory per campaign fingerprint)")
    grp.add_argument("--resume", metavar="DIR",
                     help="resume campaigns from the journal under DIR: "
                          "already-recorded trials replay instead of "
                          "re-executing (implies journaling to DIR)")
    grp.add_argument("--retries", type=int, metavar="N",
                     help="worker deaths tolerated per fault spec before "
                          "quarantine (0 = fail the campaign; default 2)")
    grp.add_argument("--progress", action="store_true",
                     help="render a live progress line (bar, trials/sec, "
                          "ETA, outcome tallies) on stderr")
    grp.add_argument("--profile", action="store_true",
                     help="attribute wall-clock to campaign phases; "
                          "journaled campaigns also write profile.json")
    return parent


def _resolve_scale(args):
    """The preset named by --scale, with the campaign flags folded in."""
    scale = _SCALES[args.scale]
    changes = {}
    workers = getattr(args, "workers", None)
    if workers is not None:
        from repro.exec import resolve_workers

        changes["workers"] = resolve_workers(workers)
    if getattr(args, "no_differential", False):
        changes["differential"] = False
    if getattr(args, "run_dir", None):
        changes["run_dir"] = args.run_dir
    if getattr(args, "resume", None):
        changes["resume"] = args.resume
    retries = getattr(args, "retries", None)
    if retries is not None:
        from repro.exec import RetryPolicy

        changes["retry"] = RetryPolicy(max_deaths=retries)
    if getattr(args, "progress", False):
        changes["progress"] = True
    if getattr(args, "profile", False):
        changes["profile"] = True
    if changes:
        scale = dataclasses.replace(
            scale, campaign=scale.campaign.evolve(**changes)
        )
    return scale


@contextlib.contextmanager
def _observability(args):
    """Install tracer / report sink for the duration of a command."""
    from repro.harness.reporting import ReportSink, set_report_sink
    from repro.obs import JsonlSink, Tracer, use_tracer

    trace_path = getattr(args, "trace", None)
    json_dir = getattr(args, "json_dir", None)
    if json_dir:
        set_report_sink(ReportSink(json_dir))
    try:
        if trace_path:
            tracer = Tracer(JsonlSink(trace_path))
            with use_tracer(tracer):
                yield
            tracer.close()
            print(f"[trace written to {trace_path}]", file=sys.stderr)
        else:
            yield
    finally:
        if json_dir:
            set_report_sink(None)
            print(f"[JSON tables written to {json_dir}]", file=sys.stderr)


def _experiments() -> Dict[str, Tuple[Callable, Callable, str]]:
    """name -> (run, print, description); imported lazily."""
    from repro.harness import (
        fig01_sensitivity,
        fig02_memory,
        fig03_graphics,
        fig04_loops,
        fig09_dependency,
        fig10_ranges,
        fig13_overhead,
        fig14_coverage,
        fig15_bitflip,
        fig16_falsepos,
        sec9c_alpha,
        sec9d_instrumentation,
    )

    return {
        "fig01": (fig01_sensitivity.run_fig01, fig01_sensitivity.print_fig01,
                  "error sensitivity: GPU HPC / graphics / CPU"),
        "fig02": (fig02_memory.run_fig02, fig02_memory.print_fig02,
                  "memory footprint by data type"),
        "fig03": (fig03_graphics.run_fig03, fig03_graphics.print_fig03,
                  "transient vs intermittent faults in graphics"),
        "fig04": (fig04_loops.run_fig04, fig04_loops.print_fig04,
                  "GPU time spent on loops"),
        "fig09": (fig09_dependency.run_fig09, fig09_dependency.print_fig09,
                  "CP loop dependency scores / target selection"),
        "fig10": (fig10_ranges.run_fig10, fig10_ranges.print_fig10,
                  "MRI-Q variable value distributions"),
        "fig13": (fig13_overhead.run_fig13, fig13_overhead.print_fig13,
                  "performance overhead of every technique"),
        "fig14": (fig14_coverage.run_fig14, fig14_coverage.print_fig14,
                  "detection coverage by benchmark and error bits"),
        "fig15": (fig15_bitflip.run_fig15, fig15_bitflip.print_fig15,
                  "FP value change magnitude vs bits flipped"),
        "fig16": (fig16_falsepos.run_fig16, fig16_falsepos.print_fig16,
                  "false-positive ratio vs training sets"),
        "sec9c": (sec9c_alpha.run_sec9c, sec9c_alpha.print_sec9c,
                  "MRI-FHD coverage vs alpha"),
        "sec9d": (sec9d_instrumentation.run_sec9d,
                  sec9d_instrumentation.print_sec9d,
                  "instrumentation time"),
    }


def cmd_list(_args) -> int:
    for name, (_r, _p, desc) in _experiments().items():
        print(f"  {name:7s} {desc}")
    return 0


def cmd_run(args) -> int:
    experiments = _experiments()
    names = list(experiments) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in experiments]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    scale = _resolve_scale(args)
    with _observability(args):
        for name in names:
            run, show, desc = experiments[name]
            print(f"== {name}: {desc} (scale={args.scale}) ==")
            start = time.perf_counter()
            result = run(scale)
            show(result)
            print(f"[{name} took {time.perf_counter() - start:.1f}s]\n")
    return 0


def cmd_metrics(args) -> int:
    """Run experiment(s), then dump the metrics registry instead of tables."""
    import contextlib as _ctx
    import io

    from repro.obs import get_registry

    experiments = _experiments()
    names = list(experiments) if args.experiment == "all" else [args.experiment]
    unknown = [n for n in names if n not in experiments]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'",
              file=sys.stderr)
        return 2
    scale = _resolve_scale(args)
    with _observability(args):
        for name in names:
            run, _show, _desc = experiments[name]
            with _ctx.redirect_stdout(io.StringIO()):  # tables stay quiet
                run(scale)
    registry = get_registry()
    text = registry.render_json() if args.format == "json" \
        else registry.render_prometheus()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[metrics written to {args.output}]", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
    return 0


def cmd_report(args) -> int:
    """Generate the deterministic post-mortem for a journaled run."""
    from repro.errors import InjectionError
    from repro.obs.report import build_report, render_json, render_markdown

    try:
        report = build_report(
            args.run_dir,
            include_timing=not args.no_timing,
            trace=args.trace,
        )
    except InjectionError as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    text = render_json(report) if args.format == "json" \
        else render_markdown(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"[report written to {args.output}]", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def cmd_workloads(_args) -> int:
    from repro.core.program import HauberkProgram
    from repro.harness.reporting import print_table
    from repro.workloads import all_workloads, get_workload

    rows = []
    for name in all_workloads():
        wl = get_workload(name)
        prog = HauberkProgram(wl)
        result = prog.run(mode="original", seed=0)
        ok = wl.spec.check(result.output, wl.golden(wl.generate_input(0)))
        rows.append(
            (name, result.launch.n_threads,
             f"{result.launch.total_cycles:.0f}",
             f"{100 * result.launch.loop_fraction:.1f}%", ok)
        )
    print_table(
        "Workload inventory (baseline runs)",
        ["workload", "threads", "cycles", "loop time", "golden ok"],
        rows,
    )
    return 0


def cmd_inspect(args) -> int:
    from repro.core.translator import HauberkTranslator
    from repro.kir.printer import kernel_to_source
    from repro.workloads import get_workload

    wl = get_workload(args.workload)
    build = HauberkTranslator().build(wl.kernel, args.mode)
    print(kernel_to_source(build.kernel))
    if build.detector_configs:
        print(f"\n// {len(build.detector_configs)} loop detector(s):")
        for cfg in build.detector_configs:
            print(f"//   det {cfg.detector}: {cfg.variable} "
                  f"(self-acc={cfg.self_accumulating}, trip={cfg.has_trip_check})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the Hauberk paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments").set_defaults(fn=cmd_list)

    campaign_flags = _campaign_parent()

    run_p = sub.add_parser("run", help="run one experiment (or 'all')",
                           parents=[campaign_flags])
    run_p.add_argument("experiment")
    run_p.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    run_p.add_argument("--trace", metavar="FILE",
                       help="write a JSON-lines span/event trace to FILE")
    run_p.add_argument("--json-dir", metavar="DIR",
                       help="also write every table as JSON into DIR")
    run_p.set_defaults(fn=cmd_run)

    met_p = sub.add_parser(
        "metrics", help="run experiment(s) and dump the metrics registry",
        parents=[campaign_flags],
    )
    met_p.add_argument("experiment")
    met_p.add_argument("--scale", choices=sorted(_SCALES), default="smoke")
    met_p.add_argument("--format", choices=("prometheus", "json"),
                       default="prometheus")
    met_p.add_argument("--output", metavar="FILE",
                       help="write the dump to FILE instead of stdout")
    met_p.add_argument("--trace", metavar="FILE",
                       help="write a JSON-lines span/event trace to FILE")
    met_p.set_defaults(fn=cmd_metrics)

    rep_p = sub.add_parser(
        "report",
        help="post-mortem report for a journaled run directory",
    )
    rep_p.add_argument("run_dir", metavar="RUN_DIR",
                       help="directory previously passed as --run-dir")
    rep_p.add_argument("--format", choices=("markdown", "json"),
                       default="markdown")
    rep_p.add_argument("--output", metavar="FILE",
                       help="write the report to FILE instead of stdout")
    rep_p.add_argument("--trace", metavar="FILE",
                       help="also aggregate spans/events from this trace "
                            "JSONL into the timing section")
    rep_p.add_argument("--no-timing", action="store_true",
                       help="omit all timing sections (profile, heartbeats, "
                            "trace) — only execution-speed-independent facts")
    rep_p.set_defaults(fn=cmd_report)

    sub.add_parser("workloads", help="benchmark inventory").set_defaults(
        fn=cmd_workloads
    )

    ins_p = sub.add_parser("inspect", help="print an instrumented kernel")
    ins_p.add_argument("workload")
    ins_p.add_argument(
        "--mode", choices=("original", "profiler", "ft", "fi", "fift"), default="ft"
    )
    ins_p.set_defaults(fn=cmd_inspect)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
