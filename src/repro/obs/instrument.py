"""Instrumentation helpers binding the framework's hot paths to obs.

Call-sites in ``gpu/runtime.py``, ``swifi/campaign.py``,
``core/guardian.py``, ``core/translator.py``, and ``core/recovery.py``
invoke these one-liners; each resolves the process-wide tracer and
registry at call time, so everything stays a no-op-speed path under the
default :class:`~repro.obs.events.NullTracer` and costs one dict update
per observation when enabled.  The records every fault-injection trial
makes (``record_launch``, ``record_launch_failure``,
``record_hang_verdict``, ``record_trial``, ``record_lease`` and
``record_differential_trial``) look their metrics and label keys up
once per registry and label set
(:meth:`~repro.obs.metrics.MetricsRegistry.bound`), and then cost one
bound call per observation.

Metric namespace (all Prometheus-style, prefix ``repro_``):

==========================================  =========  =======================
name                                        kind       labels
==========================================  =========  =======================
repro_launch_total                          counter    kernel
repro_launch_cycles_total                   counter    kernel
repro_launch_failures_total                 counter    kernel, kind
repro_launch_loop_fraction                  histogram  kernel
repro_launch_spill_factor                   gauge      kernel
repro_kir_hang_verdicts_total               counter    kernel
repro_kir_numpy_runs_total                  counter    kernel, result
repro_trial_outcomes_total                  counter    outcome
repro_trial_activation_ratio                gauge      --
repro_trial_site_faults                     histogram  --
repro_campaigns_total                       counter    --
repro_swifi_parallel_workers                gauge      --
repro_swifi_chunks_total                    counter    --
repro_swifi_diff_hits_total                 counter    --
repro_swifi_diff_fallbacks_total            counter    reason
repro_swifi_journal_replayed_total          counter    --
repro_swifi_journal_appends_total           counter    --
repro_swifi_worker_deaths_total             counter    phase
repro_swifi_quarantined_total               counter    --
repro_campaign_leases_total                 counter    event
repro_guardian_attempts_total               counter    --
repro_guardian_restarts_total               counter    --
repro_guardian_hang_kills_total             counter    --
repro_guardian_bist_runs_total              counter    --
repro_guardian_migrations_total             counter    --
repro_guardian_checkpoint_restores_total    counter    --
repro_guardian_watchdog_budget              gauge      --
repro_alpha_adjustments_total               counter    direction
repro_alpha_value                           gauge      --
repro_translator_passes_total               counter    mode
repro_translator_statements_added_total     rule       (loop|nonloop|fi_hook)
repro_translator_seconds                    histogram  mode
repro_campaign_phase_seconds                histogram  phase, reason
repro_obs_trace_dropped_total               counter    --
==========================================  =========  =======================

The last two are recorded outside this module:
``repro_campaign_phase_seconds`` by :mod:`repro.obs.profile` (one
observation per profiled campaign phase occurrence) and
``repro_obs_trace_dropped_total`` by
:class:`repro.obs.events.RingBufferSink` (one increment per record
evicted from a full ring buffer).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Optional

from repro.obs.events import get_tracer
from repro.obs.metrics import MetricsRegistry, get_registry

#: Unit-interval buckets for fraction-valued histograms (loop share).
FRACTION_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0)

#: Site-id buckets for the per-site fault histogram; kernels here have
#: tens of virtual-variable sites, so narrow low buckets resolve them.
SITE_BUCKETS = (4, 8, 12, 16, 24, 32, 48, 64, 96, 128)

#: Sub-second buckets for translator pass timing.
SECONDS_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0)


def traced(name: Optional[str] = None, **static_attrs: Any) -> Callable:
    """Decorator wrapping a callable in a tracer span.

    The span name defaults to the function's qualified name; extra
    keyword attributes are attached to every span.
    """

    def deco(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with get_tracer().span(span_name, **static_attrs):
                return fn(*args, **kwargs)

        return wrapper

    return deco


# -- kernel launches (gpu/runtime.py) -----------------------------------

def _launch_metrics(reg: MetricsRegistry, kernel: str) -> tuple:
    return (
        reg.counter("repro_launch_total", "Kernel launches").bind(kernel=kernel),
        reg.counter(
            "repro_launch_cycles_total", "Simulated thread-cycles across launches"
        ).bind(kernel=kernel),
        reg.histogram(
            "repro_launch_loop_fraction", "Fraction of launch cycles inside loops",
            buckets=FRACTION_BUCKETS,
        ).bind(kernel=kernel),
        reg.gauge(
            "repro_launch_spill_factor", "Register-spill slowdown of the last launch"
        ).bind(kernel=kernel),
    )


def record_launch(result) -> None:
    """One successful :class:`~repro.gpu.runtime.LaunchResult`."""
    launches, cycles, loop_fraction, spill = get_registry().bound(
        _launch_metrics, result.kernel_name)
    launches()
    cycles(result.total_cycles)
    loop_fraction(result.loop_fraction)
    spill(result.spill_factor)


def _launch_failure_metric(reg: MetricsRegistry, kernel: str,
                           kind: str) -> Callable:
    return reg.counter(
        "repro_launch_failures_total", "Kernel launches ending in crash or hang"
    ).bind(kernel=kernel, kind=kind)


def record_launch_failure(kernel_name: str, kind: str) -> None:
    """A crash/hang the GPU runtime or watchdog detected."""
    get_registry().bound(_launch_failure_metric, kernel_name, kind)()


def _hang_verdict_metric(reg: MetricsRegistry, kernel: str) -> Callable:
    return reg.counter(
        "repro_kir_hang_verdicts_total",
        "Trial hangs decided at a loop head instead of run to the budget",
    ).bind(kernel=kernel)


def record_hang_verdict(kernel_name: str) -> None:
    """A hang the compiled engine decided at a loop head (one of the
    hangs ``repro_launch_failures_total`` counts)."""
    get_registry().bound(_hang_verdict_metric, kernel_name)()


def record_numpy_run(kernel_name: str, result: str) -> None:
    """One counted run long enough for its loop's NumPy form
    (``kir/interp/codegen.py``): ``result`` is ``ran``, or why the
    scalar run computed it instead (``nan_word``, ``nonfinite``,
    ``zero_divisor``, ``index``)."""
    get_registry().counter(
        "repro_kir_numpy_runs_total",
        "Counted loop runs long enough to compute as array operations, by result",
    ).inc(kernel=kernel_name, result=result)


# -- fault-injection campaigns (swifi/campaign.py) ----------------------

def _outcome_metric(reg: MetricsRegistry, outcome: str) -> Callable:
    return reg.counter(
        "repro_trial_outcomes_total", "Campaign trials by outcome class"
    ).bind(outcome=outcome)


def _site_metric(reg: MetricsRegistry) -> Callable:
    return reg.histogram(
        "repro_trial_site_faults", "Injected faults by virtual-variable site",
        buckets=SITE_BUCKETS,
    ).bind()


def record_trial(outcome, spec) -> None:
    """One classified campaign trial."""
    get_registry().bound(_outcome_metric, outcome.value)()
    if spec is not None:
        get_registry().bound(_site_metric)(spec.site)


def record_campaign(result) -> None:
    """Campaign-level aggregates from a finished CampaignResult."""
    reg = get_registry()
    reg.counter("repro_campaigns_total", "Completed FI campaigns").inc()
    reg.gauge(
        "repro_trial_activation_ratio",
        "Activated-fault fraction of the last campaign",
    ).set(result.activation_ratio)


def record_parallel_campaign(workers: int, chunks: int) -> None:
    """A campaign dispatched to forked workers (swifi/parallel.py)."""
    reg = get_registry()
    reg.gauge(
        "repro_swifi_parallel_workers",
        "Worker processes of the last parallel campaign",
    ).set(workers)
    reg.counter(
        "repro_swifi_chunks_total", "Campaign spec chunks dispatched to workers"
    ).inc(chunks)


def _diff_hit_metric(reg: MetricsRegistry) -> Callable:
    return reg.counter(
        "repro_swifi_diff_hits_total",
        "Campaign trials served by differential single-thread replay",
    ).bind()


def _diff_fallback_metric(reg: MetricsRegistry, reason: str) -> Callable:
    return reg.counter(
        "repro_swifi_diff_fallbacks_total",
        "Campaign trials that fell back to full execution",
    ).bind(reason=reason)


def record_differential_trial(hit: bool, reason: str = "") -> None:
    """One trial routed by the differential engine (swifi/differential.py).

    ``hit`` means the trial was served by single-thread replay; a miss
    fell back to full execution for ``reason`` (kernel ineligibility,
    footprint conflicts, or a per-trial ``replay_conflict``).
    """
    if hit:
        get_registry().bound(_diff_hit_metric)()
    else:
        get_registry().bound(_diff_fallback_metric, reason or "ineligible")()


def record_journal_activity(replayed: int = 0, appended: int = 0) -> None:
    """Journal traffic of one campaign (swifi/journal.py).

    ``replayed`` counts trials served from a resumed journal instead of
    re-executed; ``appended`` counts fresh records flushed to disk.
    """
    reg = get_registry()
    if replayed:
        reg.counter(
            "repro_swifi_journal_replayed_total",
            "Campaign trials replayed from a resumed journal",
        ).inc(replayed)
    if appended:
        reg.counter(
            "repro_swifi_journal_appends_total",
            "Trial records appended to campaign journals",
        ).inc(appended)


def record_worker_death(phase: str, count: int = 1) -> None:
    """Campaign workers lost while holding a lease.

    ``phase`` is ``exit``: a forked worker's pipe reached EOF.
    """
    get_registry().counter(
        "repro_swifi_worker_deaths_total",
        "Campaign workers lost while holding a lease",
    ).inc(count, phase=phase)


def record_quarantine() -> None:
    """One spec quarantined after repeatedly killing workers."""
    get_registry().counter(
        "repro_swifi_quarantined_total",
        "Fault specs quarantined for killing worker processes",
    ).inc()


# -- campaign scheduler leases ---------------------------------------------

def _lease_metric(reg: MetricsRegistry, event: str) -> Callable:
    return reg.counter(
        "repro_campaign_leases_total",
        "Campaign chunk-lease lifecycle events",
    ).bind(event=event)


def record_lease(event: str, count: int = 1) -> None:
    """One lease lifecycle event of the campaign scheduler.

    ``event`` is ``granted`` (a chunk handed to a worker), ``completed``
    (its result landed), ``released`` (a forked worker's process ended
    while holding it), or ``reissued`` (a lost chunk requeued).
    """
    get_registry().bound(_lease_metric, event)(count)


# -- guardian supervision (core/guardian.py) ----------------------------

def record_guardian_budget(budget: int) -> None:
    get_registry().gauge(
        "repro_guardian_watchdog_budget",
        "Per-thread statement budget of the current watchdog window",
    ).set(budget)


def record_guardian_report(report) -> None:
    """Counters from one finished :class:`GuardianReport`."""
    reg = get_registry()
    pairs = (
        ("repro_guardian_attempts_total", "Supervised launch attempts",
         report.attempts),
        ("repro_guardian_restarts_total", "Guardian-driven restarts",
         report.restarts),
        ("repro_guardian_hang_kills_total", "Watchdog hang kills",
         report.hang_kills),
        ("repro_guardian_bist_runs_total", "BIST diagnoses triggered",
         report.bist_runs),
        ("repro_guardian_migrations_total", "Device migrations",
         report.migrations),
        ("repro_guardian_checkpoint_restores_total", "Checkpoint restores",
         report.checkpoint_restores),
    )
    for name, help_text, amount in pairs:
        if amount:
            reg.counter(name, help_text).inc(amount)


# -- alpha recalibration (core/recovery.py) -----------------------------

def record_alpha_adjustment(old: float, new: float) -> None:
    reg = get_registry()
    reg.gauge("repro_alpha_value", "Current range-scaling alpha").set(new)
    if new != old:
        direction = "up" if new > old else "down"
        reg.counter(
            "repro_alpha_adjustments_total",
            "Alpha recalibrations by the false-positive controller",
        ).inc(direction=direction)
        get_tracer().event("alpha.adjust", old=old, new=new, direction=direction)


# -- translator passes (core/translator.py) -----------------------------

def record_translator_pass(mode: str, kernel_name: str, seconds: float,
                           statements_added) -> None:
    """One translator build: mode, wall time, per-rule statement deltas."""
    reg = get_registry()
    reg.counter(
        "repro_translator_passes_total", "Translator builds by mode"
    ).inc(mode=mode)
    reg.histogram(
        "repro_translator_seconds", "Wall-clock seconds per translator build",
        buckets=SECONDS_BUCKETS,
    ).observe(seconds, mode=mode)
    added = reg.counter(
        "repro_translator_statements_added_total",
        "Statements added to kernels by instrumentation rule",
    )
    for rule, count in statements_added.items():
        if count:
            added.inc(count, rule=rule)
    get_tracer().event(
        "translator.build", mode=mode, kernel=kernel_name,
        seconds=seconds, **{f"added_{r}": c for r, c in statements_added.items()},
    )
