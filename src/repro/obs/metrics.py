"""Counters, gauges, and fixed-bucket histograms with text exposition.

A :class:`MetricsRegistry` is a named collection of metrics; every
metric supports labels supplied at observation time::

    reg = MetricsRegistry()
    launches = reg.counter("repro_launch_total", "Kernel launches")
    launches.inc(kernel="cp_kernel")
    reg.render_prometheus()   # -> Prometheus text format
    reg.as_dict()             # -> JSON-ready nested dict

Dependency-free by design (the paper's detectors live *inside* the
measured system; so does this layer).  The module keeps one
process-wide registry so instrumented call-sites share a namespace;
tests swap it with :func:`set_registry` / :func:`fresh_registry`.
"""

from __future__ import annotations

import copy
import json
from bisect import bisect_left
from functools import partial
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram buckets: latency-ish spread covering both seconds
#: (translator passes) and unit fractions (loop time shares).
DEFAULT_BUCKETS = (0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)


def _labelkey(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _labelstr(key: LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


class Metric:
    """Base metric: a name, a help string, and per-labelset samples."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, Any] = {}

    # subclasses implement value access / rendering
    def _render_samples(self) -> Iterable[str]:
        raise NotImplementedError

    def _json_samples(self) -> List[Dict[str, Any]]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (floats allowed: cycle totals)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        self._inc(_labelkey(labels), amount)

    def _inc(self, key: LabelKey, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def bind(self, **labels: Any) -> Callable[..., None]:
        """:meth:`inc` with ``labels`` fixed, their key built once."""
        return partial(self._inc, _labelkey(labels))

    def value(self, **labels: Any) -> float:
        return self._samples.get(_labelkey(labels), 0.0)

    def _render_samples(self) -> Iterable[str]:
        for key in sorted(self._samples):
            yield f"{self.name}{_labelstr(key)} {_fmt(self._samples[key])}"

    def _json_samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": self._samples[key]}
            for key in sorted(self._samples)
        ]


class Gauge(Metric):
    """Point-in-time value that can move both ways."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._set(_labelkey(labels), value)

    def _set(self, key: LabelKey, value: float) -> None:
        self._samples[key] = float(value)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """:meth:`set` with ``labels`` fixed, their key built once."""
        return partial(self._set, _labelkey(labels))

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _labelkey(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        return self._samples.get(_labelkey(labels), 0.0)

    def _render_samples(self) -> Iterable[str]:
        for key in sorted(self._samples):
            yield f"{self.name}{_labelstr(key)} {_fmt(self._samples[key])}"

    def _json_samples(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": self._samples[key]}
            for key in sorted(self._samples)
        ]


class Histogram(Metric):
    """Fixed-bucket histogram: cumulative bucket counts + sum + count."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: Any) -> None:
        self._observe(_labelkey(labels), value)

    def bind(self, **labels: Any) -> Callable[[float], None]:
        """:meth:`observe` with ``labels`` fixed, their key built once."""
        return partial(self._observe, _labelkey(labels))

    def _observe(self, key: LabelKey, value: float) -> None:
        state = self._samples.get(key)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._samples[key] = state
        idx = bisect_left(self.buckets, value)
        if idx < len(self.buckets):
            state["counts"][idx] += 1
        state["sum"] += value
        state["count"] += 1

    def _absorb(self, labels: Dict[str, Any], counts: Sequence[int],
                sum_: float, count: int) -> None:
        """Add pre-bucketed counts from a snapshot (registry merging)."""
        if len(counts) != len(self.buckets):
            raise ValueError(
                f"histogram {self.name}: snapshot has {len(counts)} buckets, "
                f"expected {len(self.buckets)}"
            )
        key = _labelkey(labels)
        state = self._samples.get(key)
        if state is None:
            state = {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            self._samples[key] = state
        for i, n in enumerate(counts):
            state["counts"][i] += n
        state["sum"] += sum_
        state["count"] += count

    def count(self, **labels: Any) -> int:
        state = self._samples.get(_labelkey(labels))
        return state["count"] if state else 0

    def sum(self, **labels: Any) -> float:
        state = self._samples.get(_labelkey(labels))
        return state["sum"] if state else 0.0

    def rows(self) -> Dict[LabelKey, Tuple[int, float]]:
        """``{label key: (count, sum)}`` of every label set observed."""
        return {key: (state["count"], state["sum"])
                for key, state in self._samples.items()}

    def _render_samples(self) -> Iterable[str]:
        for key in sorted(self._samples):
            state = self._samples[key]
            cumulative = 0
            for bound, n in zip(self.buckets, state["counts"]):
                cumulative += n
                le = dict(key)
                le["le"] = _fmt(float(bound))
                yield f"{self.name}_bucket{_labelstr(_labelkey(le))} {cumulative}"
            inf = dict(key)
            inf["le"] = "+Inf"
            yield f"{self.name}_bucket{_labelstr(_labelkey(inf))} {state['count']}"
            yield f"{self.name}_sum{_labelstr(key)} {_fmt(state['sum'])}"
            yield f"{self.name}_count{_labelstr(key)} {state['count']}"

    def _json_samples(self) -> List[Dict[str, Any]]:
        out = []
        for key in sorted(self._samples):
            state = self._samples[key]
            out.append({
                "labels": dict(key),
                "buckets": {
                    _fmt(float(b)): n
                    for b, n in zip(self.buckets, state["counts"])
                },
                "sum": state["sum"],
                "count": state["count"],
            })
        return out


class MetricsRegistry:
    """Named collection of metrics with idempotent constructors."""

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        #: ``(maker, *args)`` -> what :meth:`bound` made of it
        self._bound: Dict[tuple, Any] = {}

    def _register(self, cls, name: str, help: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(name, help, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._register(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._register(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram, name, help, buckets=buckets)

    def bound(self, maker: Callable[..., Any], *args: Any) -> Any:
        """``maker(self, *args)``, made on the first call with these
        arguments: a caller that records into the same metrics and label
        sets over and over looks them up once per registry, through
        each metric's ``bind``.  A maker should register only the
        metrics its caller records into, as ``as_dict()`` lists every
        registered one."""
        key = (maker, *args)
        made = self._bound.get(key)
        if made is None:
            made = self._bound[key] = maker(self, *args)
        return made

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    # -- export ----------------------------------------------------------
    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {metric.help}")
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric._render_samples())
        return "\n".join(lines) + ("\n" if lines else "")

    def as_dict(self) -> Dict[str, Any]:
        return {
            name: {
                "type": metric.kind,
                "help": metric.help,
                "samples": metric._json_samples(),
            }
            for name, metric in sorted(self._metrics.items())
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    # -- merging -----------------------------------------------------------
    def merge_dict(self, snapshot: Dict[str, Any]) -> None:
        """Fold a JSON snapshot (:meth:`as_dict` output) into this registry.

        The primitive behind per-worker metrics aggregation: campaign
        workers record into fresh registries, ship ``as_dict()``
        snapshots back, and the parent merges them in chunk order.
        Counters and histograms *add*; gauges take the incoming value
        (last merge wins — deterministic given a deterministic merge
        order); histogram bucket bounds must match exactly.  A snapshot
        :meth:`prepare_merge` rejects changes nothing.
        """
        self.prepare_merge(snapshot)()

    def prepare_merge(self, snapshot: Dict[str, Any]) -> Callable[[], None]:
        """Check ``snapshot`` and return its merge, which cannot then fail.

        A dry run into empty copies of this registry's metrics (same
        kinds and buckets) raises ``ValueError`` here, changing nothing.
        An empty snapshot (every in-process chunk ships one) merges
        nothing and needs no dry run.
        """
        if not snapshot:
            return _merge_nothing
        scratch = MetricsRegistry()
        try:
            for name in set(snapshot) & set(self._metrics):
                scratch._metrics[name] = shape = copy.copy(self._metrics[name])
                shape._samples = {}
            scratch._merge(snapshot)
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed metrics snapshot: {exc!r}") from exc
        return lambda: self._merge(snapshot)

    def _merge(self, snapshot: Dict[str, Any]) -> None:
        for name, data in snapshot.items():
            kind = data.get("type")
            help_text = data.get("help", "")
            samples = data.get("samples", [])
            if kind == "counter":
                counter = self.counter(name, help_text)
                for sample in samples:
                    counter.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, help_text)
                for sample in samples:
                    gauge.set(sample["value"], **sample["labels"])
            elif kind == "histogram":
                for sample in samples:
                    # A JSON round trip may reorder the bucket keys
                    # (e.g. ``sort_keys=True`` orders "10.0" before
                    # "2.5"), so counts must be re-paired with their
                    # numeric bounds before comparing or absorbing —
                    # trusting dict order here used to misalign counts.
                    pairs = sorted(
                        (float(bound), count)
                        for bound, count in sample["buckets"].items()
                    )
                    bounds = tuple(bound for bound, _ in pairs)
                    histogram = self.histogram(name, help_text, buckets=bounds)
                    if histogram.buckets != bounds:
                        raise ValueError(
                            f"cannot merge histogram {name!r}: bucket "
                            f"mismatch (registry has {histogram.buckets}, "
                            f"snapshot has {bounds})"
                        )
                    histogram._absorb(
                        sample["labels"],
                        [count for _, count in pairs],
                        sample["sum"],
                        sample["count"],
                    )
            else:
                raise ValueError(f"cannot merge metric {name!r} of kind {kind!r}")


def _merge_nothing() -> None:
    """The merge of an empty snapshot."""


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry shared by all instrumented call-sites."""
    return _default_registry


def set_registry(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """Install ``registry`` globally (``None`` installs a fresh one)."""
    global _default_registry
    _default_registry = registry if registry is not None else MetricsRegistry()
    return _default_registry


def fresh_registry() -> MetricsRegistry:
    """Replace the global registry with an empty one (test isolation)."""
    return set_registry(MetricsRegistry())
