"""Counters, gauges and fixed-bucket histograms with Prometheus output.

A :class:`MetricsRegistry` holds metric *families* -- one name, one
type, one help string -- each with labeled samples.  Names follow the
repo convention ``qmatch_<subsystem>_<name>{label=...}`` (the
``qmatch_`` namespace is added at render time), and
:meth:`MetricsRegistry.render` emits the Prometheus text exposition
format (version 0.0.4) that ``GET /metrics`` on ``qmatch serve``
returns.

Registries are **mergeable across processes**: :meth:`as_dict` /
:meth:`from_dict` round-trip every sample and :meth:`merge` adds
counters/histograms sample-wise (gauges take the other side's value),
mirroring how :class:`~repro.engine.stats.EngineStats` crosses the
worker pool's process boundary.  :func:`engine_stats_metrics` bridges the
two worlds by projecting an ``EngineStats`` snapshot into a registry,
so one scrape covers HTTP traffic and engine internals alike.
"""

from __future__ import annotations

import math
import threading
from typing import Optional

from repro.engine.stats import EngineStats

#: Default latency buckets (seconds) -- the classic Prometheus ladder.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for queue/dispatch waits (seconds).  Checkout of an idle
#: pre-warmed worker is sub-millisecond when the pool is not saturated,
#: so the ladder needs resolution well below DEFAULT_BUCKETS' 5ms floor
#: to distinguish "free worker" from "queued behind a running job".
QUEUE_WAIT_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)

_TYPES = ("counter", "gauge", "histogram")


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing sample."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def inc(self, amount: float = 1.0):
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A sample that can go up and down."""

    __slots__ = ("value",)

    def __init__(self, value: float = 0.0):
        self.value = value

    def set(self, value: float):
        self.value = value

    def inc(self, amount: float = 1.0):
        self.value += amount

    def dec(self, amount: float = 1.0):
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram (cumulative at render time).

    ``counts[i]`` is the number of observations that fell in bucket
    ``i`` (non-cumulative internally; the +Inf overflow is the last
    slot).  ``sum`` / ``count`` follow the Prometheus convention.
    """

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets=DEFAULT_BUCKETS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"buckets must be ascending, got {buckets!r}")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float):
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> list[int]:
        """Cumulative counts per bucket bound plus the +Inf total."""
        total = 0
        out = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


class MetricsRegistry:
    """Named, labeled metric families with deterministic rendering."""

    def __init__(self, namespace: str = "qmatch"):
        self.namespace = namespace
        #: name -> {"type", "help", "buckets", "samples": {labels: sample}}
        self._families: dict[str, dict] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Family / sample access
    # ------------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets=None) -> dict:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = {
                "type": kind,
                "help": help_text,
                "buckets": tuple(buckets) if buckets else None,
                "samples": {},
            }
        elif family["type"] != kind:
            raise ValueError(
                f"metric {name!r} is a {family['type']}, not a {kind}"
            )
        if help_text and not family["help"]:
            family["help"] = help_text
        return family

    @staticmethod
    def _label_key(labels: Optional[dict]) -> tuple:
        return tuple(sorted((labels or {}).items()))

    def counter(self, name: str, help_text: str = "",
                labels: Optional[dict] = None) -> Counter:
        with self._lock:
            family = self._family(name, "counter", help_text)
            key = self._label_key(labels)
            sample = family["samples"].get(key)
            if sample is None:
                sample = family["samples"][key] = Counter()
            return sample

    def gauge(self, name: str, help_text: str = "",
              labels: Optional[dict] = None) -> Gauge:
        with self._lock:
            family = self._family(name, "gauge", help_text)
            key = self._label_key(labels)
            sample = family["samples"].get(key)
            if sample is None:
                sample = family["samples"][key] = Gauge()
            return sample

    def histogram(self, name: str, help_text: str = "",
                  labels: Optional[dict] = None,
                  buckets=DEFAULT_BUCKETS) -> Histogram:
        with self._lock:
            family = self._family(name, "histogram", help_text,
                                  buckets=buckets)
            key = self._label_key(labels)
            sample = family["samples"].get(key)
            if sample is None:
                sample = family["samples"][key] = Histogram(
                    family["buckets"] or buckets
                )
            return sample

    # ------------------------------------------------------------------
    # Aggregate reads
    # ------------------------------------------------------------------

    def value(self, name: str, labels: Optional[dict] = None) -> float:
        """Current value of one counter/gauge sample (0.0 if absent)."""
        family = self._families.get(name)
        if family is None:
            return 0.0
        sample = family["samples"].get(self._label_key(labels))
        return sample.value if sample is not None else 0.0

    def samples(self, name: str) -> list:
        """``(labels_dict, sample)`` pairs of one family (SLO reads)."""
        family = self._families.get(name)
        if family is None:
            return []
        with self._lock:
            return [
                (dict(labels), sample)
                for labels, sample in family["samples"].items()
            ]

    def sum_by(self, name: str, label: str) -> dict:
        """Counter/gauge totals grouped by one label's values.

        The ``/stats`` per-route request counts come from
        ``sum_by("http_requests_total", "route")``.
        """
        family = self._families.get(name)
        totals: dict[str, float] = {}
        if family is None or family["type"] == "histogram":
            return totals
        for labels, sample in family["samples"].items():
            value = dict(labels).get(label)
            if value is None:
                continue
            totals[value] = totals.get(value, 0.0) + sample.value
        return totals

    # ------------------------------------------------------------------
    # Cross-process merge
    # ------------------------------------------------------------------

    def as_dict(self) -> dict:
        """JSON-friendly snapshot of every family and sample."""
        families = {}
        with self._lock:
            for name, family in self._families.items():
                samples = []
                for labels, sample in family["samples"].items():
                    entry = {"labels": dict(labels)}
                    if family["type"] == "histogram":
                        entry.update(
                            counts=list(sample.counts),
                            sum=sample.sum,
                            count=sample.count,
                        )
                    else:
                        entry["value"] = sample.value
                    samples.append(entry)
                families[name] = {
                    "type": family["type"],
                    "help": family["help"],
                    "buckets": (
                        list(family["buckets"]) if family["buckets"] else None
                    ),
                    "samples": samples,
                }
        return {"namespace": self.namespace, "families": families}

    @classmethod
    def from_dict(cls, payload: dict) -> "MetricsRegistry":
        registry = cls(namespace=payload.get("namespace", "qmatch"))
        registry.merge_dict(payload)
        return registry

    def merge_dict(self, payload: dict) -> "MetricsRegistry":
        """Fold an :meth:`as_dict` snapshot into this registry."""
        for name, family in (payload.get("families") or {}).items():
            kind = family.get("type")
            if kind not in _TYPES:
                raise ValueError(f"unknown metric type {kind!r} for {name!r}")
            for entry in family.get("samples") or ():
                labels = entry.get("labels") or {}
                if kind == "counter":
                    self.counter(name, family.get("help", ""), labels).inc(
                        float(entry.get("value", 0.0))
                    )
                elif kind == "gauge":
                    self.gauge(name, family.get("help", ""), labels).set(
                        float(entry.get("value", 0.0))
                    )
                else:
                    histogram = self.histogram(
                        name, family.get("help", ""), labels,
                        buckets=family.get("buckets") or DEFAULT_BUCKETS,
                    )
                    counts = list(entry.get("counts") or ())
                    if len(counts) != len(histogram.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch: "
                            f"{len(counts)} vs {len(histogram.counts)}"
                        )
                    for i, count in enumerate(counts):
                        histogram.counts[i] += int(count)
                    histogram.sum += float(entry.get("sum", 0.0))
                    histogram.count += int(entry.get("count", 0))
        return self

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Add ``other``'s samples into this registry (and return it)."""
        return self.merge_dict(other.as_dict())

    # ------------------------------------------------------------------
    # Prometheus text exposition
    # ------------------------------------------------------------------

    def render(self) -> str:
        """Text exposition format 0.0.4, deterministically ordered."""
        lines = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                full = f"{self.namespace}_{name}" if self.namespace else name
                if family["help"]:
                    lines.append(f"# HELP {full} {family['help']}")
                lines.append(f"# TYPE {full} {family['type']}")
                for labels in sorted(family["samples"]):
                    sample = family["samples"][labels]
                    if family["type"] == "histogram":
                        bounds = list(sample.buckets) + [math.inf]
                        for bound, cumulative in zip(
                            bounds, sample.cumulative()
                        ):
                            bucket_labels = labels + (
                                ("le", _format_value(bound)),
                            )
                            lines.append(
                                f"{full}_bucket{_label_suffix(bucket_labels)}"
                                f" {cumulative}"
                            )
                        lines.append(
                            f"{full}_sum{_label_suffix(labels)}"
                            f" {_format_value(sample.sum)}"
                        )
                        lines.append(
                            f"{full}_count{_label_suffix(labels)}"
                            f" {sample.count}"
                        )
                    else:
                        lines.append(
                            f"{full}{_label_suffix(labels)}"
                            f" {_format_value(sample.value)}"
                        )
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self):
        return (
            f"<MetricsRegistry {self.namespace!r} "
            f"families={len(self._families)}>"
        )


def pool_depth_metrics(registry: MetricsRegistry, size: int, idle: int,
                       respawns: Optional[int] = None):
    """Set the worker-pool depth gauges in ``registry``.

    ``service_pool_workers{state=idle|busy}`` plus the total
    ``service_pool_size`` gauge; optionally the monotonic respawn
    counter is brought up to ``respawns`` (counters only move forward,
    so the caller passes the pool's absolute total).
    """
    registry.gauge(
        "service_pool_size", "Configured worker-pool size.",
    ).set(size)
    registry.gauge(
        "service_pool_workers", "Pool workers by state.",
        {"state": "idle"},
    ).set(idle)
    registry.gauge(
        "service_pool_workers", "Pool workers by state.",
        {"state": "busy"},
    ).set(size - idle)
    if respawns is not None:
        counter = registry.counter(
            "service_pool_respawns_total",
            "Pool workers respawned after a crash or timeout kill.",
        )
        if respawns > counter.value:
            counter.inc(respawns - counter.value)


def corpus_index_metrics(registry: MetricsRegistry, info: dict):
    """Set the corpus-index shape gauges from an ``index.info()`` dict.

    Works for both index kinds: a monolithic index reports zero
    segments/tombstones and zero lazily-loaded bytes, a segmented one
    reports its real shape -- the ``kind`` label tells dashboards which
    backend is serving.  Rendered names are ``qmatch_corpus_segments``,
    ``qmatch_corpus_docs``, ``qmatch_corpus_tombstones`` and
    ``qmatch_corpus_postings_loaded_bytes``.
    """
    kind = {"kind": str(info.get("kind", "unknown"))}
    registry.gauge(
        "corpus_segments", "Live index segments (0 for monolithic).", kind,
    ).set(info.get("segments", 0))
    registry.gauge(
        "corpus_docs", "Live (non-tombstoned) indexed documents.", kind,
    ).set(info.get("docs", 0))
    registry.gauge(
        "corpus_tombstones",
        "Removed documents awaiting compaction.", kind,
    ).set(info.get("tombstones", 0))
    registry.gauge(
        "corpus_postings_loaded_bytes",
        "Packed segment payload bytes lazily loaded into memory.", kind,
    ).set(info.get("postings_bytes_loaded", 0))


def engine_stats_metrics(stats: EngineStats,
                         registry: Optional[MetricsRegistry] = None,
                         ) -> MetricsRegistry:
    """Project an :class:`EngineStats` snapshot into metric families.

    Mapping (all under the ``qmatch_engine_*`` namespace):

    - stages  -> ``engine_stage_seconds_total{stage=}`` and
      ``engine_stage_calls_total{stage=}`` counters;
    - caches  -> ``engine_cache_lookups_total{cache=,outcome=hit|miss}``;
    - counters -> ``engine_events_total{event=}``.

    Build a *fresh* registry (or snapshot) per scrape: the projection
    sets absolute totals, so folding it twice into one long-lived
    registry would double-count.
    """
    registry = registry if registry is not None else MetricsRegistry()
    for name, stage in stats.stages.items():
        registry.counter(
            "engine_stage_seconds_total",
            "Cumulative wall time per engine stage.",
            {"stage": name},
        ).inc(stage.seconds)
        registry.counter(
            "engine_stage_calls_total",
            "Invocations per engine stage.",
            {"stage": name},
        ).inc(stage.calls)
    for name, cache in stats.caches.items():
        registry.counter(
            "engine_cache_lookups_total",
            "Engine cache lookups by outcome.",
            {"cache": name, "outcome": "hit"},
        ).inc(cache.hits)
        registry.counter(
            "engine_cache_lookups_total",
            "Engine cache lookups by outcome.",
            {"cache": name, "outcome": "miss"},
        ).inc(cache.misses)
    for name, value in stats.counters.items():
        registry.counter(
            "engine_events_total",
            "Free-form engine event counters.",
            {"event": name},
        ).inc(value)
    return registry
