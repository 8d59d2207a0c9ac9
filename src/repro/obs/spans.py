"""Request-scoped span trees across the serving pipeline.

PR 4's :mod:`repro.obs.trace` explains *why* a pair matched; this
module explains *where a request spent its time*.  One sampled HTTP
request yields a single stitched span tree -- asyncio accept → router
→ admission → pool checkout/queue wait → worker execute → corpus
retrieve (per-shard children with scan telemetry) → rerank →
constraint evaluation → response write -- even though the middle of
that pipeline runs in another process.

Design invariants (all dependency-free, all deterministic):

- **Null-guard pattern.**  :data:`NULL_SPAN_TRACER` answers the whole
  tracer surface as no-ops with ``enabled = False``, so untraced
  requests pay one attribute check per instrumentation point and the
  served payloads stay byte-identical with sampling on or off (spans
  ride the reply envelope / a side channel, never the result).
- **Deterministic identity.**  Trace ids come from a seeded
  :class:`HeadSampler` (blake2b over ``seed:counter``), span ids are
  per-tracer hex counters.  Worker-side tracers prefix their ids with
  the parent span id (``0003.0001``), so stitched trees never collide
  and tests can assert exact ids.
- **Monotonic time only.**  Span starts/durations are
  ``perf_counter`` offsets from the tracer epoch; nothing reads the
  wall clock, so exported files diff cleanly across runs modulo
  duration jitter.
- **Cross-boundary propagation.**  :meth:`SpanTracer.propagation_context`
  produces a small picklable dict that travels in the
  :class:`~repro.service.pool.WorkerPool` pipe envelope; the worker
  builds a child tracer from it, and the parent
  :meth:`~SpanTracer.adopt`\\ s the returned spans rebased onto the
  anchoring span's timeline.

The JSONL exporter writes sorted-key canonical lines with OTLP-shaped
field names (``traceId``/``spanId``/``parentSpanId``/``startNano``/
``durationNano``/``status``), so a real collector adapter is a thin
follow-on.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from hashlib import blake2b
from pathlib import Path
from typing import Iterable, Optional, Union

__all__ = [
    "SpanTracer",
    "NULL_SPAN_TRACER",
    "HeadSampler",
    "SpanStore",
    "SpanFileExporter",
    "RequestTracing",
    "current_tracer",
    "use_tracer",
    "current_request_id",
    "use_request_id",
    "load_span_file",
    "span_report",
    "render_span_report",
    "render_waterfall",
]

#: Attribute bounds -- spans must stay cheap to ship over a pipe and
#: boring to store, so both the count and the value size are capped.
MAX_ATTRIBUTES = 32
MAX_ATTRIBUTE_CHARS = 256

#: Default ring-buffer capacity of the in-process store (traces).
DEFAULT_STORE_CAPACITY = 512

_JSON_KWARGS = {"sort_keys": True, "separators": (",", ":")}

_STATUS_CODES = {
    "OK": "STATUS_CODE_OK",
    "ERROR": "STATUS_CODE_ERROR",
    "UNSET": "STATUS_CODE_UNSET",
}
_STATUS_NAMES = {v: k for k, v in _STATUS_CODES.items()}


def _bound_value(value):
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float)):
        return value
    text = value if isinstance(value, str) else repr(value)
    return text[:MAX_ATTRIBUTE_CHARS]


def _bound_attributes(target: dict, attributes) -> None:
    for key, value in attributes.items():
        if len(target) >= MAX_ATTRIBUTES and key not in target:
            return
        target[str(key)[:MAX_ATTRIBUTE_CHARS]] = _bound_value(value)


# ----------------------------------------------------------------------
# The tracer
# ----------------------------------------------------------------------

class SpanTracer:
    """One request's span tree; thread-safe, monotonic, deterministic.

    Spans are plain dicts (``span_id``/``parent_id``/``name``/
    ``start``/``duration``/``status``/``attributes``) with ``start``
    and ``duration`` in seconds relative to the tracer epoch.  A small
    stack provides implicit parenting for same-thread nesting;
    cross-thread children (shard fan-out) pass an explicit
    ``parent_id`` via :meth:`child` and never touch the stack.
    """

    enabled = True

    def __init__(self, trace_id: str, prefix: str = "",
                 root_parent: str = ""):
        self.trace_id = trace_id
        self.prefix = prefix
        self._root_parent = root_parent
        self._epoch = time.perf_counter()
        self._spans: list = []
        self._stack: list = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    # -- span lifecycle -------------------------------------------------

    def _new_span(self, name: str, parent_id: str) -> dict:
        span = {
            "span_id": f"{self.prefix}{next(self._ids):04x}",
            "parent_id": parent_id,
            "name": name,
            "start": time.perf_counter() - self._epoch,
            "duration": None,
            "status": "OK",
            "attributes": {},
        }
        self._spans.append(span)
        return span

    def start(self, name: str, attributes: Optional[dict] = None) -> dict:
        """Open a span under the current stack top and push it."""
        with self._lock:
            parent = (self._stack[-1]["span_id"] if self._stack
                      else self._root_parent)
            span = self._new_span(name, parent)
            if attributes:
                _bound_attributes(span["attributes"], attributes)
            self._stack.append(span)
        return span

    def child(self, name: str, parent_id: Optional[str] = None,
              attributes: Optional[dict] = None) -> dict:
        """Open a detached span (explicit parent, never on the stack).

        This is the cross-thread form: the caller reads
        :meth:`current_id` *before* handing work to another thread and
        passes it here, so concurrent shard scans cannot race on the
        nesting stack.
        """
        with self._lock:
            span = self._new_span(
                name, parent_id if parent_id is not None
                else self._root_parent,
            )
            if attributes:
                _bound_attributes(span["attributes"], attributes)
        return span

    def finish(self, span: Optional[dict], status: Optional[str] = None,
               attributes: Optional[dict] = None) -> None:
        if span is None:
            return
        with self._lock:
            if span["duration"] is None:
                span["duration"] = (
                    time.perf_counter() - self._epoch - span["start"]
                )
            if status is not None:
                span["status"] = status
            if attributes:
                _bound_attributes(span["attributes"], attributes)
            if self._stack and self._stack[-1] is span:
                self._stack.pop()
            elif span in self._stack:
                self._stack.remove(span)

    @contextmanager
    def span(self, name: str, attributes: Optional[dict] = None):
        span = self.start(name, attributes)
        try:
            yield span
        except BaseException as exc:
            self.finish(span, status="ERROR",
                        attributes={"error.type": type(exc).__name__})
            raise
        else:
            self.finish(span)

    def record(self, name: str, duration: float,
               attributes: Optional[dict] = None) -> dict:
        """Append an already-elapsed span (e.g. a measured queue wait).

        The span is back-dated so its end is *now*; it parents to the
        current stack top and never joins the stack.
        """
        with self._lock:
            parent = (self._stack[-1]["span_id"] if self._stack
                      else self._root_parent)
            span = self._new_span(name, parent)
            span["start"] -= duration
            span["duration"] = duration
            if attributes:
                _bound_attributes(span["attributes"], attributes)
        return span

    def current_id(self) -> str:
        with self._lock:
            return (self._stack[-1]["span_id"] if self._stack
                    else self._root_parent)

    def annotate(self, attributes: dict) -> None:
        """Merge ``attributes`` into the innermost open span.

        Lets deep library code (e.g. the constraint evaluator) attach
        telemetry to whatever span its caller opened, without that code
        ever owning a span handle.  No open span -> silently dropped.
        """
        with self._lock:
            if not self._stack:
                return
            _bound_attributes(self._stack[-1]["attributes"], attributes)

    # -- propagation ----------------------------------------------------

    def propagation_context(self, span: Optional[dict] = None) -> dict:
        """The picklable envelope that crosses a process boundary."""
        parent = span["span_id"] if span is not None else self.current_id()
        return {
            "trace_id": self.trace_id,
            "parent_id": parent,
            "prefix": f"{parent}." if parent else "w.",
        }

    @classmethod
    def from_context(cls, context: dict) -> "SpanTracer":
        """The worker-side tracer for a propagated context."""
        return cls(
            context["trace_id"],
            prefix=context.get("prefix", "w."),
            root_parent=context.get("parent_id", ""),
        )

    def adopt(self, spans: Optional[Iterable[dict]],
              anchor: Optional[dict] = None) -> None:
        """Graft worker-exported spans onto this tree.

        Worker span starts are relative to the *worker* tracer epoch,
        which began (to within pipe latency) when ``anchor`` -- the
        parent-side span covering the remote execution -- started;
        rebasing by ``anchor["start"]`` puts both halves on one
        timeline.
        """
        if not spans:
            return
        base = anchor["start"] if anchor is not None else 0.0
        with self._lock:
            for span in spans:
                grafted = dict(span)
                grafted["attributes"] = dict(span.get("attributes", {}))
                grafted["start"] = grafted.get("start", 0.0) + base
                if grafted.get("duration") is None:
                    grafted["duration"] = 0.0
                self._spans.append(grafted)

    def export_spans(self) -> list:
        """A snapshot of all spans (unfinished ones close at *now*)."""
        now = time.perf_counter() - self._epoch
        with self._lock:
            out = []
            for span in self._spans:
                copy = dict(span)
                copy["attributes"] = dict(span["attributes"])
                if copy["duration"] is None:
                    copy["duration"] = now - copy["start"]
                    copy["status"] = "UNSET"
                out.append(copy)
        return out


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()


class _NullSpanTracer:
    """Answers the tracer surface as no-ops; the untraced guard."""

    __slots__ = ()
    enabled = False
    trace_id = ""
    prefix = ""

    def start(self, name, attributes=None):
        return None

    def child(self, name, parent_id=None, attributes=None):
        return None

    def finish(self, span, status=None, attributes=None):
        return None

    def span(self, name, attributes=None):
        return _NULL_SPAN_CONTEXT

    def record(self, name, duration, attributes=None):
        return None

    def current_id(self):
        return ""

    def annotate(self, attributes):
        return None

    def propagation_context(self, span=None):
        return {}

    def adopt(self, spans, anchor=None):
        return None

    def export_spans(self):
        return []


NULL_SPAN_TRACER = _NullSpanTracer()


# ----------------------------------------------------------------------
# Request-scoped context
# ----------------------------------------------------------------------

_CURRENT_TRACER: ContextVar = ContextVar(
    "qmatch_span_tracer", default=NULL_SPAN_TRACER,
)
_CURRENT_REQUEST_ID: ContextVar = ContextVar(
    "qmatch_request_id", default="",
)


def current_tracer() -> SpanTracer:
    """The request's tracer, or :data:`NULL_SPAN_TRACER` outside one.

    contextvars do **not** cross ``run_in_executor`` or thread-pool
    submits, so transports set this inside the worker thread (see
    :func:`repro.service.http_api.handle_api_request`) rather than
    relying on implicit propagation.
    """
    return _CURRENT_TRACER.get()


@contextmanager
def use_tracer(tracer):
    token = _CURRENT_TRACER.set(tracer)
    try:
        yield tracer
    finally:
        _CURRENT_TRACER.reset(token)


def current_request_id() -> str:
    return _CURRENT_REQUEST_ID.get()


@contextmanager
def use_request_id(request_id: str):
    token = _CURRENT_REQUEST_ID.set(request_id or "")
    try:
        yield request_id
    finally:
        _CURRENT_REQUEST_ID.reset(token)


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------

class HeadSampler:
    """Head-based probabilistic sampling with deterministic identity.

    Request *n* under seed *s* always gets the same trace id and the
    same keep/drop decision: both derive from
    ``blake2b(f"{s}:{n}")``.  Tests pin the seed and know exactly
    which requests are sampled; production leaves the default and the
    low 64 digest bits behave as a uniform draw.
    """

    def __init__(self, rate: float, seed: int = 0):
        rate = float(rate)
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"invalid sample rate {rate}: must be within [0, 1]"
            )
        self.rate = rate
        self.seed = int(seed)
        self._counter = itertools.count()

    def decision(self) -> tuple:
        """``(sampled, trace_id)`` for the next request."""
        number = next(self._counter)
        digest = blake2b(
            f"{self.seed}:{number}".encode("ascii"), digest_size=16,
        )
        trace_id = digest.hexdigest()
        if self.rate >= 1.0:
            return True, trace_id
        if self.rate <= 0.0:
            return False, trace_id
        draw = int.from_bytes(digest.digest()[8:], "big")
        return draw < int(self.rate * 2 ** 64), trace_id


# ----------------------------------------------------------------------
# Storage and export
# ----------------------------------------------------------------------

class SpanStore:
    """Bounded in-process ring buffer of completed traces."""

    def __init__(self, capacity: int = DEFAULT_STORE_CAPACITY):
        if capacity < 1:
            raise ValueError(f"invalid capacity {capacity}: must be >= 1")
        self.capacity = capacity
        self._traces: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def add(self, trace_id: str, spans: list) -> None:
        with self._lock:
            self._traces.append((trace_id, spans))

    def get(self, trace_id: str) -> Optional[list]:
        with self._lock:
            for stored_id, spans in self._traces:
                if stored_id == trace_id:
                    return spans
        return None

    def traces(self) -> list:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


def otlp_span_line(trace_id: str, span: dict) -> str:
    """One canonical (sorted-key, compact) OTLP-shaped JSONL line."""
    record = {
        "traceId": trace_id,
        "spanId": span["span_id"],
        "parentSpanId": span.get("parent_id", ""),
        "name": span["name"],
        "kind": "SPAN_KIND_INTERNAL",
        "startNano": int(round(span.get("start", 0.0) * 1e9)),
        "durationNano": int(round((span.get("duration") or 0.0) * 1e9)),
        "status": _STATUS_CODES.get(
            span.get("status", "OK"), "STATUS_CODE_UNSET",
        ),
        "attributes": span.get("attributes", {}),
    }
    return json.dumps(record, **_JSON_KWARGS)


class SpanFileExporter:
    """Append-only JSONL exporter; one line per span, lock-serialized."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def export(self, trace_id: str, spans: list) -> None:
        lines = [otlp_span_line(trace_id, span) for span in spans]
        payload = "".join(line + "\n" for line in lines)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()


class RequestTracing:
    """The service-level tracing harness: sampler + store + exporter."""

    def __init__(self, sample_rate: float, seed: int = 0,
                 export_path: Optional[Union[str, Path]] = None,
                 capacity: int = DEFAULT_STORE_CAPACITY):
        self.sampler = HeadSampler(sample_rate, seed=seed)
        self.store = SpanStore(capacity)
        self.exporter = (
            SpanFileExporter(export_path) if export_path else None
        )

    def start_request(self) -> tuple:
        """``(tracer, trace_id)``; the tracer is NULL when unsampled."""
        sampled, trace_id = self.sampler.decision()
        if not sampled:
            return NULL_SPAN_TRACER, trace_id
        return SpanTracer(trace_id), trace_id

    def complete(self, tracer) -> None:
        """Flush a finished request's spans to the store and exporter."""
        if not getattr(tracer, "enabled", False):
            return
        spans = tracer.export_spans()
        self.store.add(tracer.trace_id, spans)
        if self.exporter is not None:
            self.exporter.export(tracer.trace_id, spans)


# ----------------------------------------------------------------------
# Offline analysis (qmatch obs report / waterfall / tail)
# ----------------------------------------------------------------------

def load_span_file(path: Union[str, Path]) -> list:
    """Parse an exported JSONL file back into span dicts (in order).

    Returned dicts use the internal field names (``span_id`` etc.,
    plus ``trace_id`` and second-valued ``start``/``duration``), so
    every in-process helper works on them unchanged.
    """
    spans = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid span line: {exc}"
                ) from None
            spans.append({
                "trace_id": record.get("traceId", ""),
                "span_id": record.get("spanId", ""),
                "parent_id": record.get("parentSpanId", ""),
                "name": record.get("name", ""),
                "start": record.get("startNano", 0) / 1e9,
                "duration": record.get("durationNano", 0) / 1e9,
                "status": _STATUS_NAMES.get(
                    record.get("status", ""), "UNSET",
                ),
                "attributes": record.get("attributes", {}),
            })
    return spans


def _percentile(ordered: list, fraction: float) -> float:
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def span_report(spans: list) -> list:
    """Per-stage latency rows: name, count, p50/p95/p99/max (seconds).

    Rows are sorted by total time descending, name ascending -- the
    stage eating the request budget leads the table.
    """
    by_name: dict = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(
            span.get("duration") or 0.0
        )
    rows = []
    for name, durations in by_name.items():
        ordered = sorted(durations)
        rows.append({
            "stage": name,
            "count": len(ordered),
            "total": sum(ordered),
            "p50": _percentile(ordered, 0.50),
            "p95": _percentile(ordered, 0.95),
            "p99": _percentile(ordered, 0.99),
            "max": ordered[-1],
        })
    rows.sort(key=lambda row: (-row["total"], row["stage"]))
    return rows


def render_span_report(rows: list) -> str:
    """The ``qmatch obs report`` table."""
    header = (
        f"{'stage':<28} {'count':>6} {'total_ms':>10} "
        f"{'p50_ms':>9} {'p95_ms':>9} {'p99_ms':>9} {'max_ms':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['stage']:<28} {row['count']:>6} "
            f"{row['total'] * 1e3:>10.3f} {row['p50'] * 1e3:>9.3f} "
            f"{row['p95'] * 1e3:>9.3f} {row['p99'] * 1e3:>9.3f} "
            f"{row['max'] * 1e3:>9.3f}"
        )
    return "\n".join(lines)


def _waterfall_children(spans: list) -> dict:
    ids = {span["span_id"] for span in spans}
    children: dict = {}
    for span in spans:
        parent = span.get("parent_id", "")
        key = parent if parent in ids else ""
        children.setdefault(key, []).append(span)
    for bucket in children.values():
        bucket.sort(key=lambda span: (span["start"], span["span_id"]))
    return children


def render_waterfall(spans: list, width: int = 40) -> str:
    """A text waterfall of one trace (indent = depth, bar = time)."""
    if not spans:
        return "(no spans)"
    children = _waterfall_children(spans)
    start = min(span["start"] for span in spans)
    end = max(
        span["start"] + (span.get("duration") or 0.0) for span in spans
    )
    window = max(end - start, 1e-9)
    trace_id = spans[0].get("trace_id", "")
    lines = []
    if trace_id:
        lines.append(
            f"trace {trace_id}  ({len(spans)} spans, "
            f"{window * 1e3:.3f}ms)"
        )

    def emit(span: dict, depth: int) -> None:
        offset = int((span["start"] - start) / window * width)
        length = max(
            1, int((span.get("duration") or 0.0) / window * width),
        )
        if offset + length > width:
            length = width - offset
        bar = " " * offset + "▇" * max(length, 1)
        label = ("  " * depth + span["name"])[:30]
        status = "" if span.get("status") == "OK" else (
            " [" + span.get("status", "") + "]"
        )
        lines.append(
            f"{label:<30} |{bar:<{width}}| "
            f"{(span.get('duration') or 0.0) * 1e3:>9.3f}ms{status}"
        )
        for child in children.get(span["span_id"], ()):
            emit(child, depth + 1)

    for root in children.get("", ()):
        emit(root, 0)
    return "\n".join(lines)
