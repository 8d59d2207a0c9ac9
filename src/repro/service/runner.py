"""The per-job state machine and the one job body every backend runs.

:func:`execute_job` is the **job body**: parse the pair, match it,
build the stored payload.  Given a pool worker's resident ``state`` it
takes its trees from that worker's LRU tree cache instead of parsing;
the payload bytes are the same either way.

:class:`BatchRunner` is the **per-job state machine**, and it runs each
attempt in the calling process.  It drives a
:class:`~repro.service.jobs.JobRecord` through its lifecycle:

1. **Cache check** -- the content-addressed
   :class:`~repro.service.store.ResultStore` is consulted first; a hit
   completes the job without running it (``cache_hit=True``, zero
   attempts).
2. **Bounded retry with backoff** -- timeouts and errors are retried up
   to ``retries`` extra attempts with exponential backoff, then land in
   the ``timed-out`` / ``failed`` state.  A bad pair never aborts the
   batch.
3. **Stats / trace / metrics collection** -- job envelopes fold their
   :class:`~repro.engine.stats.EngineStats` and trace snapshots back
   into the runner under one lock, and every terminal job emits a log
   event plus metric samples.

In-process attempts are the lowest-latency mode, but a deadline cannot
be enforced on them and a hard crash takes the caller down.
:class:`~repro.service.pool.WorkerPool` subclasses the runner and
overrides only how one attempt executes: on a persistent pre-warmed
worker process that is killed at its deadline and respawned after a
crash.  Because both share this state machine, cache behaviour, error
records and result bytes are identical across the two.

A run produces a :class:`BatchReport`: job records in deterministic
submission order, per-state counts, store hit rates and the merged
:class:`~repro.engine.stats.EngineStats` of every job (worker processes
return their stats as dicts; the parent folds them back in through
:meth:`EngineStats.from_dict`).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.constraints.evidence import attach_result_axes
from repro.engine.registry import DEFAULT_REGISTRY
from repro.engine.stats import EngineStats
from repro.matching.io import result_to_payload
from repro.obs.log import NULL_LOGGER
from repro.obs.spans import current_tracer
from repro.obs.trace import TraceRecorder, trace_run_id
from repro.service.jobs import JobQueue, JobRecord, JobState, MatchJobSpec
from repro.service.store import ResultStore

#: Default per-job deadline (seconds) when neither the spec nor the
#: runner overrides it.  Generous: the paper's largest pair (protein,
#: ~4k elements) matches well inside this.
DEFAULT_TIMEOUT = 300.0


def job_fingerprint(spec: MatchJobSpec) -> str:
    """The config fingerprint a run of ``spec`` would stamp on its result.

    Computed by instantiating the (cheap) matcher and asking it, so the
    store key always agrees with what the worker will produce.  A spec
    carrying instance profiles folds their canonical-JSON hash in --
    different data must never share a cached result -- while a
    profile-less spec keeps the exact pre-profile fingerprint (and thus
    store key).
    """
    matcher = DEFAULT_REGISTRY.create(spec.algorithm, **spec.matcher_kwargs())
    fingerprint = matcher.fingerprint(spec.threshold, spec.strategy)
    if spec.source_profiles or spec.target_profiles:
        from repro.service.store import content_hash

        blob = json.dumps(
            [spec.source_profiles or {}, spec.target_profiles or {}],
            sort_keys=True, separators=(",", ":"),
        )
        fingerprint = f"{fingerprint}-prof{content_hash(blob)[:16]}"
    return fingerprint


#: Parsed schema trees kept resident per pool worker.
DEFAULT_TREE_CACHE = 128


def _job_tree(state: Optional[dict], xsd_text: str, content_hash: str,
              name: Optional[str], profiles: Optional[dict]):
    """One side of a job's pair, with its instance profiles attached.

    Without ``state`` the tree is parsed fresh.  With a pool worker's
    resident ``state`` it comes through the worker's LRU tree cache,
    keyed by content hash and name (matching never mutates trees -- all
    memoization lives in ``MatchContext`` -- which is what makes the
    cache safe).  Profiles are per-job evidence, so a cached tree gets
    them on a copy: mutating a resident tree would leak one job's data
    into the next job's match.
    """
    from repro.xsd.parser import parse_xsd

    if state is None:
        tree = parse_xsd(xsd_text, name=name)
    else:
        trees: OrderedDict = state["trees"]
        key = (content_hash, name)
        tree = trees.get(key)
        if tree is None:
            tree = parse_xsd(xsd_text, name=name)
            trees[key] = tree
            if len(trees) > state.get("tree_cache", DEFAULT_TREE_CACHE):
                trees.popitem(last=False)
        else:
            trees.move_to_end(key)
        if profiles:
            tree = tree.copy()
    if profiles:
        from repro.ingest.profile import attach_profiles

        attach_profiles(tree, profiles)
    return tree


def execute_job(spec: MatchJobSpec, state: Optional[dict] = None) -> dict:
    """The job body: run one match job and return a picklable envelope.

    Returns ``{"result": <stored payload>, "stats": <EngineStats dict>,
    "elapsed": seconds}``.  The result payload is the self-describing
    format of :mod:`repro.matching.io` plus the schema content hashes,
    so a store entry alone identifies what produced it.  Deliberately
    deterministic: no timestamps, no timings inside the payload -- a
    warm-cache rerun must be byte-identical.  ``state`` is a pool
    worker's resident state (see :func:`_job_tree`); it changes where
    the trees come from, never the payload.

    With ``spec.trace`` set, a :class:`~repro.obs.trace.TraceRecorder`
    rides through the match and comes back as ``envelope["trace"]``
    (an :meth:`~repro.obs.trace.TraceRecorder.as_dict` snapshot).  Its
    run ID derives from the spec's content hashes and the matcher
    fingerprint, so the trace of a pool worker is byte-identical to
    the same job run inline or via ``qmatch match --trace``.
    """
    started = time.perf_counter()
    source = _job_tree(state, spec.source_xsd, spec.source_hash,
                       spec.source_name or None, spec.source_profiles)
    target = _job_tree(state, spec.target_xsd, spec.target_hash,
                       spec.target_name or None, spec.target_profiles)
    matcher = DEFAULT_REGISTRY.create(spec.algorithm, **spec.matcher_kwargs())
    tracer = None
    if spec.trace:
        tracer = TraceRecorder(run_id=trace_run_id(
            spec.source_hash, spec.target_hash,
            matcher.fingerprint(spec.threshold, spec.strategy),
        ))
    context = matcher.make_context(source, target, tracer=tracer)
    result = matcher.match(
        source, target, threshold=spec.threshold, strategy=spec.strategy,
        context=context,
    )
    payload = result_to_payload(result)
    attach_result_axes(payload, result, matcher, source, target, context=context)
    payload["source_hash"] = spec.source_hash
    payload["target_hash"] = spec.target_hash
    stats = result.stats.as_dict() if result.stats is not None else {}
    envelope = {
        "result": payload,
        "stats": stats,
        "elapsed": time.perf_counter() - started,
    }
    if tracer is not None:
        envelope["trace"] = tracer.as_dict()
    return envelope


@dataclass
class BatchReport:
    """Machine-readable outcome of one batch run."""

    records: list
    workers: int
    wall_seconds: float
    stats: EngineStats
    #: job_id -> trace snapshot (:meth:`TraceRecorder.as_dict`) for the
    #: jobs that requested tracing and completed via a worker.
    traces: dict = field(default_factory=dict)

    @property
    def counts(self) -> dict:
        counts = {state.value: 0 for state in JobState}
        for record in self.records:
            counts[record.state.value] += 1
        return counts

    @property
    def cache_hits(self) -> int:
        return sum(1 for record in self.records if record.cache_hit)

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / len(self.records) if self.records else 0.0

    @property
    def ok(self) -> bool:
        """True when every job completed (possibly from cache)."""
        return all(r.state is JobState.DONE for r in self.records)

    @property
    def constraint_failures(self) -> list:
        """Records whose constraint verdict (if any) is a FAIL."""
        return [
            record for record in self.records
            if record.constraint_report is not None
            and not record.constraint_report.get("passed")
        ]

    @property
    def constraints_ok(self) -> bool:
        """True when no evaluated constraint failed (vacuously true)."""
        return not self.constraint_failures

    def to_dict(self, include_results: bool = False) -> dict:
        data = {
            "workers": self.workers,
            "wall_seconds": self.wall_seconds,
            "summary": dict(
                self.counts,
                total=len(self.records),
                cache_hits=self.cache_hits,
                cache_hit_rate=self.cache_hit_rate,
            ),
            "jobs": [
                record.snapshot(include_result=include_results)
                for record in self.records
            ],
            "stats": self.stats.as_dict(),
        }
        evaluated = [
            record for record in self.records
            if record.constraint_report is not None
        ]
        if evaluated:
            failed = len(self.constraint_failures)
            data["summary"]["constraints"] = {
                "evaluated": len(evaluated),
                "passed": len(evaluated) - failed,
                "failed": failed,
            }
        return data

    def to_json(self, include_results: bool = False,
                indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(include_results), indent=indent)

    def render(self) -> str:
        """Human-readable report table plus the summary line."""
        from repro.evaluation.harness import render_table

        rows = []
        for record in self.records:
            qom = record.result.get("tree_qom") if record.result else None
            found = (
                len(record.result.get("correspondences", ()))
                if record.result else None
            )
            note = ""
            if record.cache_hit:
                note = "cache"
            elif record.error is not None:
                note = record.error.get("message", "")[:48]
            verdict = record.constraint_report
            if verdict is not None:
                mark = "PASS" if verdict.get("passed") else "FAIL"
                note = f"constraint {mark}" + (f"; {note}" if note else "")
            rows.append((
                record.job_id, record.spec.label, record.state.value,
                record.attempts, qom, found, record.elapsed_seconds, note,
            ))
        table = render_table(
            ["job", "label", "state", "attempts", "tree QoM", "found",
             "seconds", "note"],
            rows,
        )
        counts = self.counts
        summary = (
            f"{len(self.records)} jobs: {counts['done']} done, "
            f"{counts['failed']} failed, {counts['timed-out']} timed out; "
            f"{self.cache_hits} cache hit"
            f"{'s' if self.cache_hits != 1 else ''} "
            f"({self.cache_hit_rate:.0%}); "
            f"{self.workers} worker{'s' if self.workers != 1 else ''}, "
            f"{self.wall_seconds:.2f}s wall"
        )
        lines = [table, summary]
        for record in self.constraint_failures:
            blame = record.constraint_report.get("blame") or "constraint failed"
            lines.append(
                f"constraint FAIL {record.job_id} ({record.spec.label}): {blame}"
            )
        return "\n".join(lines)


class BatchRunner:
    """The per-job state machine, running each attempt in-process.

    Owns cache lookup, bounded retry with backoff, stats/trace
    aggregation and terminal-state bookkeeping.  Jobs run one at a
    time on the calling thread; :class:`~repro.service.pool.WorkerPool`
    overrides :meth:`_execute` to run them on worker processes, and
    :meth:`run` dispatches over ``workers`` threads.
    """

    mode = "inline"
    #: Jobs :meth:`run` executes at once (a pool sets its worker count).
    workers = 1

    def __init__(self, store: Optional[ResultStore] = None,
                 timeout: Optional[float] = DEFAULT_TIMEOUT,
                 retries: int = 1,
                 retry_backoff: float = 0.1,
                 worker: Callable[..., dict] = execute_job,
                 log=NULL_LOGGER,
                 metrics=None,
                 constraint=None):
        """``retries`` is the number of *extra* attempts after the first;
        ``retry_backoff`` seconds double per retry.  ``timeout`` is the
        per-job deadline, which only a worker process can enforce.
        ``worker`` is the job body ``(spec, state=None) -> envelope``,
        injectable so tests can simulate failures, crashes and hangs.
        ``log`` is an :class:`~repro.obs.log.EventLogger` (disabled by
        default); ``metrics`` an optional
        :class:`~repro.obs.metrics.MetricsRegistry` fed per-job
        counters/latency histograms.  ``constraint`` is an optional
        default :class:`repro.constraints.Constraint` evaluated against
        every completed job (a record's own ``constraint`` field takes
        precedence); verdicts land on ``record.constraint_report``.
        """
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.worker = worker
        self.log = log
        self.metrics = metrics
        self.constraint = constraint
        #: job_id -> trace snapshot for traced jobs, collected from the
        #: worker envelopes (guarded by the stats lock).
        self.traces: dict[str, dict] = {}
        #: Aggregated over the whole run: every worker's EngineStats
        #: plus the store's hit/miss counters.  Guarded by a lock --
        #: run_record is called concurrently from dispatcher threads.
        self.stats = EngineStats()
        self._stats_lock = threading.Lock()
        if self.store is not None:
            # Fold store counters into the runner's metrics object so
            # one report covers compute and cache behaviour.
            self.store.stats = self.stats

    # ------------------------------------------------------------------
    # Per-job state machine (also driven directly by the HTTP service)
    # ------------------------------------------------------------------

    def run_record(self, record: JobRecord, queue: JobQueue):
        """Drive one record to a terminal state.  Never raises for
        job-level problems -- those become error records."""
        spec = record.spec
        tracer = current_tracer()
        span = tracer.start(
            "job.execute", {"job_id": record.job_id, "label": spec.label},
        ) if tracer.enabled else None
        try:
            key = None
            if self.store is not None:
                lookup = tracer.start("cache.lookup") \
                    if tracer.enabled else None
                key = self.store.key_for(
                    spec.source_hash, spec.target_hash, job_fingerprint(spec)
                )
                cached = self.store.get(key)
                tracer.finish(lookup, attributes={"hit": cached is not None})
                if cached is not None:
                    queue.mark_done(record, cached, cache_hit=True)
                    self._observe_job(record, "cached", 0.0)
                    return
            self._run_attempts(record, queue, key)
        except Exception as exc:  # noqa: BLE001 -- batch must survive
            queue.mark_failed(
                record,
                {"type": type(exc).__name__, "message": str(exc)},
            )
            self._observe_job(record, "failed", 0.0, error=str(exc))
        finally:
            self._apply_constraint(record)
            tracer.finish(span, attributes={"state": record.state.value})

    def _apply_constraint(self, record: JobRecord):
        """Evaluate the record's (or the runner's default) constraint.

        Always runs in the parent process over the completed result
        payload plus trees re-parsed from the spec's canonical XSD text
        -- never inside a worker -- so the report bytes cannot depend on
        which backend executed the job.  Jobs that failed outright get
        no verdict (their error record already fails the batch).
        """
        constraint = (
            record.constraint if record.constraint is not None
            else self.constraint
        )
        if constraint is None or record.constraint_report is not None:
            return
        if record.state is not JobState.DONE or record.result is None:
            return
        from repro.constraints import MatchEvidence, evaluate_constraint
        from repro.xsd.parser import parse_xsd

        spec = record.spec
        tracer = current_tracer()
        span = tracer.start("constraints.evaluate") \
            if tracer.enabled else None
        source = parse_xsd(spec.source_xsd, name=spec.source_name or None)
        target = parse_xsd(spec.target_xsd, name=spec.target_name or None)
        evidence = MatchEvidence.from_payload(
            record.result, source_tree=source, target_tree=target
        )
        report = evaluate_constraint(constraint, evidence)
        record.constraint_report = report.as_dict()
        tracer.finish(span, attributes={"passed": report.passed})
        with self._stats_lock:
            self.stats.count("constraints.evaluated")
            self.stats.count(
                "constraints.passed" if report.passed else "constraints.failed"
            )
        self.log.event(
            "constraint.evaluated", job_id=record.job_id,
            label=spec.label, passed=report.passed, blame=report.blame,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "constraints_evaluated",
                "Constraint reports evaluated against match results.",
            ).inc()
            self.metrics.counter(
                "constraints_passed" if report.passed else "constraints_failed",
                "Constraint verdicts by outcome.",
            ).inc()

    def _observe_job(self, record: JobRecord, state: str, elapsed: float,
                     error: Optional[str] = None):
        """One terminal-job observation: a log event + metric samples."""
        fields = {
            "job_id": record.job_id, "label": record.spec.label,
            "state": state, "attempts": record.attempts,
            "elapsed_seconds": round(elapsed, 6),
        }
        if error is not None:
            fields["error"] = error
        self.log.event(
            "job.done" if state in ("done", "cached") else "job.failed",
            **fields,
        )
        if self.metrics is not None:
            self.metrics.counter(
                "service_jobs_total", "Match jobs by terminal state.",
                {"state": state},
            ).inc()
            if state != "cached":
                self.metrics.histogram(
                    "service_job_seconds",
                    "Wall time of executed match job attempts.",
                ).observe(elapsed)

    def _run_attempts(self, record: JobRecord, queue: JobQueue,
                      key: Optional[str]):
        spec = record.spec
        timeout = spec.timeout if spec.timeout is not None else self.timeout
        last_error = {"type": "Unknown", "message": "job never ran"}
        timed_out = False
        elapsed = 0.0
        tracer = current_tracer()
        for attempt in range(self.retries + 1):
            if attempt and self.retry_backoff:
                time.sleep(self.retry_backoff * (2 ** (attempt - 1)))
            queue.mark_running(record)
            started = time.perf_counter()
            attempt_span = tracer.start(
                "job.attempt", {"attempt": attempt + 1},
            ) if tracer.enabled else None
            outcome, value = self._execute(spec, timeout)
            tracer.finish(
                attempt_span,
                status="OK" if outcome == "ok" else "ERROR",
                attributes={"outcome": outcome},
            )
            elapsed = time.perf_counter() - started
            if outcome == "ok":
                payload = value["result"]
                trace = value.get("trace")
                with self._stats_lock:
                    self.stats.merge(
                        EngineStats.from_dict(value.get("stats", {}))
                    )
                    self.stats.count("jobs.executed")
                    if trace is not None:
                        self.traces[record.job_id] = trace
                if self.store is not None and key is not None:
                    self.store.put(key, payload)
                queue.mark_done(record, payload, elapsed=value["elapsed"])
                self._observe_job(record, "done", value["elapsed"])
                return
            timed_out = outcome == "timeout"
            last_error = value
            with self._stats_lock:
                self.stats.count(
                    "jobs.timeouts" if timed_out else "jobs.errors"
                )
        queue.mark_failed(
            record, last_error, timed_out=timed_out, elapsed=elapsed
        )
        self._observe_job(
            record, "timed-out" if timed_out else "failed", elapsed,
            error=last_error.get("message"),
        )

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------

    def _execute(self, spec: MatchJobSpec, timeout: Optional[float]):
        """One attempt.  Returns ``("ok", envelope)``,
        ``("timeout", error)`` or ``("error", error)``; in-process
        attempts never time out."""
        try:
            return "ok", self.worker(spec)
        except Exception as exc:  # noqa: BLE001 -- job boundary
            return "error", {
                "type": type(exc).__name__, "message": str(exc),
            }

    # ------------------------------------------------------------------
    # Batch entry point
    # ------------------------------------------------------------------

    def run(self, specs: Iterable[MatchJobSpec],
            queue: Optional[JobQueue] = None) -> BatchReport:
        """Run every spec; returns the report in submission order."""
        queue = queue if queue is not None else JobQueue()
        records = queue.submit_all(specs)
        self.log.event(
            "batch.start", jobs=len(records), workers=self.workers,
            mode=self.mode,
        )
        started = time.perf_counter()
        if self.workers == 1:
            for record in records:
                self.run_record(record, queue)
        else:
            with ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="qmatch-batch",
            ) as dispatchers:
                futures = [
                    dispatchers.submit(self.run_record, record, queue)
                    for record in records
                ]
                for future in futures:
                    future.result()
        report = BatchReport(
            records=records,
            workers=self.workers,
            wall_seconds=time.perf_counter() - started,
            stats=self.stats,
            traces={
                record.job_id: self.traces[record.job_id]
                for record in records if record.job_id in self.traces
            },
        )
        self.log.event(
            "batch.done", wall_seconds=round(report.wall_seconds, 6),
            jobs=len(records), counts=report.counts,
            cache_hits=report.cache_hits,
        )
        return report
