"""The embeddable match service: queue, backend and store behind one API.

:class:`MatchService` is the core: submit a schema pair, poll the job,
fetch the result.  Jobs run through the same per-job state machine as
``qmatch batch`` (:class:`~repro.service.runner.BatchRunner`), so cache
behaviour, retry semantics and error records are identical whether a
pair arrives via a manifest or via HTTP.  Two execution modes share
that state machine:

- ``inline`` -- on the service threads themselves; lowest latency, no
  hard timeouts (the embedded default);
- ``pool``   -- a persistent pre-warmed
  :class:`~repro.service.pool.WorkerPool`: deadlines and crash
  containment without a per-job fork, parse or thesaurus load (the
  ``qmatch serve`` default).

The HTTP API itself lives in :mod:`repro.service.http_api`, and
:mod:`repro.service.aserver` is the asyncio transport that serves it.
Endpoints::

    GET  /healthz            -- liveness
    GET  /stats              -- job counts + store hit rates + engine stats
    GET  /jobs               -- job records, paginated (?offset=&limit=)
    POST /jobs               -- submit {source_xsd, target_xsd, ...};
                                202 with the job id
    GET  /jobs/<id>          -- one job's status record
    GET  /jobs/<id>/result   -- the stored result payload (409 until done)
    POST /match              -- synchronous convenience: submit and wait
    POST /search             -- top-k corpus search (needs --corpus)

POST bodies are JSON: ``source_xsd`` / ``target_xsd`` carry XSD text,
plus optional ``algorithm``, ``threshold``, ``strategy``, ``weights``
(four numbers or a "L,P,H,C" string) and ``timeout``.  ``/search``
takes ``query_xsd`` plus optional ``k``, ``candidates``, ``rerank``.
Validation errors return 400 with the same message the CLI would
print; saturation returns 429 with ``Retry-After``; oversized bodies
return 413; a draining service answers 503 to new work.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.obs.log import NULL_LOGGER, EventLogger
from repro.obs.metrics import (
    MetricsRegistry,
    corpus_index_metrics,
    engine_stats_metrics,
    pool_depth_metrics,
)
from repro.obs.slo import default_slos, evaluate_slos, slo_metrics
from repro.obs.spans import RequestTracing
from repro.service.http_api import ServiceDraining, ServiceSaturated
from repro.service.jobs import JobQueue, JobRecord, MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import DEFAULT_TIMEOUT, BatchRunner, execute_job
from repro.service.store import ResultStore
from repro.service.validation import (
    ValidationError,
    validate_algorithm,
    validate_positive,
    validate_search_budget,
    validate_threshold,
    validate_weights,
)

#: Default request-body cap: plenty for any pair of real-world XSDs,
#: small enough that a misbehaving client cannot balloon the process.
DEFAULT_MAX_BODY = 10 * 1024 * 1024

#: Execution modes (see the module docstring).
SERVICE_MODES = ("inline", "pool")


class MatchService:
    """Queue + execution backend + result store behind a submit/poll API."""

    def __init__(self, workers: int = 2,
                 store: Optional[ResultStore] = None,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 mode: str = "inline",
                 searcher=None,
                 worker=None,
                 corpus_dir=None,
                 cache_dir=None,
                 scorer: str = "cosine",
                 segmented: bool = False,
                 shards: Optional[int] = None,
                 max_pending: Optional[int] = None,
                 max_body_bytes: int = DEFAULT_MAX_BODY,
                 max_jobs: Optional[int] = None,
                 trace_sample: float = 0.0,
                 trace_seed: int = 0,
                 trace_export=None,
                 trace_capacity: int = 512,
                 slos=None,
                 log=NULL_LOGGER):
        # ``mode`` picks the execution backend (see the module
        # docstring).  ``worker`` is the job body, injectable for tests:
        # a ``(spec, state=None) -> envelope`` callable in both modes.
        if mode not in SERVICE_MODES:
            raise ValidationError(
                f"invalid mode {mode!r}: expected one of "
                f"{', '.join(SERVICE_MODES)}"
            )
        if max_pending is not None and max_pending < 1:
            raise ValidationError(
                f"max_pending must be >= 1, got {max_pending}"
            )
        if max_body_bytes < 1:
            raise ValidationError(
                f"max_body_bytes must be >= 1, got {max_body_bytes}"
            )
        self.mode = mode
        self.log = log
        #: Long-lived HTTP/job/pool metrics (the engine side is
        #: projected in fresh per scrape -- see :meth:`metrics_text`).
        self.metrics = MetricsRegistry()
        self.started_at = time.time()
        self.max_pending = max_pending
        self.max_body_bytes = max_body_bytes
        self.draining = False
        #: Request-scoped span tracing (None = every request untraced;
        #: the transports then run on the NULL tracer guard).
        self.tracing = None
        if trace_sample and float(trace_sample) > 0.0:
            self.tracing = RequestTracing(
                float(trace_sample), seed=trace_seed,
                export_path=trace_export, capacity=trace_capacity,
            )
        #: Service-level objectives evaluated on demand over the
        #: long-lived request metrics (``/slo`` and ``qmatch_slo_*``).
        self.slos = list(slos) if slos is not None else default_slos()
        runner_kwargs = {
            "store": store,
            "timeout": timeout if timeout is not None else DEFAULT_TIMEOUT,
            "retries": retries, "retry_backoff": 0.05,
            "worker": worker if worker is not None else execute_job,
            "log": log, "metrics": self.metrics,
        }
        if mode == "pool":
            self.runner = WorkerPool(
                workers=workers, corpus_dir=corpus_dir, cache_dir=cache_dir,
                scorer=scorer, segmented=segmented, shards=shards,
                **runner_kwargs,
            )
        else:
            self.runner = BatchRunner(**runner_kwargs)
        self.queue = JobQueue(max_records=max_jobs)
        self.workers = workers
        #: Optional :class:`~repro.corpus.search.CorpusSearcher` behind
        #: ``POST /search``; in pool mode the search usually runs on a
        #: worker's *resident* searcher instead (see
        #: :meth:`search_from_request`).
        self.searcher = searcher
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="qmatch-serve"
        )

    @property
    def store(self) -> Optional[ResultStore]:
        return self.runner.store

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def check_admission(self):
        """Gate job-submitting routes: drain beats saturation.

        Raises :class:`ServiceDraining` once :meth:`drain` started and
        :class:`ServiceSaturated` when pending+running jobs reached
        ``max_pending`` -- the transport turns those into 503 and
        429 + ``Retry-After`` respectively, *before* the request body
        is validated (a saturated service should not spend CPU parsing
        schemas it will reject).
        """
        if self.draining:
            raise ServiceDraining()
        if self.max_pending is None:
            return
        active = self.queue.active
        if active >= self.max_pending:
            raise ServiceSaturated(
                f"service is saturated: {active} jobs pending or running "
                f"(limit {self.max_pending}); retry later",
                retry_after=1,
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def spec_from_request(self, body: dict) -> MatchJobSpec:
        """Validate a POST body into a job spec (raises ValidationError)."""
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        source_xsd = body.get("source_xsd")
        target_xsd = body.get("target_xsd")
        if not source_xsd or not target_xsd:
            raise ValidationError(
                "request must carry non-empty source_xsd and target_xsd"
            )
        from repro.xsd.parser import parse_xsd
        from repro.xsd.serializer import to_xsd

        try:
            source = parse_xsd(source_xsd)
            target = parse_xsd(target_xsd)
        except Exception as exc:
            raise ValidationError(f"unparseable schema: {exc}") from exc
        algorithm = validate_algorithm(body.get("algorithm", "qmatch"))
        weights = validate_weights(body.get("weights"))
        if weights is not None and algorithm != "qmatch":
            raise ValidationError(
                "weights only apply to the qmatch algorithm"
            )
        trace = body.get("trace", False)
        if not isinstance(trace, bool):
            raise ValidationError(
                f"invalid trace {trace!r}: expected true or false"
            )
        return MatchJobSpec(
            source_xsd=to_xsd(source),
            target_xsd=to_xsd(target),
            algorithm=algorithm,
            threshold=validate_threshold(body.get("threshold", 0.5)),
            strategy=body.get("strategy"),
            weights=weights.as_tuple() if weights is not None else None,
            timeout=validate_positive(
                body.get("timeout"), "timeout", allow_none=True
            ),
            trace=trace,
            label=str(body.get("label", "")),
            source_name=source.name,
            target_name=target.name,
        )

    def constraint_from_request(self, body: dict):
        """Parse the optional inline ``constraints`` object of a POST body.

        Returns a parsed :class:`repro.constraints.Constraint` or
        ``None``; malformed documents become 400s (``include`` is
        rejected outright -- inline requests may not touch the server's
        filesystem).
        """
        if not isinstance(body, dict) or body.get("constraints") is None:
            return None
        from repro.constraints import ConstraintError, parse_constraint

        try:
            return parse_constraint(body["constraints"])
        except ConstraintError as exc:
            raise ValidationError(f"invalid constraints: {exc}") from None

    def submit(self, spec: MatchJobSpec, constraint=None) -> JobRecord:
        """Enqueue a job; it runs on the background dispatcher pool."""
        record = self.queue.submit(spec)
        record.constraint = constraint
        self._pool.submit(self.runner.run_record, record, self.queue)
        return record

    def run_sync(self, spec: MatchJobSpec, constraint=None) -> JobRecord:
        """Submit and wait (the POST /match convenience path)."""
        record = self.queue.submit(spec)
        record.constraint = constraint
        self.runner.run_record(record, self.queue)
        return record

    # ------------------------------------------------------------------
    # Corpus search
    # ------------------------------------------------------------------

    def search_from_request(self, body: dict) -> dict:
        """Validate a POST /search body and run the two-stage search.

        In pool mode with a corpus configured, the search is dispatched
        to a worker's resident searcher (corpus + indexes stay loaded
        across requests); otherwise the service's own searcher answers.
        Validation -- including the query parse -- always happens here,
        so malformed requests are 400s in every mode.
        """
        pool_search = self.mode == "pool" and self.runner.has_corpus
        if self.searcher is None and not pool_search:
            raise ValidationError(
                "no corpus configured; start the service with "
                "qmatch serve --corpus DIR"
            )
        if not isinstance(body, dict):
            raise ValidationError("request body must be a JSON object")
        query_xsd = body.get("query_xsd")
        if not query_xsd:
            raise ValidationError("request must carry non-empty query_xsd")
        from repro.xsd.parser import parse_xsd

        try:
            query = parse_xsd(query_xsd)
        except Exception as exc:
            raise ValidationError(f"unparseable query schema: {exc}") from exc
        k, candidates = validate_search_budget(
            body.get("k", 10), body.get("candidates")
        )
        rerank = body.get("rerank", True)
        if not isinstance(rerank, bool):
            raise ValidationError(
                f"invalid rerank {rerank!r}: expected true or false"
            )
        constraint = self.constraint_from_request(body)
        if constraint is not None and not rerank:
            raise ValidationError(
                "constraints need rerank evidence; drop rerank=false "
                "or the constraints object"
            )
        if pool_search:
            payload = self.runner.search({
                "query_xsd": query_xsd,
                "k": k,
                "candidates": candidates,
                "rerank": rerank,
                # The raw (already validated) document: the worker
                # re-parses it, keeping the pipe protocol plain data.
                "constraints": (
                    body["constraints"] if constraint is not None else None
                ),
            })
        else:
            result = self.searcher.search(
                query, k=k, candidates=candidates, rerank=rerank,
                constraint=constraint,
            )
            payload = result.as_dict()
        self._observe_search_constraints(payload)
        return payload

    def _observe_search_constraints(self, payload: dict):
        """Fold a search's constraint counters into the service metrics.

        Counter updates come from the result payload, not live searcher
        state, so pool-mode searches (evaluated inside a worker process)
        are counted exactly like inline ones.
        """
        counters = payload.get("constraints")
        if not counters:
            return
        self.metrics.counter(
            "constraints_evaluated",
            "Constraint reports evaluated against match results.",
        ).inc(int(counters.get("evaluated", 0)))
        self.metrics.counter(
            "constraints_passed", "Constraint verdicts by outcome.",
        ).inc(int(counters.get("admitted", 0)))
        self.metrics.counter(
            "constraints_failed", "Constraint verdicts by outcome.",
        ).inc(int(counters.get("filtered", 0)))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def trace_for(self, job_id: str) -> Optional[dict]:
        """The collected trace snapshot of one traced, finished job."""
        return self.runner.traces.get(job_id)

    def record_request(self, method: str, route: str, status: int,
                       elapsed: float):
        """One request's samples in the long-lived metrics registry."""
        self.metrics.counter(
            "http_requests_total",
            "HTTP requests by method, route and status.",
            {"method": method, "route": route, "status": str(status)},
        ).inc()
        self.metrics.histogram(
            "http_request_seconds",
            "HTTP request latency by route.",
            {"route": route},
        ).observe(elapsed)

    def metrics_text(self) -> str:
        """The ``GET /metrics`` body: Prometheus text format 0.0.4.

        A fresh snapshot registry per scrape: the long-lived HTTP/job
        samples are merged in, the engine stats are projected (absolute
        totals -- never folded into a long-lived registry), pool depth
        gauges are refreshed, and the uptime gauge is set last.
        """
        snapshot = MetricsRegistry()
        snapshot.merge(self.metrics)
        engine_stats_metrics(self.runner.stats, registry=snapshot)
        if self.mode == "pool":
            pool_depth_metrics(
                snapshot,
                size=self.runner.size,
                idle=self.runner.idle_count,
                respawns=self.runner.respawns,
            )
        if self.searcher is not None:
            corpus_index_metrics(snapshot, self.searcher.index.info())
        if self.slos:
            slo_metrics(snapshot, evaluate_slos(self.slos, self.metrics))
        snapshot.gauge(
            "service_uptime_seconds",
            "Seconds since the service started.",
        ).set(time.time() - self.started_at)
        return snapshot.render()

    def slo_snapshot(self) -> dict:
        """The ``GET /slo`` body: every objective's budget arithmetic."""
        return {
            "window": "since-start",
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "objectives": evaluate_slos(self.slos, self.metrics),
        }

    def stats_snapshot(self) -> dict:
        store = self.store
        searcher = self.searcher
        routes = {
            route: int(total)
            for route, total in sorted(
                self.metrics.sum_by("http_requests_total", "route").items()
            )
        }
        snapshot = {
            "workers": self.workers,
            "mode": self.mode,
            "uptime_seconds": round(time.time() - self.started_at, 3),
            "admission": {
                "max_pending": self.max_pending,
                "active": self.queue.active,
                "draining": self.draining,
            },
            "limits": {
                "max_body_bytes": self.max_body_bytes,
                "max_jobs": self.queue.max_records,
            },
            "routes": routes,
            "corpus": None if searcher is None else {
                "root": str(searcher.corpus.root),
                "entries": len(searcher.corpus),
                "indexed": searcher.index.document_count,
            },
            "jobs": self.queue.counts(),
            "store": None if store is None else {
                "root": str(store.root),
                "entries": len(store),
                "hits": store.hits,
                "misses": store.misses,
                "hit_rate": store.hit_rate,
            },
            "engine": self.runner.stats.as_dict(),
        }
        if self.mode == "pool":
            snapshot["pool"] = {
                "size": self.runner.size,
                "idle": self.runner.idle_count,
                "respawns": self.runner.respawns,
                "corpus_resident": self.runner.has_corpus,
            }
        return snapshot

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: refuse new work, let in-flight jobs finish.

        Returns True when every admitted job reached a terminal state
        before ``timeout`` (None = wait indefinitely).  Read-only
        routes keep answering during the drain, so clients can still
        poll results of jobs admitted before it started.
        """
        self.draining = True
        self.log.event(
            "serve.drain", active=self.queue.active,
            timeout=timeout,
        )
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while self.queue.active:
            if deadline is not None and time.monotonic() >= deadline:
                break
            time.sleep(0.02)
        drained = self.queue.active == 0
        self.shutdown(wait=drained)
        return drained

    def shutdown(self, wait: bool = True):
        self._pool.shutdown(wait=wait)
        if self.mode == "pool":
            self.runner.shutdown(wait=wait)


def build_searcher(corpus_dir, cache_dir=None, workers: int = 1,
                   scorer: str = "cosine", log=NULL_LOGGER,
                   segmented: bool = False, shards: Optional[int] = None):
    """Open a corpus directory (with its saved index) as a searcher.

    Shared by ``qmatch serve --corpus``, ``qmatch search`` and the
    worker pool's resident warm-up.  ``segmented`` opens the on-disk
    segment manifest instead of the monolithic ``index.json`` (lazy
    payload loading -- open cost is independent of corpus size), and
    ``shards`` > 1 additionally fans the stage-1 scan over that many
    segment shards.  Raises a clean error when the corpus or its index
    is missing; a *stale* index (corpus content changed since the last
    build) is reported by the caller, not rejected -- search still
    works, it just cannot see the un-indexed schemas.
    """
    from repro.corpus.corpus import CorpusError, SchemaCorpus
    from repro.corpus.indexes import INDEX_NAME, CorpusIndex
    from repro.corpus.search import CorpusSearcher

    corpus = SchemaCorpus(corpus_dir)
    if not len(corpus):
        raise CorpusError(
            f"corpus {str(corpus_dir)!r} is empty; build it with "
            "qmatch index build"
        )
    store = ResultStore(cache_dir) if cache_dir is not None else None
    if segmented:
        from repro.corpus.segments import (
            SEGMENT_MANIFEST_NAME,
            SEGMENTS_DIR,
            SegmentedCorpusIndex,
        )
        from repro.corpus.shard import ShardedCorpusSearcher

        segments_root = corpus.root / SEGMENTS_DIR
        if not (segments_root / SEGMENT_MANIFEST_NAME).exists():
            raise CorpusError(
                f"corpus {str(corpus_dir)!r} has no segmented index; "
                "build it with qmatch index build --segmented"
            )
        index = SegmentedCorpusIndex.open(segments_root, log=log)
        if shards is not None and shards > 1:
            return ShardedCorpusSearcher(
                corpus, index, shards=shards, scorer=scorer,
                workers=workers, store=store, log=log,
            )
        return CorpusSearcher(
            corpus, index, scorer=scorer, workers=workers, store=store,
            log=log,
        )
    index_path = corpus.root / INDEX_NAME
    if not index_path.exists():
        raise CorpusError(
            f"corpus {str(corpus_dir)!r} has no index; build it with "
            "qmatch index build"
        )
    index = CorpusIndex.load(index_path)
    return CorpusSearcher(
        corpus, index, scorer=scorer, workers=workers, store=store, log=log,
    )


def serve(host: str = "127.0.0.1", port: int = 8765, workers: int = 2,
          cache_dir=None, verbose: bool = True,
          mode: str = "pool", timeout=None, retries: int = 1,
          corpus_dir=None, scorer: str = "cosine",
          segmented: bool = False, shards: Optional[int] = None,
          max_pending: Optional[int] = None,
          max_body_bytes: int = DEFAULT_MAX_BODY,
          max_jobs: Optional[int] = None,
          drain_timeout: Optional[float] = 30.0,
          trace_sample: float = 0.0,
          trace_seed: int = 0,
          trace_export=None,
          slos=None,
          log: Optional[EventLogger] = None) -> int:
    """Run the service until interrupted (the ``qmatch serve`` body).

    The listening front-end is the asyncio server in
    :mod:`repro.service.aserver`; this wrapper builds the service
    (store, searcher, execution backend) around it.  Lifecycle output
    is structured: one JSON event record per line on stderr
    (``serve.start``, ``serve.stale_index``, ``serve.drain``,
    ``serve.stop``), all stamped with the same run ID the job/batch
    events carry.
    """
    from repro.service.aserver import run_async_server

    log = log if log is not None else EventLogger()
    store = ResultStore(cache_dir) if cache_dir is not None else None
    searcher = None
    if corpus_dir is not None:
        searcher = build_searcher(
            corpus_dir, cache_dir=cache_dir, scorer=scorer, log=log,
            segmented=segmented, shards=shards,
        )
        if searcher.index.stale_for(searcher.corpus):
            log.event(
                "serve.stale_index",
                corpus=str(corpus_dir),
                message=(
                    "corpus index is stale (corpus content changed since "
                    "the last build); run qmatch index build to refresh"
                ),
            )
    service = MatchService(
        workers=workers, store=store, timeout=timeout, retries=retries,
        mode=mode, searcher=searcher, corpus_dir=corpus_dir,
        cache_dir=cache_dir, scorer=scorer, segmented=segmented,
        shards=shards,
        max_pending=max_pending,
        max_body_bytes=max_body_bytes, max_jobs=max_jobs,
        trace_sample=trace_sample, trace_seed=trace_seed,
        trace_export=trace_export, slos=slos, log=log,
    )
    return run_async_server(
        service, host=host, port=port, verbose=verbose,
        drain_timeout=drain_timeout, log=log,
        start_info={
            "workers": workers,
            "mode": service.mode,
            "cache": str(cache_dir) if cache_dir is not None else None,
            "corpus": str(corpus_dir) if corpus_dir is not None else None,
            "corpus_schemas": (
                len(searcher.corpus) if searcher is not None else None
            ),
            "trace_sample": float(trace_sample) or None,
        },
    )
