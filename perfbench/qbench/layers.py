"""The traced run: every layer's public calls, timed from outside.

``--trace 1`` runs this instead of the end-to-end loop.  On the
workload's own inputs it

1. measures the workload's end-to-end path with service tracing off
   and on (``--trace-sample 1.0``, spans exported to a file), the two
   alternated, and reports the difference as ``obs.trace_overhead_pct``;
2. walks a *ladder* of probe pairs through each layer's public call,
   every call wrapped in a benchmark-side span (``xsd.parse``,
   ``engine.context_build``, ``core.pair_loop``, ...), including the
   same request in-process inline, in-process through a worker pool
   and over the socket to the traced service;
3. probes the corpus layer (build, open, retrieve, rerank);
4. turns both span sets -- the benchmark's and the service's export --
   into self times (a span's duration minus what its children cover)
   and aggregates them with :func:`repro.obs.spans.span_report`.

No span is added inside the program; later changes that add spans in
``src/`` show up in the service-side export.
"""

from __future__ import annotations

import asyncio
import json
import time

from qbench import checks, inputs
from qbench.httpclient import Connection, closed_loop
from qbench.service import ServiceProcess, health
from qbench.stats import median
from qbench.workloads import (
    CONNECTIONS,
    SEARCH_K,
    Outcome,
    RunContext,
    build_corpus,
    search_inputs,
    served_inputs,
    validate_payload,
)

#: Divergent duplicate-label pairs run through ``execute_job``.
DIVERGENT_PROBES = 16

#: Probe pairs and end-to-end requests per workload.
SERVED_PROBES = 8
SERVED_PASS = 24
LARGE_PASS = 2
SEARCH_PROBES = 3
SEARCH_PASS = 4

#: Alternating tracing-off/on rounds of the end-to-end pass.
E2E_ROUNDS = 2


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_time_spans(spans: list) -> list:
    """Copies of ``spans`` whose duration is their self time."""
    children: dict = {}
    for span in spans:
        children.setdefault(
            (span.get("trace_id", ""), span.get("parent_id", "")), [],
        ).append(span)
    out = []
    for span in spans:
        start = span["start"]
        end = start + (span["duration"] or 0.0)
        inner = [
            (max(start, c["start"]), min(end, c["start"] + c["duration"]))
            for c in children.get(
                (span.get("trace_id", ""), span["span_id"]), ()
            )
        ]
        copy = dict(span)
        copy["duration"] = max(0.0, (end - start) - _covered(
            [(lo, hi) for lo, hi in inner if hi > lo]
        ))
        out.append(copy)
    return out


def self_report(spans: list) -> dict:
    """``{span name: span_report row}`` over self times."""
    from repro.obs.spans import span_report

    return {row["stage"]: row for row in span_report(self_time_spans(spans))}


def _ms(rows: dict, name: str, field: str = "p50") -> float:
    row = rows.get(name)
    return row[field] * 1e3 if row is not None else 0.0


# ----------------------------------------------------------------------
# The ladder
# ----------------------------------------------------------------------

class Ladder:
    """Walks probe pairs through every layer under one span tracer."""

    def __init__(self, tracer, inline, pool, server: ServiceProcess):
        self.tracer = tracer
        self.inline = inline
        self.pool = pool
        self.loop = asyncio.new_event_loop()
        self.conn = Connection(server.host, server.port)
        self.failures = []
        self.attempted = 0
        self.pairs = 0
        self.pairs_lost = 0
        self.pair_loop_seconds = 0.0
        self.caches = {"context.labels": [0, 0], "context.properties": [0, 0]}
        self.payload_bytes = []
        self.hops = []
        self.overheads = []

    def close(self):
        self.loop.run_until_complete(self.conn.close())
        self.loop.close()

    def probe(self, pair) -> None:
        from repro.constraints.evidence import attach_result_axes
        from repro.engine.registry import DEFAULT_REGISTRY
        from repro.matching.io import result_to_payload
        from repro.matching.result import MatchResult
        from repro.matching.selection import select_correspondences
        from repro.service.http_api import handle_api_request
        from repro.service.runner import execute_job
        from repro.xsd.parser import parse_xsd
        from repro.xsd.serializer import to_xsd

        body = pair.body()
        with self.tracer.span("ladder.request"):
            with self.tracer.span("service.validate"):
                spec = self.inline.spec_from_request(json.loads(body))
            with self.tracer.span("runner.job"):
                expected = checks.canonical(execute_job(spec)["result"])
            with self.tracer.span("ladder.job"):
                with self.tracer.span("xsd.parse"):
                    source = parse_xsd(spec.source_xsd,
                                       name=spec.source_name or None)
                with self.tracer.span("xsd.parse"):
                    target = parse_xsd(spec.target_xsd,
                                       name=spec.target_name or None)
                with self.tracer.span("engine.matcher_create"):
                    matcher = DEFAULT_REGISTRY.create(
                        spec.algorithm, **spec.matcher_kwargs()
                    )
                with self.tracer.span("engine.context_build"):
                    context = matcher.make_context(source, target)
                began = time.perf_counter()
                with self.tracer.span("core.pair_loop"):
                    matrix = matcher.match_context(context)
                self.pair_loop_seconds += time.perf_counter() - began
                strategy = spec.strategy or matcher.default_strategy
                with self.tracer.span("matching.select"):
                    correspondences = select_correspondences(
                        matrix, strategy=strategy, threshold=spec.threshold,
                        categories=matcher.categories(matrix),
                    )
                result = MatchResult(
                    algorithm=matcher.name, matrix=matrix,
                    correspondences=correspondences,
                    tree_qom=matrix.get(source.root, target.root),
                    strategy=strategy, stats=context.stats,
                    config_fingerprint=matcher.fingerprint(
                        spec.threshold, strategy,
                    ),
                )
                with self.tracer.span("matching.payload"):
                    payload = result_to_payload(result)
                    attach_result_axes(payload, result, matcher, source,
                                       target, context=context)
                payload["source_hash"] = spec.source_hash
                payload["target_hash"] = spec.target_hash
            with self.tracer.span("xsd.serialize"):
                to_xsd(source)
            with self.tracer.span("xsd.serialize"):
                to_xsd(target)
            started = time.perf_counter()
            with self.tracer.span("service.inline_request"):
                inline = handle_api_request(self.inline, "POST", "/match",
                                            body)
            inline_s = time.perf_counter() - started
            started = time.perf_counter()
            with self.tracer.span("service.pool_request"):
                pooled = handle_api_request(self.pool, "POST", "/match", body)
            pool_s = time.perf_counter() - started
            started = time.perf_counter()
            with self.tracer.span("aserver.round_trip"):
                status, data = self.loop.run_until_complete(
                    self.conn.request("POST", "/match", body)
                )
            socket_s = time.perf_counter() - started
        self.hops.append(pool_s - inline_s)
        self.overheads.append(socket_s - pool_s)
        self.pairs += context.pair_count
        self.pairs_lost += context.pair_count - len(matrix)
        for name, counts in self.caches.items():
            cache = context.stats.caches.get(name)
            if cache is not None:
                counts[0] += cache.hits
                counts[1] += cache.lookups
        text = checks.canonical(payload)
        self.payload_bytes.append(len(text.encode("utf-8")))
        answers = (
            ("ladder replica", 200, json.dumps({
                "state": "done", "result": payload,
            }).encode("utf-8")),
            ("inline handle_api_request", inline.status, inline.body),
            ("pool handle_api_request", pooled.status, pooled.body),
            ("socket /match", status, data),
        )
        for where, code, blob in answers:
            self.attempted += 1
            _, reason = checks.check_match(code, blob, expected)
            if reason is not None:
                self.failures.append(f"{where} {pair.name}: {reason}")


def divergent_label_errors(seed: int) -> int:
    """Divergent duplicate-label pairs on which ``execute_job`` raises."""
    from repro.service.runner import execute_job
    from repro.service.server import MatchService

    service = MatchService(mode="inline")
    errors = 0
    for index in range(DIVERGENT_PROBES):
        pair = inputs.served_pair(seed, 100_000 + index, True, diverge=True)
        spec = service.spec_from_request(json.loads(pair.body()))
        try:
            execute_job(spec)
        except KeyError:
            errors += 1
    return errors


# ----------------------------------------------------------------------
# Corpus probe
# ----------------------------------------------------------------------

def corpus_probe(tracer, directory, schemas, queries, candidates) -> dict:
    """Build, open, retrieve and rerank on a corpus, under spans."""
    from repro.corpus.corpus import SchemaCorpus
    from repro.corpus.search import CorpusSearcher
    from repro.corpus.segments import SEGMENTS_DIR, SegmentedCorpusIndex
    from repro.xsd.parser import parse_xsd

    with tracer.span("corpus.write"):
        built = build_corpus(directory, schemas)
    trees = [parse_xsd(text) for text in queries]
    corpus = SchemaCorpus(directory)
    with tracer.span("corpus.open"):
        index = SegmentedCorpusIndex.open(directory / SEGMENTS_DIR)
        searcher = CorpusSearcher(corpus, index)
        searcher.retrieve(trees[0])
    candidate_counts = []
    rerank = []
    for tree in trees:
        with tracer.span("corpus.retrieve"):
            candidate_counts.append(len(searcher.retrieve(tree)))
        if candidates is not None:
            with tracer.span("corpus.search"):
                result = searcher.search(
                    tree, k=min(SEARCH_K, candidates), candidates=candidates,
                )
            rerank.append(_rerank_stats(result.as_dict()))
    return {"built": built, "candidates": candidate_counts,
            "rerank": rerank}


def _rerank_stats(payload: dict) -> tuple:
    stats = payload.get("stats") or {}
    stage = (stats.get("stages") or {}).get("search:rerank") or {}
    reranked = (stats.get("counters") or {}).get("search.reranked", 0)
    return stage.get("seconds", 0.0), reranked


# ----------------------------------------------------------------------
# End-to-end passes (tracing off, then on)
# ----------------------------------------------------------------------

def _served_pass(server, path, bodies) -> list:
    result = asyncio.run(closed_loop(
        server.host, server.port, path, bodies, 600.0, CONNECTIONS,
    ))
    return result["samples"]


def _library_pass(pair, tracer=None) -> tuple:
    """One ``repro.match`` of ``pair``: ``(payload, source, target, s)``."""
    import repro
    from repro.matching.io import result_to_payload
    from repro.obs.spans import use_tracer
    from repro.xsd.parser import parse_xsd

    source = parse_xsd(pair.source_xsd)
    target = parse_xsd(pair.target_xsd)
    began = time.perf_counter()
    if tracer is None:
        result = repro.match(source, target, algorithm="qmatch")
    else:
        with use_tracer(tracer), tracer.span("library.match"):
            result = repro.match(source, target, algorithm="qmatch")
    seconds = time.perf_counter() - began
    return result_to_payload(result), source, target, seconds


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------

def _probe_inputs(workload: str, ctx: RunContext, tracer) -> dict:
    """Probe pairs, end-to-end requests and serve flags of a workload."""
    from repro.xsd.parser import parse_xsd

    if workload == "match-served":
        pairs = served_inputs(ctx, SERVED_PASS)
        duplicates = [pair for pair in pairs if pair.duplicate][:2]
        return {
            "pairs": pairs,
            "probes": pairs[:SERVED_PROBES - len(duplicates)] + duplicates,
            "path": "/match",
            "bodies": [pair.body() for pair in pairs],
        }
    if workload == "match-large":
        pairs = [inputs.large_pair(ctx.seed, i) for i in range(LARGE_PASS)]
        return {"pairs": pairs, "probes": pairs[:1], "path": None}
    schemas, queries = search_inputs(ctx)
    queries = queries[:SEARCH_PASS]
    origins = {}
    for text in schemas:
        tree = parse_xsd(text)
        origins[tree.name] = (text, tree.size)
    probes = [
        inputs.Pair(
            name=f"{query.name}~{query.origin}", source_xsd=query.xsd,
            target_xsd=origins[query.origin][0], gold=(),
            alternates=(), source_nodes=query.nodes,
            target_nodes=origins[query.origin][1],
        )
        for query in queries[:SEARCH_PROBES]
    ]
    corpus_dir = ctx.workdir / "corpus"
    return {
        "pairs": probes,
        "probes": probes,
        "path": "/search",
        "bodies": [query.body(SEARCH_K) for query in queries],
        "serve_args": ["--corpus", str(corpus_dir), "--segmented"],
        "corpus": corpus_probe(
            tracer, corpus_dir, schemas, [q.xsd for q in queries], None,
        ),
        "corpus_dir": str(corpus_dir),
    }


def _check_passes(outcome: Outcome, plan: dict, samples: dict,
                  expected: list) -> list:
    """Gate every end-to-end answer; returns the /search rerank stats."""
    path = plan["path"]
    check = checks.check_match if path == "/match" else checks.check_search
    rerank = []
    for phase, got in samples.items():
        for sample in got:
            outcome.attempted += 1
            payload, reason = check(
                sample.status, sample.body, expected[sample.index],
            )
            if reason is not None:
                outcome.failures.append(
                    f"{path} tracing {phase} #{sample.index}: {reason}"
                )
            elif path == "/search":
                rerank.append(_rerank_stats(payload))
    return rerank


def run_traced(workload: str, ctx: RunContext) -> Outcome:
    from repro.obs.spans import SpanTracer, load_span_file
    from repro.service.server import MatchService

    outcome = Outcome()
    tracer = SpanTracer("perfbench")
    spans_path = ctx.workdir / "service-spans.jsonl"
    plan = _probe_inputs(workload, ctx, tracer)
    pairs, probes, path = plan["pairs"], plan["probes"], plan["path"]
    serve_args = ["--workers", str(CONNECTIONS), *plan.get("serve_args", ())]

    # 1. The end-to-end path with tracing off and on, alternated so that
    # drift in machine speed does not fall on one side only.
    latencies = {"off": [], "on": []}
    rerank = []
    traced = ServiceProcess(ctx.root, ctx.workdir, serve_args + [
        "--trace-sample", "1.0", "--trace-export", str(spans_path),
    ], "traced")
    if path is None:
        for pair in pairs:
            for phase, pass_tracer in (("off", None), ("on", tracer)):
                payload, source, target, seconds = _library_pass(
                    pair, pass_tracer,
                )
                latencies[phase].append(seconds)
                outcome.attempted += 1
                reason = validate_payload(payload, source, target)
                if reason:
                    outcome.failures.append(f"library {pair.name}: {reason}")
    else:
        if path == "/match":
            expected = list(ctx.helpers.map(
                checks.expected_match, plan["bodies"],
            ))
        else:
            expected = list(ctx.helpers.map(
                checks.expected_search,
                [plan["corpus_dir"]] * len(plan["bodies"]), plan["bodies"],
            ))
        untraced = ServiceProcess(ctx.root, ctx.workdir, serve_args,
                                  "untraced")
        untraced.start()
    traced.start()
    try:
        if path is not None:
            samples = {"off": [], "on": []}
            try:
                for _ in range(E2E_ROUNDS):
                    for phase, server in (("off", untraced), ("on", traced)):
                        samples[phase] += _served_pass(
                            server, path, plan["bodies"],
                        )
            finally:
                untraced.stop()
            for phase, got in samples.items():
                latencies[phase] = [sample.latency for sample in got]
            rerank = _check_passes(outcome, plan, samples, expected)

        # 2. The ladder over the probes, against the traced service.
        inline = MatchService(mode="inline")
        pool = MatchService(mode="pool", workers=CONNECTIONS)
        ladder = Ladder(tracer, inline, pool, traced)
        try:
            for pair in probes:
                ladder.probe(pair)
        finally:
            ladder.close()
            pool.shutdown()
            inline.shutdown()
        state = health(traced.metrics())
    finally:
        traced.stop()

    # 3. The corpus layer, on a corpus of probe targets where the
    # workload does not search.
    search = plan.get("corpus")
    if search is None:
        docs = [pair.target_xsd for pair in probes] + [
            pair.target_xsd for pair in pairs[len(probes):][:4]
        ]
        search = corpus_probe(
            tracer, ctx.workdir / "probe-corpus", docs,
            [pair.source_xsd for pair in probes[:2]],
            len(docs) if workload == "match-served" else 1,
        )
        rerank = search["rerank"]

    outcome.attempted += ladder.attempted
    outcome.failures += ladder.failures
    outcome.failed = len(outcome.failures)
    dup_errors = divergent_label_errors(ctx.seed)

    p50 = {phase: median(values) * 1e3 for phase, values in latencies.items()}
    rows = self_report(tracer.export_spans())
    service_rows = self_report(load_span_file(spans_path))
    rerank_s = [seconds for seconds, _ in rerank]
    reranked = [count for _, count in rerank]
    put = outcome.put
    put("aserver.overhead_ms", median(ladder.overheads) * 1e3, "ms")
    put("aserver.self_ms", _ms(service_rows, "http.request"), "ms")
    put("service.validate_ms", _ms(rows, "service.validate"), "ms")
    put("service.router_self_ms", _ms(service_rows, "router"), "ms")
    put("service.refused", state["refused"], "count")
    put("pool.hop_ms", median(ladder.hops) * 1e3, "ms")
    put("pool.execute_self_ms", _ms(service_rows, "pool.execute"), "ms")
    put("pool.queue_wait_p50_ms", _ms(service_rows, "pool.checkout"), "ms")
    put("pool.queue_wait_p95_ms",
        _ms(service_rows, "pool.checkout", "p95"), "ms")
    put("pool.respawns", state["respawns"], "count")
    put("runner.job_ms", _ms(rows, "runner.job"), "ms")
    put("runner.worker_job_ms", _ms(service_rows, "worker.job")
        or _ms(service_rows, "worker.search"), "ms")
    put("xsd.parse_ms", _ms(rows, "xsd.parse"), "ms")
    put("xsd.serialize_ms", _ms(rows, "xsd.serialize"), "ms")
    put("engine.matcher_create_ms", _ms(rows, "engine.matcher_create"), "ms")
    put("engine.context_build_ms", _ms(rows, "engine.context_build"), "ms")
    for cache, metric in (("context.labels", "label"),
                          ("context.properties", "property")):
        hits, lookups = ladder.caches[cache]
        put(f"engine.{metric}_hit_rate", hits / lookups if lookups else 0.0,
            "ratio")
        put(f"engine.{metric}_lookups", lookups, "count")
    put("core.pair_loop_ms", _ms(rows, "core.pair_loop"), "ms")
    put("core.us_per_pair", ladder.pair_loop_seconds / ladder.pairs * 1e6,
        "us")
    put("core.pairs", ladder.pairs, "count")
    put("core.pairs_lost", ladder.pairs_lost, "count")
    put("core.dup_label_errors", dup_errors, "count")
    put("matching.select_ms", _ms(rows, "matching.select"), "ms")
    put("matching.payload_ms", _ms(rows, "matching.payload"), "ms")
    put("matching.payload_bytes", median(ladder.payload_bytes), "bytes")
    put("ladder.job_self_ms", _ms(rows, "ladder.job"), "ms")
    put("corpus.retrieve_ms", _ms(rows, "corpus.retrieve"), "ms")
    put("corpus.candidates", median(search["candidates"]), "count")
    put("corpus.rerank_ms", median(rerank_s) * 1e3, "ms")
    put("corpus.rerank_ms_per_pair",
        sum(rerank_s) / max(1, sum(reranked)) * 1e3, "ms")
    put("corpus.reranked", median(reranked), "count")
    put("corpus.build_docs_per_s",
        search["built"]["docs"] / search["built"]["build_s"], "1/s")
    put("corpus.open_ms", _ms(rows, "corpus.open"), "ms")
    put("obs.trace_overhead_pct", (p50["on"] - p50["off"]) / p50["off"] * 100,
        "%")

    total = sum(row["total"] for row in rows.values())
    outcome.notes.append(
        f"end-to-end p50: tracing off {p50['off']:.3f} ms, "
        f"on {p50['on']:.3f} ms"
    )
    outcome.notes.append("benchmark-side self time by span "
                         "(share of all traced time):")
    for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["total"]):
        outcome.notes.append(
            f"  {name:<24} n={row['count']:<4} self_total_ms="
            f"{row['total'] * 1e3:10.3f} ({row['total'] / total:6.1%})"
        )
    outcome.notes.append("service-side self time by span:")
    for name, row in sorted(service_rows.items(),
                            key=lambda kv: -kv[1]["total"]):
        outcome.notes.append(
            f"  {name:<24} n={row['count']:<4} self_p50_ms="
            f"{row['p50'] * 1e3:10.3f}"
        )
    if state["respawns"] or state["refused"]:
        outcome.flags.append(f"service reported {state}")
    return outcome


