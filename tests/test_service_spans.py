"""End-to-end span tracing, request ids, SLO route and event plumbing.

One sampled request must yield a *single stitched span tree* no matter
which execution backend ran the middle of the pipeline -- inline on
the service thread, or a persistent pool worker on the far side of a
pipe.  These tests drive the real HTTP front-end and assert on the
exported JSONL, exactly what an operator would see.
"""

from __future__ import annotations

import io
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs.log import EventLogger
from repro.obs.spans import load_span_file
from repro.service.pool import WorkerPool
from repro.service.runner import JobQueue
from repro.service.server import MatchService
from repro.service.store import canonical_json
from repro.xsd.serializer import to_xsd

from tests.test_service_pool import (
    AsyncServerThread,
    CrashOnceWorker,
    hanging_worker,
    make_spec,
    small_pair,
)


def request(url, method="GET", body=None, headers=None):
    """(status, payload, headers) for one JSON request."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    all_headers = {"Content-Type": "application/json"}
    all_headers.update(headers or {})
    req = urllib.request.Request(
        url, data=data, method=method, headers=all_headers,
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read()), \
                response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def pair_body(**extra):
    source_xsd, target_xsd = small_pair()
    body = {"source_xsd": source_xsd, "target_xsd": target_xsd}
    body.update(extra)
    return body


def span_tree(spans):
    """{span_id: span} plus a child map, asserting one single root."""
    by_id = {span["span_id"]: span for span in spans}
    roots = [
        span for span in spans
        if span["parent_id"] not in by_id
    ]
    assert len(roots) == 1, (
        f"expected one stitched root, got {len(roots)}: "
        f"{[r['name'] for r in roots]}"
    )
    return by_id, roots[0]


def names(spans):
    return [span["name"] for span in spans]


@pytest.fixture()
def sharded_searcher(tmp_path):
    from repro.corpus import (
        SchemaCorpus,
        SegmentedCorpusIndex,
        ShardedCorpusSearcher,
    )
    from repro.datasets import registry

    corpus = SchemaCorpus(tmp_path / "corpus")
    for name in registry.schema_names()[:6]:
        corpus.add(registry.load_schema(name))
    index = SegmentedCorpusIndex(
        corpus.root / "segments", auto_compact=False,
    )
    entries = corpus.entries()
    for start in (0, 2, 4):
        index.add_batch(
            (entry.hash, corpus.load(entry.hash))
            for entry in entries[start:start + 2]
        )
    index.corpus_fingerprint = corpus.fingerprint()
    return ShardedCorpusSearcher(corpus, index, shards=3)


def query_body(limit=3):
    from repro.datasets import registry

    name = registry.schema_names()[0]
    return {"query_xsd": to_xsd(registry.load_schema(name)),
            "limit": limit}


# ----------------------------------------------------------------------
# The stitched span tree
# ----------------------------------------------------------------------

class TestStitchedSpanTree:
    def test_inline_sharded_search_tree(self, tmp_path, sharded_searcher):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", searcher=sharded_searcher,
            trace_sample=1.0, trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, payload, _ = request(
                f"{url}/search", "POST", query_body(),
            )
            assert status == 200
        spans = load_span_file(export)
        assert len({span["trace_id"] for span in spans}) == 1
        by_id, root = span_tree(spans)
        assert root["name"] == "http.request"
        assert root["attributes"]["transport"] == "asyncio"
        spanned = names(spans)
        for stage in ("router", "admission", "corpus.retrieve",
                      "corpus.rerank", "job.execute", "response.write"):
            assert stage in spanned, f"missing {stage} in {spanned}"
        shards = [s for s in spans if s["name"] == "retrieve.shard"]
        assert len(shards) >= 2
        retrieve = next(
            s for s in spans if s["name"] == "corpus.retrieve"
        )
        for shard in shards:
            # per-shard scan telemetry, parented under the retrieve
            assert shard["parent_id"] == retrieve["span_id"]
            assert shard["attributes"]["docs_scored"] >= 0
            assert shard["attributes"]["segments"] >= 1
            assert "shard" in shard["attributes"]
        # every span sits within the root's walltime window
        for span in spans:
            assert span["start"] >= root["start"] - 1e-6
            assert span["duration"] >= 0

    def test_cross_process_match_tree(self, tmp_path):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="pool", trace_sample=1.0, trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, payload, _ = request(
                f"{url}/match", "POST", pair_body(),
            )
            assert status == 200
            assert payload["state"] == "done"
        spans = load_span_file(export)
        by_id, root = span_tree(spans)
        assert root["name"] == "http.request"
        spanned = names(spans)
        assert "job.execute" in spanned
        assert "job.attempt" in spanned
        assert "worker.job" in spanned
        assert "pool.checkout" in spanned
        # the worker-side span is stitched: prefixed id, valid parent
        worker = next(s for s in spans if s["name"] == "worker.job")
        assert "." in worker["span_id"]
        assert by_id[worker["parent_id"]]["name"] == "pool.execute"
        assert worker["attributes"]["pid"]

    def test_cross_process_search_tree(self, tmp_path, sharded_searcher):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="pool", corpus_dir=sharded_searcher.corpus.root,
            segmented=True, shards=3, trace_sample=1.0, trace_export=export,
        )
        assert service.runner.has_corpus
        with AsyncServerThread(service) as running:
            status, payload, _ = request(
                f"{running.url}/search", "POST", query_body(),
            )
            assert status == 200
            assert payload["hits"]
        by_id, root = span_tree(load_span_file(export))
        assert root["name"] == "http.request"
        worker = next(
            s for s in by_id.values() if s["name"] == "worker.search"
        )
        anchor = worker["parent_id"]
        assert by_id[anchor]["name"] == "pool.execute"
        # the search ran in the worker: its stages carry the anchor prefix
        for stage in ("corpus.retrieve", "retrieve.shard", "corpus.rerank"):
            span = next(s for s in by_id.values() if s["name"] == stage)
            assert span["span_id"].startswith(anchor + ".")

    def test_async_transport_tree(self, tmp_path):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=1.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            status, payload, _ = request(
                f"{running.url}/match", "POST", pair_body(),
            )
            assert status == 200
        service.shutdown()
        spans = load_span_file(export)
        by_id, root = span_tree(spans)
        assert root["name"] == "http.request"
        assert root["attributes"]["transport"] == "asyncio"
        spanned = names(spans)
        assert "request.read" in spanned
        assert "router" in spanned
        assert "response.write" in spanned

    def test_constraint_evaluation_span(self, tmp_path):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=1.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, payload, _ = request(
                f"{url}/match", "POST", pair_body(constraints={
                    "tree-qom": {"op": ">=", "value": 0.0},
                }),
            )
            assert status == 200
        spans = load_span_file(export)
        constraint = next(
            s for s in spans if s["name"] == "constraints.evaluate"
        )
        assert constraint["attributes"]["passed"] in (True, False)
        # the evaluator annotated its caller's span with predicate counts
        assert constraint["attributes"]["predicates_evaluated"] >= 1

    def test_unsampled_requests_export_nothing(self, tmp_path):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=0.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, _, _ = request(f"{url}/match", "POST", pair_body())
            assert status == 200
        assert not export.exists()


# ----------------------------------------------------------------------
# Tracing must never change the answer
# ----------------------------------------------------------------------

class TestPayloadByteIdentity:
    @pytest.mark.parametrize("mode", ["inline", "pool"])
    def test_match_result_identical_with_and_without_sampling(
            self, tmp_path, mode):
        results = {}
        for rate in (0.0, 1.0):
            export = tmp_path / f"spans-{rate}.jsonl"
            service = MatchService(
                workers=1, mode=mode, trace_sample=rate,
                trace_export=export,
            )
            with AsyncServerThread(service) as running:
                url = running.url
                status, payload, _ = request(
                    f"{url}/match", "POST", pair_body(),
                )
                assert status == 200
                results[rate] = payload["result"]
        assert canonical_json(results[0.0]) == canonical_json(results[1.0])

    def test_search_results_identical_with_and_without_sampling(
            self, tmp_path, sharded_searcher):
        results = {}
        for rate in (0.0, 1.0):
            service = MatchService(
                workers=1, mode="inline", searcher=sharded_searcher,
                trace_sample=rate,
                trace_export=tmp_path / f"spans-{rate}.jsonl",
            )
            with AsyncServerThread(service) as running:
                url = running.url
                status, payload, _ = request(
                    f"{url}/search", "POST", query_body(),
                )
                assert status == 200
                # "stats" carries wall-clock timings; everything else
                # must be byte-identical regardless of sampling
                results[rate] = {
                    key: value for key, value in payload.items()
                    if key != "stats"
                }
        assert canonical_json(results[0.0]) == canonical_json(results[1.0])


# ----------------------------------------------------------------------
# X-Request-Id on every response
# ----------------------------------------------------------------------

class TestRequestId:
    def test_request_id_on_async_transport(self):
        service = MatchService(workers=1, mode="inline")
        with AsyncServerThread(service) as running:
            _, _, headers = request(
                f"{running.url}/healthz",
                headers={"X-Request-Id": "async-xyz"},
            )
            assert headers.get("X-Request-Id") == "async-xyz"
            _, _, headers = request(f"{running.url}/healthz")
            assert headers.get("X-Request-Id")
            # error responses carry the id too
            status, _, headers = request(f"{running.url}/nope")
            assert status == 404
            assert headers.get("X-Request-Id")

    def test_sampled_request_id_matches_trace_id_prefix(self, tmp_path):
        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=1.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            _, _, headers = request(f"{url}/healthz")
            request_id = headers.get("X-Request-Id")
        spans = load_span_file(export)
        assert spans[0]["trace_id"].startswith(request_id)


# ----------------------------------------------------------------------
# /slo route and /metrics headers
# ----------------------------------------------------------------------

class TestSloAndMetricsRoutes:
    def test_metrics_content_type_is_prometheus_0_0_4(self):
        service = MatchService(workers=1, mode="inline")
        with AsyncServerThread(service) as running:
            url = running.url
            req = urllib.request.Request(f"{url}/metrics")
            with urllib.request.urlopen(req, timeout=10) as response:
                assert response.headers.get("Content-Type") == \
                    "text/plain; version=0.0.4; charset=utf-8"
                body = response.read().decode("utf-8")
            assert "qmatch_slo_attainment" in body
            assert "qmatch_slo_error_budget_remaining" in body

    def test_slo_route_reports_objectives(self):
        service = MatchService(workers=1, mode="inline")
        with AsyncServerThread(service) as running:
            url = running.url
            request(f"{url}/healthz")
            status, payload, _ = request(f"{url}/slo")
            assert status == 200
            assert payload["window"] == "since-start"
            by_name = {o["name"]: o for o in payload["objectives"]}
            assert by_name["availability"]["met"] is True
            assert by_name["availability"]["attainment"] == 1.0
            assert by_name["latency-fast"]["effective_threshold"] == 0.25

    def test_slo_route_label_normalized(self):
        from repro.service.http_api import route_label

        assert route_label(["slo"]) == "/slo"
        assert route_label(["slo", "extra"]) == "(unknown)"

    def test_slo_route_in_metrics_labels(self):
        service = MatchService(workers=1, mode="inline")
        with AsyncServerThread(service) as running:
            url = running.url
            request(f"{url}/slo")
            status, _, _ = request(f"{url}/slo")
            assert status == 200
            req = urllib.request.Request(f"{url}/metrics")
            with urllib.request.urlopen(req, timeout=10) as response:
                body = response.read().decode("utf-8")
            assert 'route="/slo"' in body


# ----------------------------------------------------------------------
# Structured events: pool crash/timeout, segment compaction
# ----------------------------------------------------------------------

def event_names(stream):
    return [
        json.loads(line)["event"]
        for line in stream.getvalue().splitlines() if line
    ]


class TestStructuredEvents:
    def test_pool_worker_crash_event(self, tmp_path):
        stream = io.StringIO()
        log = EventLogger(stream=stream, run_id="r1")
        worker = CrashOnceWorker(tmp_path / "crashed-once")
        with WorkerPool(workers=1, retries=0,
                        worker=worker, log=log) as pool:
            queue = JobQueue()
            record = queue.submit(make_spec())
            pool.run_record(record, queue)
        emitted = event_names(stream)
        assert "pool.worker_crash" in emitted
        assert "pool.respawn" in emitted
        crash = next(
            json.loads(line) for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "pool.worker_crash"
        )
        assert crash["phase"] == "recv"
        assert crash["pid"]

    def test_pool_worker_timeout_event(self):
        stream = io.StringIO()
        log = EventLogger(stream=stream, run_id="r1")
        with WorkerPool(workers=1, retries=0, timeout=0.3,
                        worker=hanging_worker,
                        log=log) as pool:
            queue = JobQueue()
            record = queue.submit(make_spec())
            pool.run_record(record, queue)
        emitted = event_names(stream)
        assert "pool.worker_timeout" in emitted
        assert "pool.respawn" in emitted

    def test_segments_compact_event(self, tmp_path):
        from repro.corpus import SchemaCorpus, SegmentedCorpusIndex
        from repro.datasets import registry

        stream = io.StringIO()
        log = EventLogger(stream=stream, run_id="r1")
        corpus = SchemaCorpus(tmp_path / "corpus")
        for name in registry.schema_names()[:4]:
            corpus.add(registry.load_schema(name))
        index = SegmentedCorpusIndex(
            tmp_path / "segments", auto_compact=False, log=log,
        )
        for entry in corpus.entries():
            index.add_batch([(entry.hash, corpus.load(entry.hash))])
        assert index.segment_count > 1
        index.compact(full=True)
        assert index.segment_count == 1
        compacts = [
            json.loads(line)
            for line in stream.getvalue().splitlines()
            if json.loads(line)["event"] == "segments.compact"
        ]
        assert len(compacts) == 1
        assert compacts[0]["full"] is True
        assert compacts[0]["merged"] >= 2
        assert compacts[0]["segments"] == 1


# ----------------------------------------------------------------------
# Metrics merge correctness under pool mode with concurrent scrapes
# ----------------------------------------------------------------------

class TestConcurrentScrapes:
    def test_respawn_counter_not_double_counted(self, tmp_path):
        service = MatchService(
            workers=1, mode="pool", retries=1,
            worker=CrashOnceWorker(tmp_path / "crashed-once"),
        )
        with AsyncServerThread(service) as running:
            url = running.url
            status, payload, _ = request(
                f"{url}/match", "POST", pair_body(),
            )
            assert status == 200  # crash, respawn, retry succeeded
            bodies = [None] * 8
            errors = []

            def scrape(index):
                try:
                    req = urllib.request.Request(f"{url}/metrics")
                    with urllib.request.urlopen(req, timeout=10) as resp:
                        bodies[index] = resp.read().decode("utf-8")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=scrape, args=(i,))
                for i in range(len(bodies))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(15)
            assert not errors
            for body in bodies:
                assert body is not None
                line = next(
                    ln for ln in body.splitlines()
                    if ln.startswith("qmatch_service_pool_respawns_total")
                )
                # one crash -> exactly one respawn in *every* concurrent
                # scrape; a snapshot that re-merged worker state would
                # inflate this
                assert line.split()[-1] == "1"
                counts = [
                    ln for ln in body.splitlines()
                    if ln.startswith("qmatch_http_request_seconds_count")
                ]
                assert counts, "histogram family missing from scrape"
                for count_line in counts:
                    value = float(count_line.split()[-1])
                    assert value == int(value) >= 1


# ----------------------------------------------------------------------
# qmatch obs report reproduces the table from the export
# ----------------------------------------------------------------------

class TestObsCli:
    def test_report_reproduces_per_stage_table(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs.spans import render_span_report, span_report

        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=1.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            for _ in range(3):
                status, _, _ = request(f"{url}/match", "POST", pair_body())
                assert status == 200
        assert main(["obs", "report", str(export)]) == 0
        out = capsys.readouterr().out
        expected = render_span_report(span_report(load_span_file(export)))
        assert out.strip() == expected.strip()
        lines = out.splitlines()
        assert lines[0].split()[0] == "stage"
        stages = [line.split()[0] for line in lines[2:]]
        assert "router" in stages
        assert "http.request" in stages
        router_row = next(
            line for line in lines if line.startswith("router ")
        )
        assert router_row.split()[1] == "3"

    def test_waterfall_renders_last_trace(self, tmp_path, capsys):
        from repro.cli import main

        export = tmp_path / "spans.jsonl"
        service = MatchService(
            workers=1, mode="inline", trace_sample=1.0,
            trace_export=export,
        )
        with AsyncServerThread(service) as running:
            url = running.url
            request(f"{url}/healthz")
        assert main(["obs", "waterfall", str(export)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "http.request" in out
        assert "▇" in out

    def test_tail_prints_last_lines(self, tmp_path, capsys):
        from repro.cli import main

        export = tmp_path / "spans.jsonl"
        export.write_text(
            "\n".join(
                json.dumps({"traceId": f"t{i}", "spanId": "0001",
                            "name": "router"})
                for i in range(30)
            ) + "\n"
        )
        assert main(["obs", "tail", str(export), "--limit", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 5
        assert json.loads(out[-1])["traceId"] == "t29"

    def test_missing_file_is_cli_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err
