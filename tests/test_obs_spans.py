"""Span tracer unit tests (repro.obs.spans)."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.spans import (
    MAX_ATTRIBUTES,
    MAX_ATTRIBUTE_CHARS,
    NULL_SPAN_TRACER,
    HeadSampler,
    RequestTracing,
    SpanFileExporter,
    SpanStore,
    SpanTracer,
    current_request_id,
    current_tracer,
    load_span_file,
    otlp_span_line,
    render_span_report,
    render_waterfall,
    span_report,
    use_request_id,
    use_tracer,
)


class TestSpanTracer:
    def test_ids_are_sequential_hex(self):
        tracer = SpanTracer("t1")
        first = tracer.start("a")
        second = tracer.start("b")
        assert first["span_id"] == "0001"
        assert second["span_id"] == "0002"

    def test_implicit_nesting_via_stack(self):
        tracer = SpanTracer("t1")
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        assert inner["parent_id"] == outer["span_id"]
        tracer.finish(inner)
        sibling = tracer.start("sibling")
        assert sibling["parent_id"] == outer["span_id"]
        tracer.finish(sibling)
        tracer.finish(outer)
        assert outer["parent_id"] == ""
        assert outer["duration"] >= inner["duration"]

    def test_finish_out_of_order_removes_from_stack(self):
        tracer = SpanTracer("t1")
        outer = tracer.start("outer")
        inner = tracer.start("inner")
        tracer.finish(outer)  # not the stack top
        assert tracer.current_id() == inner["span_id"]
        tracer.finish(inner)
        assert tracer.current_id() == ""

    def test_span_context_manager_marks_errors(self):
        tracer = SpanTracer("t1")
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        (span,) = tracer.export_spans()
        assert span["status"] == "ERROR"
        assert span["attributes"]["error.type"] == "ValueError"

    def test_record_backdates_completed_span(self):
        tracer = SpanTracer("t1")
        parent = tracer.start("parent")
        span = tracer.record("waited", 0.5, {"idle": 3})
        assert span["duration"] == 0.5
        assert span["start"] < 0  # end is now, start is 0.5s ago
        assert span["parent_id"] == parent["span_id"]
        # record() never joins the stack
        assert tracer.current_id() == parent["span_id"]

    def test_child_is_detached_with_explicit_parent(self):
        tracer = SpanTracer("t1")
        tracer.start("root")
        child = tracer.child("shard", parent_id="0001")
        assert child["parent_id"] == "0001"
        assert tracer.current_id() == "0001"  # stack untouched

    def test_annotate_merges_into_open_span(self):
        tracer = SpanTracer("t1")
        span = tracer.start("work", {"a": 1})
        tracer.annotate({"b": 2})
        tracer.finish(span)
        assert span["attributes"] == {"a": 1, "b": 2}
        tracer.annotate({"dropped": True})  # no open span: silent

    def test_attribute_bounds(self):
        tracer = SpanTracer("t1")
        span = tracer.start(
            "big", {f"k{i}": "x" * 1000 for i in range(100)}
        )
        tracer.finish(span)
        assert len(span["attributes"]) == MAX_ATTRIBUTES
        assert all(
            len(value) <= MAX_ATTRIBUTE_CHARS
            for value in span["attributes"].values()
        )

    def test_export_closes_unfinished_spans_as_unset(self):
        tracer = SpanTracer("t1")
        tracer.start("open")
        (span,) = tracer.export_spans()
        assert span["status"] == "UNSET"
        assert span["duration"] is not None

    def test_thread_safety_of_detached_children(self):
        tracer = SpanTracer("t1")
        root = tracer.start("root")
        errors = []

        def worker(index):
            try:
                span = tracer.child(
                    "shard", parent_id=root["span_id"],
                    attributes={"shard": index},
                )
                tracer.finish(span)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tracer.finish(root)
        assert not errors
        spans = tracer.export_spans()
        assert len(spans) == 17
        assert len({span["span_id"] for span in spans}) == 17


class TestPropagation:
    def test_worker_ids_are_prefixed_and_collision_free(self):
        parent = SpanTracer("t1")
        anchor = parent.start("pool.execute")
        context = parent.propagation_context(anchor)
        worker = SpanTracer.from_context(context)
        span = worker.start("worker.search")
        worker.finish(span)
        assert span["span_id"] == f"{anchor['span_id']}.0001"
        assert span["parent_id"] == anchor["span_id"]
        parent.adopt(worker.export_spans(), anchor=anchor)
        parent.finish(anchor)
        ids = [s["span_id"] for s in parent.export_spans()]
        assert len(ids) == len(set(ids))

    def test_adopt_rebases_onto_anchor_timeline(self):
        parent = SpanTracer("t1")
        anchor = parent.start("pool.execute")
        worker_spans = [{
            "span_id": "0001.0001", "parent_id": "0001",
            "name": "worker.job", "start": 0.01, "duration": 0.2,
            "status": "OK", "attributes": {},
        }]
        parent.adopt(worker_spans, anchor=anchor)
        parent.finish(anchor)
        adopted = [
            s for s in parent.export_spans()
            if s["name"] == "worker.job"
        ][0]
        assert adopted["start"] == pytest.approx(anchor["start"] + 0.01)
        # the original dict was not mutated
        assert worker_spans[0]["start"] == 0.01

    def test_context_is_picklable_plain_data(self):
        import pickle

        tracer = SpanTracer("t1")
        tracer.start("root")
        context = tracer.propagation_context()
        assert pickle.loads(pickle.dumps(context)) == context


class TestNullTracer:
    def test_surface_is_noop(self):
        tracer = NULL_SPAN_TRACER
        assert not tracer.enabled
        assert tracer.start("x") is None
        assert tracer.child("x") is None
        with tracer.span("x") as span:
            assert span is None
        tracer.finish(None)
        tracer.annotate({"a": 1})
        assert tracer.record("x", 1.0) is None
        assert tracer.current_id() == ""
        assert tracer.export_spans() == []

    def test_contextvar_default_is_null(self):
        assert current_tracer() is NULL_SPAN_TRACER
        real = SpanTracer("t1")
        with use_tracer(real):
            assert current_tracer() is real
        assert current_tracer() is NULL_SPAN_TRACER

    def test_request_id_contextvar(self):
        assert current_request_id() == ""
        with use_request_id("req-1"):
            assert current_request_id() == "req-1"
        assert current_request_id() == ""


class TestHeadSampler:
    def test_deterministic_per_seed_and_ordinal(self):
        first = [HeadSampler(0.5, seed=7).decision() for _ in range(20)]
        second = [HeadSampler(0.5, seed=7).decision() for _ in range(20)]
        assert first == second
        other = [HeadSampler(0.5, seed=8).decision() for _ in range(20)]
        assert [t for _, t in first] != [t for _, t in other]

    def test_rate_edges(self):
        always = HeadSampler(1.0)
        never = HeadSampler(0.0)
        assert all(always.decision()[0] for _ in range(10))
        assert not any(never.decision()[0] for _ in range(10))

    def test_rate_roughly_respected(self):
        sampler = HeadSampler(0.25, seed=3)
        kept = sum(sampler.decision()[0] for _ in range(2000))
        assert 350 < kept < 650

    def test_trace_ids_unique_even_when_dropped(self):
        sampler = HeadSampler(0.0)
        ids = {sampler.decision()[1] for _ in range(100)}
        assert len(ids) == 100

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            HeadSampler(1.5)
        with pytest.raises(ValueError):
            HeadSampler(-0.1)


class TestStoreAndExport:
    def test_ring_buffer_evicts_oldest(self):
        store = SpanStore(capacity=2)
        store.add("a", [1])
        store.add("b", [2])
        store.add("c", [3])
        assert len(store) == 2
        assert store.get("a") is None
        assert store.get("c") == [3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            SpanStore(0)

    def test_otlp_line_is_canonical(self):
        span = {
            "span_id": "0001", "parent_id": "", "name": "router",
            "start": 0.001, "duration": 0.002, "status": "OK",
            "attributes": {"route": "/search"},
        }
        line = otlp_span_line("t1", span)
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        record = json.loads(line)
        assert record["traceId"] == "t1"
        assert record["spanId"] == "0001"
        assert record["startNano"] == 1_000_000
        assert record["durationNano"] == 2_000_000
        assert record["status"] == "STATUS_CODE_OK"
        assert record["kind"] == "SPAN_KIND_INTERNAL"

    def test_exporter_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = SpanFileExporter(path)
        tracer = SpanTracer("t1")
        with tracer.span("root", {"n": 1}):
            with tracer.span("child"):
                pass
        exporter.export("t1", tracer.export_spans())
        spans = load_span_file(path)
        assert [s["name"] for s in spans] == ["root", "child"]
        assert spans[1]["parent_id"] == spans[0]["span_id"]
        assert spans[0]["trace_id"] == "t1"
        assert spans[0]["status"] == "OK"

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="invalid span line"):
            load_span_file(path)

    def test_request_tracing_harness(self, tmp_path):
        path = tmp_path / "out.jsonl"
        tracing = RequestTracing(1.0, seed=1, export_path=path)
        tracer, trace_id = tracing.start_request()
        assert tracer.enabled
        assert tracer.trace_id == trace_id
        with tracer.span("root"):
            pass
        tracing.complete(tracer)
        assert tracing.store.get(trace_id)
        assert load_span_file(path)[0]["trace_id"] == trace_id

    def test_request_tracing_unsampled_is_null(self):
        tracing = RequestTracing(0.0)
        tracer, trace_id = tracing.start_request()
        assert tracer is NULL_SPAN_TRACER
        assert trace_id
        tracing.complete(tracer)  # no-op, no crash
        assert len(tracing.store) == 0


class TestReporting:
    def spans(self):
        return [
            {"trace_id": "t", "span_id": "0001", "parent_id": "",
             "name": "router", "start": 0.0, "duration": 0.1,
             "status": "OK", "attributes": {}},
            {"trace_id": "t", "span_id": "0002", "parent_id": "0001",
             "name": "retrieve", "start": 0.01, "duration": 0.06,
             "status": "OK", "attributes": {}},
            {"trace_id": "t", "span_id": "0003", "parent_id": "0001",
             "name": "retrieve", "start": 0.07, "duration": 0.02,
             "status": "OK", "attributes": {}},
        ]

    def test_span_report_rows(self):
        rows = span_report(self.spans())
        assert [row["stage"] for row in rows] == ["router", "retrieve"]
        retrieve = rows[1]
        assert retrieve["count"] == 2
        assert retrieve["total"] == pytest.approx(0.08)
        assert retrieve["p50"] == pytest.approx(0.04)
        assert retrieve["max"] == pytest.approx(0.06)

    def test_render_span_report_table(self):
        text = render_span_report(span_report(self.spans()))
        lines = text.splitlines()
        assert lines[0].split() == [
            "stage", "count", "total_ms", "p50_ms", "p95_ms",
            "p99_ms", "max_ms",
        ]
        assert lines[2].startswith("router")
        assert "100.000" in lines[2]

    def test_render_waterfall(self):
        text = render_waterfall(self.spans())
        lines = text.splitlines()
        assert lines[0].startswith("trace t")
        assert "router" in lines[1]
        # children are indented under the root
        assert lines[2].startswith("  retrieve")
        assert "▇" in lines[2]

    def test_render_waterfall_empty(self):
        assert render_waterfall([]) == "(no spans)"
