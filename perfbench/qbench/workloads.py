"""The three workloads: set-up, measured loop, correctness gate, metrics.

Each ``run_*`` function returns a :class:`Outcome`; ``run.py`` prints
it.  Set-up is repeated :data:`SETUP_REPEATS` times per run and its
median reported as ``setup_s``; only the last set-up serves the
measured loop.  search-corpus writes its corpus once per run and adds
that time to each of its service starts.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from qbench import checks, inputs
from qbench.httpclient import closed_loop, open_loop
from qbench.service import ServiceProcess, health, peak_rss_mb
from qbench.stats import latency_summary, median

#: Set-ups per run; the median is ``setup_s``.
SETUP_REPEATS = 3

#: Connections per client process (= the box's core count).
CONNECTIONS = 2

#: match-served: the open loop runs the whole ``--seconds`` at this rate
#: (about 40% of the service's capacity on a 2-CPU box, so queueing
#: amplifies the box's own speed drift less; 14 s give the 40 samples a
#: p75 needs).  The closed loop sends the bundled pairs and one
#: size-ladder block for capacity, half before the open loop and half
#: after it, so capacity is sampled at two moments of the run.
OPEN_RATE = 2.9
CLOSED_REQUESTS = len(inputs.SIZE_LADDER)
WARMUP_REQUESTS = 8

#: match-large: pairs generated (a run uses as many as fit; at ~4 s a
#: match, 12 cover a 40 s run).
LARGE_PAIRS = 12

#: search-corpus: queries generated (two more warm the workers).
SEARCH_QUERIES = 48
SEARCH_K = 10
WARMUP_QUERIES = 2

#: Worst Overall a correct 300-node match may score on these inputs.
LARGE_OVERALL_FLOOR = 0.5


@dataclass
class RunContext:
    root: Path
    workdir: Path
    seed: int
    seconds: float
    helpers: object = None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    #: name -> unit, for the metrics above.
    units: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def put(self, name: str, value: float, unit: str):
        self.metrics[name] = value
        self.units[name] = unit


def _failed_latency(samples, ok: set, wall: float) -> list:
    """Latencies with every failed request charged the whole phase."""
    return [
        sample.latency if sample.index in ok else max(wall, sample.latency)
        for sample in samples
    ]


def _serve_setup(ctx: RunContext, extra_args=()):
    """Start the service :data:`SETUP_REPEATS` times; keep the last one.

    Returns ``(service, seconds to ready per start)``.
    """
    times = []
    service = None
    for repeat in range(SETUP_REPEATS):
        if service is not None:
            service.stop()
        service = ServiceProcess(
            ctx.root, ctx.workdir,
            ["--workers", str(CONNECTIONS), *extra_args],
            name=f"serve{repeat}",
        )
        times.append(service.start())
    return service, times


def _phase_note(name: str, samples, ok: set, wall: float) -> str:
    sent = len(samples)
    good = sum(1 for sample in samples if sample.index in ok)
    return (f"phase {name}: sent={sent} succeeded={good} "
            f"failed={sent - good} wall_s={wall:.3f}")


def _service_health(outcome: Outcome, service: ServiceProcess):
    state = health(service.metrics())
    outcome.notes.append(
        f"service: respawns={state['respawns']} refused={state['refused']}"
    )
    if state["respawns"] or state["refused"]:
        outcome.flags.append(
            f"service reported respawns={state['respawns']} "
            f"refused={state['refused']}"
        )


# ----------------------------------------------------------------------
# match-served
# ----------------------------------------------------------------------

def served_inputs(ctx: RunContext, count: int) -> list:
    """Bundled pairs first, then ``count`` generated pairs."""
    duplicates = inputs.duplicate_indexes(ctx.seed, count)
    indexes = list(range(count))
    generated = list(ctx.helpers.map(
        inputs.served_pair, [ctx.seed] * count, indexes,
        [index in duplicates for index in indexes], chunksize=32,
    ))
    return inputs.bundled_pairs() + generated


def run_match_served(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    n_open = int(OPEN_RATE * ctx.seconds)
    block = len(inputs.SIZE_LADDER)
    # Both phases cover whole size-ladder blocks (at 14 s the open loop
    # sends exactly one), so every seed measures the same sizes in the
    # same order.  The small bundled pairs ride in the closed phase.
    closed_at = -(-n_open // block) * block
    count = closed_at + CLOSED_REQUESTS + WARMUP_REQUESTS
    everything = served_inputs(ctx, count)
    bundled, generated = everything[:-count], everything[-count:]
    warm = generated[closed_at + CLOSED_REQUESTS:]
    pairs = (generated[:n_open] + bundled
             + generated[closed_at:closed_at + CLOSED_REQUESTS])
    bodies = [pair.body() for pair in pairs]
    split = n_open + len(bundled) + CLOSED_REQUESTS // 2

    service, setup_times = _serve_setup(ctx)
    try:
        host, port = service.host, service.port
        asyncio.run(closed_loop(
            host, port, "/match", [pair.body() for pair in warm],
            60.0, CONNECTIONS,
        ))
        before = asyncio.run(closed_loop(
            host, port, "/match", bodies[n_open:split], 600.0, CONNECTIONS,
        ))
        opened = asyncio.run(open_loop(
            host, port, "/match", bodies[:n_open], OPEN_RATE, CONNECTIONS,
        ))
        after = asyncio.run(closed_loop(
            host, port, "/match", bodies[split:], 600.0, CONNECTIONS,
        ))
        for part, first in ((before, n_open), (after, split)):
            for sample in part["samples"]:
                sample.index += first
        closed = {"samples": before["samples"] + after["samples"],
                  "wall": before["wall"] + after["wall"]}
        _service_health(outcome, service)
        rss = service.peak_rss_mb()
    finally:
        service.stop()

    samples = opened["samples"] + closed["samples"]
    chunks = [
        [bodies[sample.index] for sample in samples[i:i + 32]]
        for i in range(0, len(samples), 32)
    ]
    expected = [
        text for chunk in ctx.helpers.map(checks.expected_matches, chunks)
        for text in chunk
    ]
    ok = set()
    qualities = []
    for sample, want in zip(samples, expected):
        pair = pairs[sample.index]
        payload, reason = checks.check_match(sample.status, sample.body, want)
        if reason is None:
            ok.add(sample.index)
            qualities.append(
                checks.match_quality(payload, pair.gold, pair.alternates)
            )
        else:
            qualities.append(checks.missed(pair.gold))
            outcome.failures.append(
                f"/match {pair.name}: {sample.error or reason}"
            )

    outcome.attempted = len(samples)
    outcome.failed = len(samples) - len(ok)
    latency = latency_summary(
        _failed_latency(opened["samples"], ok, opened["wall"])
    )
    closed_ok = [s for s in closed["samples"] if s.index in ok]
    quality = checks.pooled(qualities)
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("latency_p50_ms", latency["p50_ms"], "ms")
    outcome.put("latency_tail_ms", latency["tail_ms"], "ms")
    outcome.put("throughput_rps", len(closed_ok) / closed["wall"], "1/s")
    outcome.put(
        "pairs_per_s",
        sum(pairs[s.index].node_pairs for s in closed_ok) / closed["wall"],
        "1/s",
    )
    outcome.put("overall", quality.overall, "ratio")
    outcome.put("recall", quality.recall, "ratio")
    outcome.put("peak_rss_mb", rss, "MiB")
    outcome.put("success_share",
                (outcome.attempted - outcome.failed) / outcome.attempted,
                "ratio")
    lateness_ms = [value * 1e3 for value in opened["lateness"]]
    waits_ms = [sample.wait * 1e3 for sample in opened["samples"]]
    outcome.notes += [
        f"inputs: {len(pairs)} distinct pairs "
        f"({sum(p.duplicate for p in pairs)} with a repeated sibling label)",
        f"open loop: rate={OPEN_RATE:g}/s, latency timed from due time, "
        f"tail=p{latency['tail_q']} over {latency['count']} samples",
        f"generator lateness: p50={median(lateness_ms):.3f} ms "
        f"max={max(lateness_ms):.3f} ms",
        f"client queue (due until sent): p50={median(waits_ms):.3f} ms "
        f"max={max(waits_ms):.3f} ms",
        _phase_note("open", opened["samples"], ok, opened["wall"]),
        _phase_note("closed", closed["samples"], ok, closed["wall"]),
        f"setup repeats (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
    ]
    return outcome


# ----------------------------------------------------------------------
# match-large
# ----------------------------------------------------------------------

SETUP_PROBE = (
    "import repro\n"
    "from repro.linguistic.thesaurus import Thesaurus\n"
    "Thesaurus.default()\n"
    "repro.make_matcher('qmatch')\n"
)


def library_setup(root: Path) -> float:
    """A fresh interpreter's import + thesaurus + matcher creation."""
    began = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=str(root), check=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    return time.perf_counter() - began


def validate_payload(payload: dict, source, target) -> str:
    """Structural invariants of one match payload; '' when they hold."""
    source_paths = {node.path for node in source.root.iter_preorder()}
    target_paths = {node.path for node in target.root.iter_preorder()}
    seen_source, seen_target = set(), set()
    if not 0.0 <= payload["tree_qom"] <= 1.0:
        return f"tree_qom {payload['tree_qom']} outside [0, 1]"
    for c in payload["correspondences"]:
        if c["source"] not in source_paths or c["target"] not in target_paths:
            return f"correspondence {c['source']}~{c['target']} names no node"
        if c["source"] in seen_source or c["target"] in seen_target:
            return f"correspondence {c['source']}~{c['target']} not 1:1"
        if not 0.0 <= c["score"] <= 1.0:
            return f"score {c['score']} outside [0, 1]"
        seen_source.add(c["source"])
        seen_target.add(c["target"])
    return ""


def run_match_large(ctx: RunContext) -> Outcome:
    import repro
    from repro.matching.io import result_to_payload
    from repro.xsd.parser import parse_xsd

    outcome = Outcome()
    setup_times = [library_setup(ctx.root) for _ in range(SETUP_REPEATS)]
    pairs = list(ctx.helpers.map(
        inputs.large_pair, [ctx.seed] * LARGE_PAIRS, range(LARGE_PAIRS),
    ))
    trees = [
        (parse_xsd(pair.source_xsd), parse_xsd(pair.target_xsd))
        for pair in pairs
    ]
    bundled = inputs.bundled_pairs()[0]
    repro.match(parse_xsd(bundled.source_xsd), parse_xsd(bundled.target_xsd))

    latencies = []
    node_pairs = 0
    qualities = []
    began = time.perf_counter()
    for pair, (source, target) in zip(pairs, trees):
        if time.perf_counter() - began >= ctx.seconds:
            break
        started = time.perf_counter()
        result = repro.match(source, target, algorithm="qmatch")
        latencies.append(time.perf_counter() - started)
        payload = result_to_payload(result)
        outcome.attempted += 1
        quality = checks.match_quality(payload, pair.gold)
        reason = validate_payload(payload, source, target)
        if not reason and quality.overall < LARGE_OVERALL_FLOOR:
            reason = f"overall {quality.overall:.3f} below the floor"
        if reason:
            outcome.failed += 1
            outcome.failures.append(f"match {pair.name}: {reason}")
            qualities.append(checks.missed(pair.gold))
            continue
        node_pairs += pair.node_pairs
        qualities.append(quality)
    wall = time.perf_counter() - began
    if outcome.attempted == len(pairs):
        outcome.flags.append("ran out of generated pairs before the deadline")

    latency = latency_summary(latencies)
    quality = checks.pooled(qualities)
    good = outcome.attempted - outcome.failed
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("latency_p50_ms", latency["p50_ms"], "ms")
    outcome.put("latency_tail_ms", latency["tail_ms"], "ms")
    outcome.put("throughput_rps", good / wall, "1/s")
    outcome.put("pairs_per_s", node_pairs / sum(latencies), "1/s")
    outcome.put("overall", quality.overall, "ratio")
    outcome.put("recall", quality.recall, "ratio")
    outcome.put("peak_rss_mb", peak_rss_mb([os.getpid()]), "MiB")
    outcome.put("success_share", good / outcome.attempted, "ratio")
    outcome.notes += [
        f"closed loop, 1 client: {outcome.attempted} matches of "
        f"~{inputs.LARGE_NODES}-node pairs in {wall:.3f} s, "
        f"tail=p{latency['tail_q']} over {latency['count']} samples",
        f"phase closed: sent={outcome.attempted} succeeded={good} "
        f"failed={outcome.failed}",
        f"setup repeats (s): {', '.join(f'{t:.3f}' for t in setup_times)}",
    ]
    return outcome


# ----------------------------------------------------------------------
# search-corpus
# ----------------------------------------------------------------------

def build_corpus(directory: Path, schemas: list) -> dict:
    """The corpus write path: add every schema, build the segmented index."""
    from repro.corpus.corpus import SchemaCorpus
    from repro.corpus.segments import SegmentedCorpusIndex

    if directory.exists():
        shutil.rmtree(directory)
    began = time.perf_counter()
    corpus = SchemaCorpus(directory)
    corpus.add_many(schemas)
    added = time.perf_counter()
    SegmentedCorpusIndex.build(corpus)
    built = time.perf_counter()
    return {"add_s": added - began, "build_s": built - added,
            "docs": len(corpus)}


def search_inputs(ctx: RunContext) -> tuple:
    schemas = inputs.corpus_schemas(ctx.seed)
    queries = inputs.search_queries(
        ctx.seed, schemas, SEARCH_QUERIES + WARMUP_QUERIES,
    )
    return schemas, queries


def run_search_corpus(ctx: RunContext) -> Outcome:
    outcome = Outcome()
    schemas, queries = search_inputs(ctx)
    warm = queries[-WARMUP_QUERIES:]
    queries = queries[:-WARMUP_QUERIES]
    corpus_dir = ctx.workdir / "corpus"
    written = build_corpus(corpus_dir, schemas)
    service, start_times = _serve_setup(
        ctx, ["--corpus", str(corpus_dir), "--segmented"],
    )
    setup_times = [written["add_s"] + written["build_s"] + seconds
                   for seconds in start_times]
    # Warm both workers' lazily loaded segments without a rerank.
    warm_bodies = [
        json.dumps({"query_xsd": query.xsd, "rerank": False}).encode("utf-8")
        for query in warm + warm
    ]
    bodies = [query.body(SEARCH_K) for query in queries]
    try:
        host, port = service.host, service.port
        asyncio.run(closed_loop(
            host, port, "/search", warm_bodies, 300.0, CONNECTIONS,
        ))
        closed = asyncio.run(closed_loop(
            host, port, "/search", bodies, ctx.seconds, CONNECTIONS,
        ))
        _service_health(outcome, service)
        rss = service.peak_rss_mb()
    finally:
        service.stop()

    from repro.corpus.corpus import SchemaCorpus

    nodes = [entry.nodes for entry in SchemaCorpus(corpus_dir).entries()]
    mean_nodes = sum(nodes) / len(nodes)
    corpus_dir = str(corpus_dir)
    samples = closed["samples"]
    expected = list(ctx.helpers.map(
        checks.expected_search, [corpus_dir] * len(samples),
        [bodies[sample.index] for sample in samples],
    ))
    ok = set()
    in_top = top1 = node_pairs = 0
    for sample, want in zip(samples, expected):
        query = queries[sample.index]
        payload, reason = checks.check_search(sample.status, sample.body, want)
        if reason is not None:
            outcome.failures.append(
                f"/search {query.name}: {sample.error or reason}"
            )
            continue
        ok.add(sample.index)
        names = [hit["name"] for hit in payload["hits"]]
        in_top += query.origin in names
        top1 += bool(names) and names[0] == query.origin
        node_pairs += query.nodes * payload["examined"] * mean_nodes

    outcome.attempted = len(samples)
    outcome.failed = len(samples) - len(ok)
    latency = latency_summary(
        _failed_latency(samples, ok, closed["wall"])
    )
    misses = outcome.attempted - top1
    outcome.put("setup_s", median(setup_times), "s")
    outcome.put("latency_p50_ms", latency["p50_ms"], "ms")
    outcome.put("latency_tail_ms", latency["tail_ms"], "ms")
    outcome.put("throughput_rps", len(ok) / closed["wall"], "1/s")
    outcome.put("pairs_per_s", node_pairs / closed["wall"], "1/s")
    # Overall of the top-1 answers: a wrong top hit is one false and
    # one missed match against the query's origin.
    outcome.put("overall", 1.0 - 2.0 * misses / outcome.attempted, "ratio")
    outcome.put("recall", in_top / outcome.attempted, "ratio")
    outcome.put("peak_rss_mb", rss, "MiB")
    outcome.put("success_share", len(ok) / outcome.attempted, "ratio")
    outcome.notes += [
        f"corpus: {len(schemas)} schemas; {len(queries)} held-out queries, "
        f"k={SEARCH_K}",
        f"closed loop, {CONNECTIONS} connections: tail=p{latency['tail_q']} "
        f"over {latency['count']} samples",
        _phase_note("closed", samples, ok, closed["wall"]),
        f"set-up: corpus add {written['add_s']:.3f} s, index build "
        f"{written['build_s']:.3f} s, service starts (s): "
        f"{', '.join(f'{t:.3f}' for t in start_times)}",
    ]
    if len(samples) == len(queries):
        outcome.flags.append("ran out of generated queries before the deadline")
    return outcome


WORKLOADS = {
    "match-served": run_match_served,
    "match-large": run_match_large,
    "search-corpus": run_search_corpus,
}
