"""Serving latency: inline vs. persistent pre-warmed pool, over asyncio.

Not a paper experiment -- this measures the serving core on the bundled
PO pair through the asyncio front-end that ``qmatch serve`` runs.  The
same ``POST /match`` workload is replayed against one service per
execution mode (inline on the service threads, persistent worker pool)
and the p50/p95/p99 latencies plus throughput are recorded.  The
correctness assertions (every response done; results byte-identical
across modes) always run; the timings are reported, not gated.

``QMATCH_SERVE_BENCH_REQUESTS`` overrides the per-mode request count
(default 30; CI smoke uses a smaller number).
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.service.aserver import AsyncMatchServer
from repro.service.server import MatchService
from repro.service.store import canonical_json
from repro.xsd.serializer import to_xsd

from conftest import write_result

REQUESTS = int(os.environ.get("QMATCH_SERVE_BENCH_REQUESTS", "30"))
WARMUP = 3
MODES = ("inline", "pool")


@contextmanager
def serving(service: MatchService):
    """The asyncio front-end on a background event loop; yields its URL."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = AsyncMatchServer(service, port=0)
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(10)
        yield server.url
    finally:
        # stop() drains the service, which shuts its backend down.
        asyncio.run_coroutine_threadsafe(
            server.stop(drain_timeout=10), loop,
        ).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5)
        loop.close()


def post_match(url: str, body: bytes) -> dict:
    request = urllib.request.Request(
        f"{url}/match", data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 200
        return json.loads(response.read())


def percentile(samples: list[float], point: float) -> float:
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[int(point) - 1]


def measure_mode(mode: str, body: bytes) -> dict:
    """Latency profile of one service mode over real HTTP."""
    with serving(MatchService(workers=2, mode=mode, retries=0)) as url:
        for _ in range(WARMUP):
            post_match(url, body)
        samples = []
        first_result = None
        started = time.perf_counter()
        for _ in range(REQUESTS):
            sent = time.perf_counter()
            payload = post_match(url, body)
            samples.append(time.perf_counter() - sent)
            assert payload["state"] == "done"
            if first_result is None:
                first_result = payload["result"]
        wall = time.perf_counter() - started
    return {
        "mode": mode,
        "result": first_result,
        "p50": statistics.median(samples),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "throughput": REQUESTS / wall,
    }


def test_serve_latency(task_of):
    task = task_of("PO")
    body = json.dumps({
        "source_xsd": to_xsd(task.source),
        "target_xsd": to_xsd(task.target),
    }).encode("utf-8")

    profiles = {mode: measure_mode(mode, body) for mode in MODES}

    # Execution mode must not change the answer: byte-identical
    # MatchResult JSON inline and on the pool.
    assert canonical_json(profiles["pool"]["result"]) == \
        canonical_json(profiles["inline"]["result"]), \
        "pool result differs from inline"

    def row(profile):
        return (
            f"{profile['mode']:<8}: "
            f"p50 {profile['p50'] * 1000:7.2f}ms  "
            f"p95 {profile['p95'] * 1000:7.2f}ms  "
            f"p99 {profile['p99'] * 1000:7.2f}ms  "
            f"{profile['throughput']:6.1f} req/s"
        )

    write_result(
        "serve_latency",
        "Serving latency over asyncio: inline vs pre-warmed pool",
        "\n".join([
            f"requests per mode    : {REQUESTS} (+{WARMUP} warm-up), "
            "POST /match, PO pair, asyncio transport",
            f"available CPUs       : {os.cpu_count() or 'unknown'}",
            *(row(profiles[mode]) for mode in MODES),
            "results              : byte-identical across both modes",
        ]),
    )


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
