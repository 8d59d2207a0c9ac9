"""Batch service throughput: serial vs. 4 workers vs. warm cache.

Not a paper experiment -- this measures the batch service layer on the
bundled evaluation pairs (PO, Book, DCMD, Inventory): the same manifest
is run serially in-process, on a 4-process :class:`WorkerPool`, and
again against a warm content-addressed result store.  The report
records wall-clock times (pool start-up excluded, reported apart), the
parallel speedup, and the warm-run hit rate; correctness assertions
(every job done; warm results byte-identical to cold) always run, while
the >=2x speedup assertion is gated on the machine actually having >=4
CPUs -- on a single-core runner process parallelism cannot beat serial
and the measured number is reported as-is.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.service.jobs import MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner
from repro.service.store import ResultStore, canonical_json
from repro.xsd.serializer import to_xsd

from conftest import write_result

TASK_NAMES = ("PO", "Book", "DCMD", "Inventory")
ALGORITHMS = ("qmatch", "cupid")
THRESHOLDS = (0.3, 0.5, 0.7)
PARALLEL_WORKERS = 4


def corpus_specs(task_of) -> list[MatchJobSpec]:
    """The bundled evaluation corpus as one spec per (pair, alg, thr)."""
    specs = []
    for task_name in TASK_NAMES:
        task = task_of(task_name)
        source_xsd = to_xsd(task.source)
        target_xsd = to_xsd(task.target)
        for algorithm in ALGORITHMS:
            for threshold in THRESHOLDS:
                specs.append(MatchJobSpec(
                    source_xsd=source_xsd,
                    target_xsd=target_xsd,
                    algorithm=algorithm,
                    threshold=threshold,
                    label=f"{task_name}:{algorithm}@{threshold}",
                    source_name=task.source.name,
                    target_name=task.target.name,
                ))
    return specs


def run_on_pool(specs, store=None):
    """``(report, start-up seconds)`` of one run on a fresh pool."""
    started = time.perf_counter()
    with WorkerPool(
        workers=PARALLEL_WORKERS, store=store, retries=0
    ) as pool:
        startup = time.perf_counter() - started
        return pool.run(specs), startup


def test_batch_throughput(task_of, tmp_path):
    specs = corpus_specs(task_of)

    serial = BatchRunner(retries=0).run(corpus_specs(task_of))
    assert serial.ok

    parallel, startup = run_on_pool(corpus_specs(task_of))
    assert parallel.ok

    cold_store = ResultStore(tmp_path / "cache")
    cold, _ = run_on_pool(corpus_specs(task_of), cold_store)
    assert cold.ok and cold.cache_hits == 0

    warm_store = ResultStore(tmp_path / "cache")
    warm, _ = run_on_pool(specs, warm_store)
    assert warm.ok

    # Warm-cache contract: every job served from the store, results
    # byte-identical to the cold run's.
    assert warm.cache_hit_rate == 1.0
    assert warm_store.hit_rate == 1.0
    for cold_record, warm_record in zip(cold.records, warm.records):
        assert (canonical_json(warm_record.result)
                == canonical_json(cold_record.result))

    speedup = serial.wall_seconds / parallel.wall_seconds
    warm_speedup = serial.wall_seconds / warm.wall_seconds
    cpus = os.cpu_count() or 1
    write_result(
        "batch_throughput",
        "Batch service throughput (bundled evaluation corpus)",
        "\n".join([
            f"jobs                 : {len(specs)} "
            f"({len(TASK_NAMES)} pairs x {len(ALGORITHMS)} algorithms "
            f"x {len(THRESHOLDS)} thresholds)",
            f"available CPUs       : {cpus}",
            f"serial (in-process)  : {serial.wall_seconds:.2f}s",
            f"parallel ({PARALLEL_WORKERS} workers) : "
            f"{parallel.wall_seconds:.2f}s  ({speedup:.2f}x; pool "
            f"start-up {startup:.2f}s not included)",
            f"warm cache           : {warm.wall_seconds:.2f}s  "
            f"({warm_speedup:.2f}x; hit rate "
            f"{warm.cache_hit_rate:.0%})",
            "warm results         : byte-identical to cold run",
        ]),
    )

    # The speedup target needs real cores; a 1-CPU runner cannot
    # parallelize CPU-bound matching.
    if cpus >= PARALLEL_WORKERS:
        assert speedup >= 2.0, (
            f"expected >=2x speedup with {PARALLEL_WORKERS} workers on "
            f"{cpus} CPUs, measured {speedup:.2f}x"
        )
    # Serving 24 jobs from the store must beat recomputing them.
    assert warm.wall_seconds < serial.wall_seconds


def test_warm_cache_report_hit_rate_in_stats(task_of, tmp_path):
    """The run report itself carries the store hit/miss counters."""
    specs = corpus_specs(task_of)[:4]
    store = ResultStore(tmp_path / "cache")
    runner = BatchRunner(store=store, retries=0)
    runner.run(specs)
    report = runner.run(corpus_specs(task_of)[:4])
    payload = report.to_dict()
    cache = payload["stats"]["caches"]["result-store"]
    assert cache["hits"] == 4
    assert payload["summary"]["cache_hit_rate"] == 1.0


if __name__ == "__main__":
    pytest.main([__file__, "-s"])
