"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
for entry in (str(ROOT / "src"), str(PERFBENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from qbench import checks, inputs  # noqa: E402
from qbench.layers import self_time_spans  # noqa: E402
from qbench.stats import latency_summary, percentile, tail_percentile  # noqa: E402


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------

def _served(seed):
    duplicates = inputs.duplicate_indexes(seed, 24)
    return [inputs.served_pair(seed, i, i in duplicates) for i in range(24)]


def test_same_seed_gives_byte_identical_inputs():
    assert inputs.fingerprint(_served(7)) == inputs.fingerprint(_served(7))
    assert inputs.large_pair(7, 0) == inputs.large_pair(7, 0)
    corpus = inputs.corpus_schemas(7, count=40)
    assert corpus == inputs.corpus_schemas(7, count=40)
    assert (inputs.search_queries(7, corpus, 5)
            == inputs.search_queries(7, corpus, 5))


def test_different_seed_gives_different_inputs():
    assert inputs.fingerprint(_served(7)) != inputs.fingerprint(_served(8))
    assert (inputs.large_pair(7, 0).source_xsd
            != inputs.large_pair(8, 0).source_xsd)
    assert inputs.corpus_schemas(7, 40) != inputs.corpus_schemas(8, 40)


def test_served_pairs_span_the_size_ladder_and_repeat_labels():
    pairs = _served(3)
    for index, pair in enumerate(pairs):
        if not pair.duplicate:
            assert pair.source_nodes == inputs.SIZE_LADDER[index % 40]
    assert sorted(inputs.SIZE_LADDER)[0] == 15
    assert sorted(inputs.SIZE_LADDER)[-1] == 90
    assert len({pair.source_xsd for pair in pairs}) == len(pairs)
    duplicates = [pair for pair in pairs if pair.duplicate]
    assert len(duplicates) == round(24 * inputs.DUPLICATE_SHARE)
    from repro.xsd.parser import parse_xsd

    for pair in duplicates:
        tree = parse_xsd(pair.source_xsd)
        assert any(
            len({c.name for c in node.children}) < len(node.children)
            for node in tree.root.iter_preorder()
        )


def test_queries_are_held_out_of_the_corpus():
    corpus = inputs.corpus_schemas(5, count=60)
    queries = inputs.search_queries(5, corpus, 6)
    assert not {query.xsd for query in queries} & set(corpus)
    from repro.xsd.parser import parse_xsd

    names = {parse_xsd(text).name for text in corpus}
    assert all(query.origin in names for query in queries)


# ----------------------------------------------------------------------
# The correctness gate
# ----------------------------------------------------------------------

def test_checker_rejects_a_wrong_match_payload():
    pair = inputs.bundled_pairs()[0]
    expected = checks.expected_match(pair.body())
    payload = json.loads(expected)
    good = json.dumps({"state": "done", "result": payload}, indent=2).encode()
    assert checks.check_match(200, good, expected)[1] is None

    payload["correspondences"][0]["score"] += 1e-9
    wrong = json.dumps({"state": "done", "result": payload}).encode()
    assert checks.check_match(200, wrong, expected)[1] is not None
    assert checks.check_match(500, good, expected)[1] is not None


def test_checker_rejects_a_wrong_search_top10(tmp_path):
    from qbench.workloads import build_corpus

    corpus = inputs.corpus_schemas(11, count=30)
    build_corpus(tmp_path / "corpus", corpus)
    query = inputs.search_queries(11, corpus, 1)[0]
    expected = checks.expected_search(str(tmp_path / "corpus"), query.body(10))
    hits = json.loads(expected)
    good = json.dumps({"hits": hits}).encode()
    assert checks.check_search(200, good, expected)[1] is None

    swapped = hits[1:2] + hits[:1] + hits[2:]
    assert checks.check_search(
        200, json.dumps({"hits": swapped}).encode(), expected,
    )[1] is not None
    rescored = [dict(hit) for hit in hits]
    rescored[-1]["score"] = rescored[-1]["score"] / 2
    assert checks.check_search(
        200, json.dumps({"hits": rescored}).encode(), expected,
    )[1] is not None


def test_quality_counts_pairs_against_gold():
    payload = {"correspondences": [
        {"source": "A/x", "target": "B/x"}, {"source": "A/y", "target": "B/z"},
    ]}
    quality = checks.match_quality(payload, (("A/x", "B/x"), ("A/y", "B/y")))
    assert (quality.true_positives, quality.false_positives,
            quality.false_negatives) == (1, 1, 1)
    assert checks.pooled([quality, checks.missed((("A/q", "B/q"),))]
                         ).false_negatives == 2


# ----------------------------------------------------------------------
# Statistics and span arithmetic
# ----------------------------------------------------------------------

def test_tail_needs_ten_samples_beyond_it():
    assert tail_percentile(200) == 95
    assert tail_percentile(100) == 90
    assert tail_percentile(40) == 75
    assert tail_percentile(39) == 50
    summary = latency_summary([i / 1000 for i in range(1, 41)])
    assert summary["tail_q"] == 75 and summary["tail_ms"] == pytest.approx(30)
    assert percentile([3, 1, 2], 50) == 2


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"span_id": "1", "parent_id": "", "name": "outer",
         "start": 0.0, "duration": 10.0},
        {"span_id": "2", "parent_id": "1", "name": "a",
         "start": 1.0, "duration": 4.0},
        {"span_id": "3", "parent_id": "1", "name": "b",
         "start": 3.0, "duration": 4.0},
        {"span_id": "4", "parent_id": "3", "name": "c",
         "start": 4.0, "duration": 1.0},
    ]
    by_name = {span["name"]: span["duration"]
               for span in self_time_spans(spans)}
    assert by_name == {"outer": 4.0, "a": 4.0, "b": 3.0, "c": 1.0}


# ----------------------------------------------------------------------
# Process clean-up
# ----------------------------------------------------------------------

#: Starts a spawn-context pool (which brings the resource tracker) and a
#: child that leaves an orphaned sleeper behind, then stops everything.
ORPHAN_SCRIPT = """
import multiprocessing, os, subprocess, sys
from concurrent.futures import ProcessPoolExecutor
from qbench.service import become_subreaper, process_tree, stop_descendants

if __name__ == "__main__":
    adopted = become_subreaper()
    pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn"))
    pool.submit(abs, -1).result()
    pool.shutdown(wait=True)
    subprocess.run([sys.executable, "-c",
                    "import subprocess, sys; subprocess.Popen("
                    "[sys.executable, '-c', 'import time; time.sleep(120)'])"])
    before = process_tree(os.getpid())[1:]
    left = stop_descendants(timeout=10)
    after = process_tree(os.getpid())[1:]
    print(adopted, len(before), left, after)
"""


def test_stop_descendants_reaps_orphans_and_the_resource_tracker():
    result = subprocess.run(
        [sys.executable, "-c", ORPHAN_SCRIPT], capture_output=True,
        text=True, cwd=str(ROOT), timeout=60,
        env={"PYTHONPATH": str(PERFBENCH), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0, result.stderr
    adopted, before, left, after = result.stdout.split(" ", 3)
    if adopted != "True":
        pytest.skip("child subreaper not available on this platform")
    assert int(before) == 2  # the resource tracker and the orphan
    assert left == "[]" and after.strip() == "[]"


# ----------------------------------------------------------------------
# The command
# ----------------------------------------------------------------------

def test_seed_is_a_required_argument():
    result = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload",
         "match-served", "--seconds", "1"],
        capture_output=True, text=True, cwd=str(ROOT), timeout=60,
    )
    assert result.returncode != 0
    assert "--seed" in result.stderr


def test_held_out_seed_is_documented():
    readme = (PERFBENCH / "README.md").read_text(encoding="utf-8")
    assert str(inputs.HELD_OUT_SEED) in readme


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "match-served",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
