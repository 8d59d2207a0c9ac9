"""The correctness gate and the quality measures.

Every served answer is compared with the same computation run
in-process on the same input:

- a ``/match`` payload must be byte-identical, as canonical JSON, to
  :func:`repro.service.runner.execute_job` on the spec
  :meth:`MatchService.spec_from_request` builds from the same body;
- a ``/search`` top-10 (ids and scores) must equal
  :meth:`CorpusSearcher.search` on the same query.

A mismatch is a failed request.  Quality (the paper's Overall against
the mutator's gold map, and recall) is computed from the very answers
the gate accepted, so a faster but wrong answer shows in both.

The ``expected_*`` functions run in helper processes
(:func:`helper_pool`); they keep one service/searcher per process.
"""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

from repro.evaluation.gold import GoldMapping
from repro.evaluation.metrics import MatchQuality, evaluate_against_gold

_HELPER_STATE: dict = {}

#: Fields of a search hit that make up "ids and scores".
HIT_FIELDS = ("hash", "name", "score", "qom", "retrieval_score")


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def helper_pool(workers: int = 2) -> ProcessPoolExecutor:
    """Spawned helper processes for generation and expected answers."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("spawn"),
    )


def expected_match(body: bytes) -> str:
    """Canonical JSON of the in-process ``execute_job`` payload."""
    from repro.service.runner import execute_job
    from repro.service.server import MatchService

    service = _HELPER_STATE.get("service")
    if service is None:
        service = _HELPER_STATE["service"] = MatchService(mode="inline")
    spec = service.spec_from_request(json.loads(body))
    return canonical(execute_job(spec)["result"])


def expected_matches(bodies: list) -> list:
    return [expected_match(body) for body in bodies]


def expected_search(corpus_dir: str, body: bytes) -> str:
    """Canonical JSON of the in-process top-k (ids and scores)."""
    from repro.service.server import build_searcher
    from repro.xsd.parser import parse_xsd

    searcher = _HELPER_STATE.get(corpus_dir)
    if searcher is None:
        searcher = _HELPER_STATE[corpus_dir] = build_searcher(
            corpus_dir, segmented=True,
        )
    request = json.loads(body)
    result = searcher.search(
        parse_xsd(request["query_xsd"]), k=int(request.get("k", 10)),
    )
    return canonical(top_hits(result.as_dict()["hits"]))


def top_hits(hits: list) -> list:
    return [{name: hit.get(name) for name in HIT_FIELDS} for hit in hits]


def check_match(status: int, body: bytes, expected: str) -> tuple:
    """``(payload, reason)``; ``reason`` is None when the answer passes."""
    if status != 200:
        return None, f"status {status}"
    try:
        snapshot = json.loads(body)
    except ValueError:
        return None, "response is not JSON"
    payload = snapshot.get("result")
    if snapshot.get("state") != "done" or payload is None:
        return None, f"job state {snapshot.get('state')!r}"
    if canonical(payload) != expected:
        return None, "payload differs from in-process execute_job"
    return payload, None


def check_search(status: int, body: bytes, expected: str) -> tuple:
    """``(hits, reason)``; ``reason`` is None when the answer passes."""
    if status != 200:
        return None, f"status {status}"
    try:
        payload = json.loads(body)
    except ValueError:
        return None, "response is not JSON"
    hits = payload.get("hits")
    if not isinstance(hits, list):
        return None, "response has no hits"
    if canonical(top_hits(hits)) != expected:
        return None, "top-k differs from in-process CorpusSearcher.search"
    return payload, None


def match_quality(payload: dict, gold: tuple, alternates: tuple = (),
                  ) -> MatchQuality:
    """Correspondences of one payload scored against a gold map."""
    mapping = GoldMapping(gold)
    for alternate, primary in alternates:
        mapping.add_alternate(tuple(alternate), tuple(primary))
    predicted = [
        (c["source"], c["target"]) for c in payload.get("correspondences", ())
    ]
    return evaluate_against_gold(predicted, mapping)


def missed(gold: tuple) -> MatchQuality:
    """Quality of an answer that found nothing (every gold pair missed)."""
    return MatchQuality(0, 0, len(set(gold)))


def pooled(qualities) -> MatchQuality:
    """One quality over many answers (counts summed, then the ratios)."""
    tp = fp = fn = 0
    for quality in qualities:
        tp += quality.true_positives
        fp += quality.false_positives
        fn += quality.false_negatives
    return MatchQuality(tp, fp, fn)
