"""Two-stage top-k schema search: index retrieval + QMatch rerank.

Stage 1 (**retrieve**) asks the :class:`~repro.corpus.indexes.CorpusIndex`
for everything that shares evidence with the query -- token cosine
scores from the inverted index, Jaccard estimates from the MinHash LSH
buckets -- blends them, and keeps a candidate shortlist.  Cost is
proportional to the matching posting lists, not the corpus.

Stage 2 (**rerank**) runs the full hybrid QMatch engine on query ×
shortlist only, through the batch service's job runner (in-process, or
a :class:`~repro.service.pool.WorkerPool` when ``workers > 1``; either
way reranks hit the content-addressed result store when one is
attached), and orders hits by tree QoM.

The point: against an ``N``-schema corpus a search examines
``len(shortlist)`` expensive pairs instead of ``N`` -- the
``search.pruned`` counter and the ``search:retrieve`` /
``search:rerank`` stage timings in the result's
:class:`~repro.engine.stats.EngineStats` quantify exactly what was
skipped.  When the corpus is small (fewer entries than the candidate
budget) nothing is pruned and the ranking provably equals brute force.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from repro.corpus.corpus import SchemaCorpus
from repro.corpus.indexes import CorpusIndex
from repro.engine.stats import EngineStats
from repro.obs.log import NULL_LOGGER
from repro.obs.spans import current_tracer
from repro.service.jobs import MatchJobSpec
from repro.service.pool import WorkerPool
from repro.service.runner import BatchRunner
from repro.service.store import ResultStore, content_hash

#: Default number of hits a search returns.
DEFAULT_K = 10

#: Candidate-budget defaults: rerank at most max(k * OVERSAMPLE,
#: MIN_CANDIDATES) schemas.  Generous on small corpora (everything is
#: reranked -- exact brute-force ranking), a hard prune on large ones.
OVERSAMPLE = 3
MIN_CANDIDATES = 20


@dataclass
class SearchHit:
    """One ranked corpus schema."""

    hash: str
    name: str
    #: Blended stage-1 score (lexical cosine + structural Jaccard).
    retrieval_score: float
    lexical_score: float
    structural_score: float
    #: Full QMatch tree QoM; ``None`` when the hit was not reranked.
    qom: Optional[float] = None
    correspondences: Optional[int] = None
    reranked: bool = False
    error: Optional[str] = None
    #: Root-pair axis breakdown of the rerank (label/properties/level/
    #: children[/instance] floats); ``None`` when not reranked or the
    #: algorithm cannot explain itself.
    axes: Optional[dict] = None
    #: The full rerank result payload -- kept so constraint filtering can
    #: evaluate against complete evidence.  Deliberately not serialized.
    payload: Optional[dict] = None

    @property
    def score(self) -> float:
        """The hit's ranking score: QoM when reranked, else retrieval."""
        return self.qom if self.qom is not None else self.retrieval_score

    def as_dict(self) -> dict:
        return {
            "hash": self.hash,
            "name": self.name,
            "score": self.score,
            "retrieval_score": self.retrieval_score,
            "lexical_score": self.lexical_score,
            "structural_score": self.structural_score,
            "qom": self.qom,
            "axes": self.axes,
            "correspondences": self.correspondences,
            "reranked": self.reranked,
            "error": self.error,
        }


@dataclass
class SearchResult:
    """The outcome of one top-k search."""

    query_name: str
    k: int
    hits: list = field(default_factory=list)
    corpus_size: int = 0
    #: Docs with any index evidence (stage-1 scoring work).
    candidates: int = 0
    #: Candidates dropped before the expensive stage.
    pruned: int = 0
    #: Full QMatch runs actually performed.
    examined: int = 0
    #: Constraint-filtering counters (``{"evaluated", "admitted",
    #: "filtered"}``) when a constraint was applied, else ``None``.
    constraints: Optional[dict] = None
    stats: EngineStats = field(default_factory=EngineStats)

    def as_dict(self, include_stats: bool = True) -> dict:
        payload = {
            "query": self.query_name,
            "k": self.k,
            "corpus_size": self.corpus_size,
            "candidates": self.candidates,
            "pruned": self.pruned,
            "examined": self.examined,
            "hits": [hit.as_dict() for hit in self.hits],
        }
        if self.constraints is not None:
            payload["constraints"] = self.constraints
        if include_stats:
            payload["stats"] = self.stats.as_dict()
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

    def render(self) -> str:
        """Human-readable ranking table plus the pruning summary."""
        from repro.evaluation.harness import render_table

        rows = []
        for rank, hit in enumerate(self.hits, start=1):
            rows.append((
                rank,
                hit.name,
                hit.hash[:12],
                f"{hit.qom:.4f}" if hit.qom is not None else "-",
                f"{hit.retrieval_score:.4f}",
                hit.correspondences if hit.correspondences is not None else "-",
                hit.error or "",
            ))
        table = render_table(
            ["rank", "schema", "hash", "QoM", "retrieval", "found", "note"],
            rows,
        )
        summary = (
            f"query {self.query_name!r}: {len(self.hits)} of top-{self.k} "
            f"over {self.corpus_size} schemas; {self.candidates} candidates, "
            f"{self.pruned} pruned, {self.examined} reranked with QMatch"
        )
        if self.constraints is not None:
            summary += (
                f"; constraints: {self.constraints['admitted']} admitted, "
                f"{self.constraints['filtered']} filtered"
            )
        return f"{table}\n{summary}"


class CorpusSearcher:
    """Retrieve-then-rerank top-k search over a :class:`SchemaCorpus`."""

    def __init__(self, corpus: SchemaCorpus, index: CorpusIndex,
                 algorithm: str = "qmatch",
                 threshold: float = 0.5,
                 weights=None,
                 lexical_weight: float = 0.7,
                 scorer: str = "cosine",
                 workers: int = 1,
                 store: Optional[ResultStore] = None,
                 log=NULL_LOGGER):
        """``lexical_weight`` blends the stage-1 signals:
        ``score = lw * lexical + (1 - lw) * jaccard``, where the
        lexical side is ``scorer`` -- ``cosine`` (default) or ``bm25``
        (see :data:`~repro.corpus.indexes.LEXICAL_SCORERS`; both live
        in [0, 1]).  ``workers`` > 1 fans the rerank over a worker pool
        of that many processes (started per search); ``store`` makes reranks content-addressed-cacheable
        across searches.  ``log`` is an
        :class:`~repro.obs.log.EventLogger` that receives
        ``search.retrieve`` / ``search.rerank`` stage events (disabled
        by default).
        """
        from repro.corpus.indexes import LEXICAL_SCORERS

        if not 0.0 <= lexical_weight <= 1.0:
            raise ValueError(
                f"lexical_weight must be in [0, 1], got {lexical_weight}"
            )
        if scorer not in LEXICAL_SCORERS:
            raise ValueError(
                f"unknown scorer {scorer!r}: expected one of "
                f"{', '.join(LEXICAL_SCORERS)}"
            )
        self.corpus = corpus
        self.index = index
        self.algorithm = algorithm
        self.threshold = threshold
        self.weights = weights
        self.lexical_weight = lexical_weight
        self.scorer = scorer
        self.workers = workers
        self.store = store
        self.log = log

    # ------------------------------------------------------------------
    # Stage 1: index retrieval
    # ------------------------------------------------------------------

    def _stage1(self, tokens, signature) -> tuple:
        """Raw stage-1 signals: ``(lexical_scores, structural_candidates)``.

        The extension seam the sharded searcher overrides to fan the
        scan.  Indexes exposing a combined ``retrieve_scores`` (the
        segmented index, which shares admission state between the two
        signals) are preferred over the two facade calls.
        """
        combined = getattr(self.index, "retrieve_scores", None)
        if combined is not None:
            return combined(tokens, signature, scorer=self.scorer)
        return (
            self.index.inverted.scores(tokens, scorer=self.scorer),
            self.index.minhash.candidates(signature),
        )

    def retrieve(self, query_tree, stats: Optional[EngineStats] = None,
                 ) -> list[SearchHit]:
        """Every candidate with index evidence, best-first.

        Union scoring: a schema appears when the inverted index *or*
        the LSH buckets surface it; the blended score rewards agreement
        between the two signals.
        """
        stats = stats if stats is not None else EngineStats()
        with stats.stage("search:retrieve"):
            tokens = self.index.query_tokens(query_tree)
            signature = self.index.query_signature(query_tree)
            lexical, structural_candidates = self._stage1(tokens, signature)
            candidates = set(lexical) | structural_candidates
            hits = []
            for doc_id in candidates:
                lex = lexical.get(doc_id, 0.0)
                struct = self.index.minhash.estimate(signature, doc_id)
                try:
                    name = self.corpus.entry(doc_id).name
                except Exception:
                    name = doc_id[:12]
                hits.append(SearchHit(
                    hash=doc_id,
                    name=name,
                    retrieval_score=(
                        self.lexical_weight * lex
                        + (1.0 - self.lexical_weight) * struct
                    ),
                    lexical_score=lex,
                    structural_score=struct,
                ))
            hits.sort(key=lambda hit: (-hit.retrieval_score, hit.name,
                                       hit.hash))
        return hits

    # ------------------------------------------------------------------
    # Stage 2: QMatch rerank
    # ------------------------------------------------------------------

    def _rerank(self, query_xsd: str, query_hash: str, query_name: str,
                shortlist: list, stats: EngineStats,
                query_profiles: Optional[dict] = None):
        def entry_profile(doc_id):
            try:
                return self.corpus.entry(doc_id).profile or None
            except Exception:
                return None

        specs = [
            MatchJobSpec(
                source_xsd=query_xsd,
                target_xsd=self.corpus.text(hit.hash),
                algorithm=self.algorithm,
                threshold=self.threshold,
                weights=self.weights,
                label=f"{query_name}~{hit.name}",
                source_name=query_name,
                target_name=hit.name,
                source_hash=query_hash,
                target_hash=hit.hash,
                source_profiles=query_profiles,
                target_profiles=entry_profile(hit.hash),
            )
            for hit in shortlist
        ]
        runner_kwargs = {
            "store": self.store, "retries": 0,
            "log": self.log.child(stage="rerank"),
        }
        with stats.stage("search:rerank"):
            if self.workers == 1:
                # Also the path inside pool workers' resident searchers.
                report = BatchRunner(**runner_kwargs).run(specs)
            else:
                with WorkerPool(workers=self.workers, **runner_kwargs) as pool:
                    report = pool.run(specs)
        stats.merge(report.stats)
        for hit, record in zip(shortlist, report.records):
            hit.reranked = True
            if record.result is not None:
                hit.payload = record.result
                hit.qom = record.result.get("tree_qom")
                hit.axes = record.result.get("root_axes")
                hit.correspondences = len(
                    record.result.get("correspondences", ())
                )
            else:
                hit.error = (record.error or {}).get(
                    "message", "rerank failed"
                )

    # ------------------------------------------------------------------
    # The search entry point
    # ------------------------------------------------------------------

    def search(self, query_tree, k: int = DEFAULT_K,
               candidates: Optional[int] = None,
               rerank: bool = True,
               query_profiles: Optional[dict] = None,
               constraint=None) -> SearchResult:
        """Top-``k`` corpus schemas for ``query_tree``.

        ``candidates`` caps the expensive stage (default
        ``max(OVERSAMPLE * k, MIN_CANDIDATES)``); ``rerank=False``
        returns the pure index ranking (no QMatch runs at all).
        ``query_profiles`` are instance-evidence profiles for the query
        schema (``{node_path: profile_dict}``), forwarded -- together
        with each corpus entry's stored profiles -- into the rerank jobs
        so a nonzero ``instance`` weight can use them.  ``constraint``
        (a parsed :class:`repro.constraints.Constraint`) filters the
        reranked shortlist *before* the top-``k`` cut: only hits whose
        full match evidence satisfies it are admitted, so the result may
        legitimately hold fewer than ``k`` hits.
        """
        from repro.xsd.serializer import to_xsd

        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if candidates is not None and candidates < 1:
            raise ValueError(f"candidates must be >= 1, got {candidates}")
        if constraint is not None and not rerank:
            raise ValueError(
                "constraint filtering needs rerank evidence; "
                "drop --no-rerank or the constraint"
            )
        stats = EngineStats()
        budget = (
            candidates if candidates is not None
            else max(OVERSAMPLE * k, MIN_CANDIDATES)
        )
        tracer = current_tracer()
        retrieve_span = tracer.start("corpus.retrieve", {
            "corpus_size": len(self.corpus),
        }) if tracer.enabled else None
        ranked = self.retrieve(query_tree, stats=stats)
        if retrieve_span is not None:
            # ``last_scan`` is the segmented index's per-call scan
            # telemetry (approximate under sharded fan-out, where each
            # shard span below carries the authoritative numbers).
            scan = getattr(self.index, "last_scan", None) or {}
            tracer.finish(retrieve_span, attributes={
                "candidates": len(ranked),
                **{
                    key: value for key, value in scan.items()
                    if value is not None
                },
            })
        shortlist = ranked[:budget]
        pruned = len(ranked) - len(shortlist)
        if len(shortlist) < budget:
            # The index surfaced fewer candidates than we can afford to
            # rerank: spend the leftover budget on zero-evidence entries
            # (deterministic order).  On corpora smaller than the budget
            # this makes the rerank exhaustive -- a recall floor that
            # guarantees parity with brute force -- while large corpora
            # still prune everything past the budget.
            seen = {hit.hash for hit in shortlist}
            for entry in self.corpus.entries():
                if len(shortlist) >= budget:
                    break
                if entry.hash in seen:
                    continue
                shortlist.append(SearchHit(
                    hash=entry.hash, name=entry.name,
                    retrieval_score=0.0, lexical_score=0.0,
                    structural_score=0.0,
                ))
        stats.count("search.corpus-size", len(self.corpus))
        stats.count("search.candidates", len(ranked))
        stats.count("search.pruned", pruned)
        retrieve_stage = stats.stages.get("search:retrieve")
        self.log.event(
            "search.retrieve",
            query=query_tree.name,
            corpus_size=len(self.corpus),
            candidates=len(ranked),
            shortlist=len(shortlist),
            pruned=pruned,
            seconds=(
                round(retrieve_stage.seconds, 6)
                if retrieve_stage is not None else None
            ),
        )
        result = SearchResult(
            query_name=query_tree.name,
            k=k,
            corpus_size=len(self.corpus),
            candidates=len(ranked),
            pruned=pruned,
            stats=stats,
        )
        if rerank and shortlist:
            query_xsd = to_xsd(query_tree)
            rerank_span = tracer.start("corpus.rerank", {
                "examined": len(shortlist),
            }) if tracer.enabled else None
            self._rerank(
                query_xsd, content_hash(query_xsd), query_tree.name,
                shortlist, stats, query_profiles=query_profiles,
            )
            if rerank_span is not None:
                tracer.finish(rerank_span, attributes={
                    "errors": sum(1 for hit in shortlist if hit.error),
                })
            result.examined = len(shortlist)
            stats.count("search.reranked", len(shortlist))
            rerank_stage = stats.stages.get("search:rerank")
            self.log.event(
                "search.rerank",
                query=query_tree.name,
                examined=len(shortlist),
                errors=sum(1 for hit in shortlist if hit.error),
                seconds=(
                    round(rerank_stage.seconds, 6)
                    if rerank_stage is not None else None
                ),
            )
            shortlist.sort(
                key=lambda hit: (-(hit.qom if hit.qom is not None else -1.0),
                                 -hit.retrieval_score, hit.name, hit.hash)
            )
            if constraint is not None:
                shortlist = self._constrain(
                    query_tree, shortlist, constraint, result, stats
                )
        result.hits = shortlist[:k]
        return result

    def _constrain(self, query_tree, shortlist: list, constraint,
                   result: SearchResult, stats: EngineStats) -> list:
        """Admit only reranked hits whose evidence satisfies ``constraint``.

        Hits whose rerank errored carry no evidence and are filtered --
        a gate must not admit what it cannot verify.
        """
        from repro.constraints import MatchEvidence, evaluate_constraint
        from repro.xsd.parser import parse_xsd

        tracer = current_tracer()
        constrain_span = tracer.start("constraints.filter", {
            "evaluated": len(shortlist),
        }) if tracer.enabled else None
        admitted = []
        filtered = 0
        with stats.stage("search:constrain"):
            for hit in shortlist:
                if hit.payload is None:
                    filtered += 1
                    continue
                target_tree = parse_xsd(
                    self.corpus.text(hit.hash), name=hit.name
                )
                evidence = MatchEvidence.from_payload(
                    hit.payload, source_tree=query_tree,
                    target_tree=target_tree,
                )
                if evaluate_constraint(constraint, evidence).passed:
                    admitted.append(hit)
                else:
                    filtered += 1
        if constrain_span is not None:
            tracer.finish(constrain_span, attributes={
                "admitted": len(admitted), "filtered": filtered,
            })
        stats.count("search.constraint_admitted", len(admitted))
        stats.count("search.constraint_filtered", filtered)
        result.constraints = {
            "evaluated": len(shortlist),
            "admitted": len(admitted),
            "filtered": filtered,
        }
        self.log.event(
            "search.constrain", query=query_tree.name,
            evaluated=len(shortlist), admitted=len(admitted),
            filtered=filtered,
        )
        return admitted
