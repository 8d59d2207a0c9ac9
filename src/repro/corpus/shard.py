"""Hash-sharded search over a segmented corpus index.

:class:`ShardedCorpusSearcher` splits the stage-1 scan of a
:class:`~repro.corpus.segments.SegmentedCorpusIndex` into ``shards``
deterministic segment groups (blake2b of the segment id, so a segment
stays in its shard across reopenings) and fans the groups across a
thread pool.  Stage 2 is inherited unchanged from
:class:`~repro.corpus.search.CorpusSearcher`, whose rerank runs through
the batch service's job runner -- so retrieval fan-out (threads over
shards) composes with rerank parallelism (pool worker processes over
candidate pairs) without either knowing about the other.

Sharding never changes scores: every shard scores its documents against
the *global* merged statistics (document frequencies, lengths, counts),
so the union of per-shard score maps is exactly the unsharded score
map -- each document lives in exactly one segment, hence exactly one
shard.  ``tests/test_corpus_shard.py`` asserts this equality.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.corpus.search import CorpusSearcher
from repro.corpus.segments import SegmentedCorpusIndex, SegmentError
from repro.obs.spans import current_tracer

#: Default number of stage-1 shards.
DEFAULT_SHARDS = 4


def shard_of(seg_id: str, shards: int) -> int:
    """The stable shard a segment id belongs to.

    blake2b rather than :func:`hash` because the latter is salted per
    process -- shard assignment must not move between runs.
    """
    digest = hashlib.blake2b(
        seg_id.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % shards


class ShardedCorpusSearcher(CorpusSearcher):
    """A :class:`CorpusSearcher` whose stage 1 fans over segment shards."""

    def __init__(self, corpus, index: SegmentedCorpusIndex,
                 shards: int = DEFAULT_SHARDS, **kwargs):
        if not isinstance(index, SegmentedCorpusIndex):
            raise SegmentError(
                "ShardedCorpusSearcher requires a SegmentedCorpusIndex; "
                "monolithic indexes have nothing to shard"
            )
        if shards < 1:
            raise SegmentError(f"shards must be >= 1, got {shards}")
        super().__init__(corpus, index, **kwargs)
        self.shards = shards
        self._executor: Optional[ThreadPoolExecutor] = None

    def shard_groups(self) -> list:
        """Live segments grouped by shard (empty shards omitted)."""
        groups: dict[int, list] = {}
        for segment in self.index.segments():
            groups.setdefault(
                shard_of(segment.seg_id, self.shards), []
            ).append(segment)
        return [groups[key] for key in sorted(groups)]

    def _stage1(self, tokens, signature) -> tuple:
        groups = self.shard_groups()
        if len(groups) <= 1 or self.index.max_candidates is not None:
            # Nothing to fan (or budget mode, whose admission is global
            # by construction): one combined call is both simpler and
            # avoids redundant per-shard admission walks.
            return self.index.retrieve_scores(
                tokens, signature, scorer=self.scorer
            )
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=min(self.shards, len(groups)),
                thread_name_prefix="qmatch-shard",
            )
        # Shard spans need an explicit parent: the scans run on pool
        # threads, where neither the contextvar nor the tracer's
        # nesting stack is visible.  ``len(shard_lexical)`` is the
        # per-shard docs_scored (the index's ``last_scan`` attribute is
        # a single slot the concurrent calls would race on).
        tracer = current_tracer()
        parent_id = tracer.current_id() if tracer.enabled else ""

        def scan_shard(shard_index: int, group: list) -> tuple:
            span = tracer.child(
                "retrieve.shard", parent_id=parent_id,
                attributes={
                    "shard": shard_index, "segments": len(group),
                },
            ) if tracer.enabled else None
            shard_lexical, shard_structural = self.index.retrieve_scores(
                tokens, signature,
                scorer=self.scorer, segments=group, normalize=False,
            )
            if span is not None:
                tracer.finish(span, attributes={
                    "docs_scored": len(shard_lexical),
                    "structural_candidates": len(shard_structural),
                })
            return shard_lexical, shard_structural

        futures = [
            self._executor.submit(scan_shard, shard_index, group)
            for shard_index, group in enumerate(groups)
        ]
        lexical: dict = {}
        structural: set = set()
        for future in futures:
            shard_lexical, shard_structural = future.result()
            # Disjoint by construction: a document lives in exactly one
            # segment, and a segment in exactly one shard.
            lexical.update(shard_lexical)
            structural.update(shard_structural)
        if self.scorer == "bm25" and lexical:
            # BM25 is max-normalized; the max must be the global one,
            # so shards return raw sums and the merge divides here
            # (same float expression as the unsharded path).
            best = max(lexical.values())
            if best <= 0.0:
                return {}, structural
            lexical = {
                doc_id: score / best for doc_id, score in lexical.items()
            }
        return lexical, structural
