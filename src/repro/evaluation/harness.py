"""Evaluation harness: run matchers on schema pairs and score them.

Drives any set of :class:`repro.matching.Matcher` implementations over a
match task (source schema, target schema, gold mapping), producing the
precision / recall / overall numbers of the paper's Section 5 plus simple
ASCII tables for reports and benchmarks.

Matchers may be passed as instances or as registry names (resolved
through :data:`repro.engine.DEFAULT_REGISTRY` by
:func:`resolve_matchers`), and :func:`evaluate_all` can run all matchers
of one task against a *shared* :class:`~repro.engine.context.MatchContext`
(``share_context=True``), so label analysis done by one matcher is a
cache hit for the next.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.engine.context import MatchContext
from repro.engine.registry import DEFAULT_REGISTRY, MatcherRegistry
from repro.engine.stats import EngineStats
from repro.evaluation.gold import GoldMapping
from repro.evaluation.metrics import MatchQuality, evaluate_against_gold
from repro.matching.base import Matcher
from repro.matching.result import MatchResult
from repro.matching.selection import DEFAULT_THRESHOLD
from repro.xsd.model import SchemaTree


@dataclass(frozen=True)
class MatchTask:
    """One evaluation unit: a schema pair, its gold mapping, a label."""

    name: str
    source: SchemaTree
    target: SchemaTree
    gold: Optional[GoldMapping] = None

    @property
    def total_elements(self) -> int:
        """Combined element count -- the x-axis of the paper's Figure 4."""
        return self.source.size + self.target.size


@dataclass(frozen=True)
class EvaluationRow:
    """One (task, algorithm) outcome."""

    task: str
    algorithm: str
    quality: Optional[MatchQuality]
    found: int
    tree_qom: float
    elapsed_seconds: float

    @property
    def precision(self):
        return self.quality.precision if self.quality else None

    @property
    def recall(self):
        return self.quality.recall if self.quality else None

    @property
    def overall(self):
        return self.quality.overall if self.quality else None


def resolve_matchers(matchers: Iterable[Union[str, Matcher]],
                     registry: Optional[MatcherRegistry] = None,
                     ) -> list[Matcher]:
    """Turn a mixed list of names and instances into matcher instances.

    Strings resolve through ``registry`` (default:
    :data:`~repro.engine.registry.DEFAULT_REGISTRY`); anything else is
    assumed to already be a :class:`Matcher` and passed through.
    """
    registry = registry or DEFAULT_REGISTRY
    return [
        registry.create(matcher) if isinstance(matcher, str) else matcher
        for matcher in matchers
    ]


def evaluate_matcher(task: MatchTask, matcher: Union[str, Matcher],
                     threshold=DEFAULT_THRESHOLD, strategy=None,
                     context: Optional[MatchContext] = None,
                     ) -> tuple[EvaluationRow, MatchResult]:
    """Run one matcher on one task; returns the row and the raw result.

    ``matcher`` may be a registry name.  Pass ``context`` to score
    against an existing :class:`MatchContext` (it must wrap the task's
    schema pair) instead of a fresh one.
    """
    (matcher,) = resolve_matchers([matcher])
    started = time.perf_counter()
    result = matcher.match(
        task.source, task.target, threshold=threshold, strategy=strategy,
        context=context,
    )
    elapsed = time.perf_counter() - started
    quality = None
    if task.gold is not None:
        quality = evaluate_against_gold(result.pairs, task.gold)
    row = EvaluationRow(
        task=task.name,
        algorithm=matcher.name,
        quality=quality,
        found=len(result.correspondences),
        tree_qom=result.tree_qom,
        elapsed_seconds=elapsed,
    )
    return row, result


def evaluate_all(tasks: Iterable[MatchTask],
                 matchers: Sequence[Union[str, Matcher]],
                 threshold=DEFAULT_THRESHOLD, strategy=None,
                 share_context: bool = False,
                 workers: int = 1) -> list[EvaluationRow]:
    """Full cross product of tasks x matchers.

    With ``share_context=True`` all matchers of one task run against a
    single :class:`MatchContext`, so pairwise label / property analysis
    is computed once per task rather than once per (task, matcher).  The
    shared context uses default linguistic / property services; leave it
    off when matchers carry custom thesauri or configs.

    With ``workers > 1`` every (task, matcher) run is fanned out over
    the batch service's worker-process pool instead of running serially
    in-process (see :class:`repro.service.pool.WorkerPool`).  That
    path requires registry *names* (specs cross a process boundary) and
    is mutually exclusive with ``share_context`` (contexts cannot be
    shared across processes).
    """
    tasks = list(tasks)
    if workers > 1:
        if share_context:
            raise ValueError(
                "share_context and workers>1 are mutually exclusive: a "
                "MatchContext cannot be shared across worker processes"
            )
        return _evaluate_all_parallel(
            tasks, matchers, threshold=threshold, strategy=strategy,
            workers=workers,
        )
    matchers = resolve_matchers(matchers)
    rows = []
    for task in tasks:
        context = None
        if share_context:
            context = MatchContext(
                task.source, task.target, stats=EngineStats()
            )
        for matcher in matchers:
            row, _ = evaluate_matcher(
                task, matcher, threshold=threshold, strategy=strategy,
                context=context,
            )
            rows.append(row)
    return rows


def _evaluate_all_parallel(tasks, matchers, threshold, strategy,
                           workers) -> list[EvaluationRow]:
    """Corpus evaluation routed through the batch service's worker pool.

    A failed or timed-out job degrades to a row with no quality numbers
    (``found=0``) rather than aborting the evaluation -- the batch
    service's graceful-degradation contract.
    """
    from repro.service.jobs import MatchJobSpec
    from repro.service.pool import WorkerPool
    from repro.xsd.serializer import to_xsd

    if not all(isinstance(matcher, str) for matcher in matchers):
        raise ValueError(
            "parallel evaluation requires algorithm registry names, "
            "not matcher instances (job specs cross a process boundary)"
        )
    units = []
    specs = []
    for task in tasks:
        source_xsd = to_xsd(task.source)
        target_xsd = to_xsd(task.target)
        for algorithm in matchers:
            units.append((task, algorithm))
            specs.append(MatchJobSpec(
                source_xsd=source_xsd,
                target_xsd=target_xsd,
                algorithm=algorithm,
                threshold=threshold,
                strategy=strategy,
                label=f"{task.name}:{algorithm}",
                source_name=task.source.name,
                target_name=task.target.name,
            ))
    with WorkerPool(workers=workers) as pool:
        report = pool.run(specs)
    rows = []
    for record, (task, algorithm) in zip(report.records, units):
        payload = record.result or {}
        correspondences = payload.get("correspondences", [])
        quality = None
        if task.gold is not None and record.result is not None:
            pairs = {(c["source"], c["target"]) for c in correspondences}
            quality = evaluate_against_gold(pairs, task.gold)
        rows.append(EvaluationRow(
            task=task.name,
            algorithm=algorithm,
            quality=quality,
            found=len(correspondences),
            tree_qom=payload.get("tree_qom", 0.0),
            elapsed_seconds=record.elapsed_seconds,
        ))
    return rows


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Minimal fixed-width ASCII table used by benchmarks and the CLI."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_quality_rows(rows: Iterable[EvaluationRow]) -> str:
    """Standard quality report: one line per (task, algorithm)."""
    return render_table(
        ["task", "algorithm", "precision", "recall", "overall", "found",
         "tree QoM", "seconds"],
        [
            (
                row.task, row.algorithm, row.precision, row.recall,
                row.overall, row.found, row.tree_qom, row.elapsed_seconds,
            )
            for row in rows
        ],
    )
