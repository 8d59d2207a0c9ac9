"""Batch match service: run many match jobs concurrently and durably.

The paper presents QMatch as a single-pair algorithm; real schema
integration (De Meo et al., arXiv:0911.3600) is a many-pairs batch
process over a corpus.  This subpackage is the serving layer on top of
:mod:`repro.engine`:

- :mod:`repro.service.jobs` -- the :class:`MatchJobSpec` /
  :class:`JobRecord` / :class:`JobQueue` model with explicit job
  states, optionally bounded with oldest-terminal eviction;
- :mod:`repro.service.store` -- a content-addressed
  :class:`ResultStore` keyed by (schema hashes, config fingerprint);
- :mod:`repro.service.manifest` -- the ``qmatch batch`` manifest format;
- :mod:`repro.service.runner` -- :func:`execute_job`, the one job
  body, and :class:`BatchRunner`, the per-job state machine (cache,
  retry, structured errors) running jobs in-process;
- :mod:`repro.service.pool` -- :class:`WorkerPool`, the runner on
  persistent pre-warmed worker processes (deadlines, crash respawn,
  resident thesaurus, parsed-tree cache and corpus searcher) behind
  ``qmatch serve`` and ``qmatch batch``;
- :mod:`repro.service.http_api` -- the HTTP JSON router (routes,
  admission control, body limits, metrics);
- :mod:`repro.service.server` -- :class:`MatchService`, the queue +
  backend + store the router serves; :mod:`repro.service.aserver` --
  the asyncio HTTP front end with graceful drain;
- :mod:`repro.service.validation` -- input validation shared by the CLI
  flags, the manifest parser and the HTTP API.
"""

from repro.service.jobs import JobQueue, JobRecord, JobState, MatchJobSpec
from repro.service.manifest import load_manifest
from repro.service.pool import PoolError, WorkerPool
from repro.service.runner import BatchReport, BatchRunner, execute_job
from repro.service.server import MatchService
from repro.service.store import ResultStore, content_hash, schema_content_hash
from repro.service.validation import (
    ValidationError,
    validate_algorithm,
    validate_threshold,
    validate_weights,
)

__all__ = [
    "BatchReport",
    "BatchRunner",
    "JobQueue",
    "JobRecord",
    "JobState",
    "MatchJobSpec",
    "MatchService",
    "PoolError",
    "ResultStore",
    "ValidationError",
    "WorkerPool",
    "content_hash",
    "execute_job",
    "load_manifest",
    "schema_content_hash",
    "validate_algorithm",
    "validate_threshold",
    "validate_weights",
]
