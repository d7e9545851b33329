"""Analysis-serving layer: cached query service over saved datasets.

The collect-once / analyse-many split of the paper, turned into a
long-running service: ``rootsim-serve`` hosts a catalog of saved dataset
and streaming-checkpoint directories, serves every registered analysis
and report figure group as canonical JSON, and fronts the computations
with a bounded single-flight LRU cache keyed on *(study fingerprint,
resource, watermark)*.  Live checkpoints stay servable while they grow:
a per-directory watcher observes sealed chunks and invalidates exactly
the affected cache lines.

The HTTP layer is a dependency-free HTTP/1.1 keep-alive loop on
``socketserver`` (:mod:`repro.serving.app`) wrapping the
framework-agnostic :class:`~repro.serving.service.AnalysisService`,
whose responses are byte-identical to ``rootsim-analyze DIR NAME --json``.
"""

from repro.serving.app import run_server, serve_main
from repro.serving.cache import CacheStats, ResultCache, ResultKey
from repro.serving.catalog import Catalog, CatalogEntry, discover
from repro.serving.service import AnalysisService, Response

__all__ = [
    "AnalysisService",
    "CacheStats",
    "Catalog",
    "CatalogEntry",
    "Response",
    "ResultCache",
    "ResultKey",
    "discover",
    "run_server",
    "serve_main",
]
