"""Framework-agnostic request handling for the analysis server.

:class:`AnalysisService` owns the catalog and the result cache and maps
``(method, path, query, headers)`` to a :class:`Response` — plain data
the keep-alive loop in :mod:`repro.serving.app` writes out.  Keeping the logic out of the HTTP layer is what lets the
tests drive every route without a socket.

Routes::

    GET  /healthz                          liveness probe
    GET  /catalog                          every hosted dataset, described
    GET  /stats                            cache and request counters + entry states
    GET  /datasets/{id}                    one entry, described
    GET  /datasets/{id}/analyses/{name}    canonical analysis JSON (cached)
    GET  /datasets/{id}/figures/{name}     canonical figure-group JSON (cached)
    POST /cache/clear                      drop every cached result

Caching contract:

* Every dataset-scoped response carries a strong ``ETag`` of
  ``"<fingerprint>:<watermark>"``; a repeat client sending
  ``If-None-Match`` gets a bodyless ``304`` without touching the cache.
* A ``?fingerprint=`` query pin is verified against the entry's current
  fingerprint and answered ``409`` on mismatch — the HTTP twin of
  ``rootsim-analyze --scenario`` refusing a dataset from a different
  study.
* Before serving from an entry, the watcher polls its directory; a
  watermark move invalidates exactly that study's stale cache lines and
  reloads the dataset, so a live checkpoint's partial results are
  re-served fresh as chunks seal.

Error statuses:

* ``404`` — no such route, dataset, analysis or figure group;
* ``409`` — a fingerprint pin mismatch, or a resource this dataset
  cannot produce (it lacks the tables or study inputs it needs);
* ``503`` — the dataset cannot be read (a
  :class:`~repro.data.schema.DatasetError` while loading or computing:
  a truncated column file, a torn checkpoint); never a stale body;
* ``500`` — anything else, with a fixed body; the traceback goes to the
  ``repro.serving.service`` logger.

``/stats`` counts 304 answers and error answers by exception type.
"""

from __future__ import annotations

import logging
import threading
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple

from repro.data.schema import DatasetError
from repro.serving.cache import ResultCache, ResultKey
from repro.serving.catalog import Catalog, CatalogEntry

__all__ = ["AnalysisService", "Response", "error_response"]

JSON_TYPE = "application/json; charset=utf-8"

_log = logging.getLogger(__name__)


class Unservable(Exception):
    """The resource exists, but this dataset cannot produce it (409)."""


@dataclass
class Response:
    """One HTTP response, as plain data."""

    status: int
    body: bytes = b""
    headers: Dict[str, str] = field(default_factory=dict)


def _json_response(status: int, body: bytes, **headers: str) -> Response:
    return Response(
        status=status,
        body=body,
        headers={"Content-Type": JSON_TYPE, **headers},
    )


def error_response(status: int, message: str) -> Response:
    """A canonical JSON ``{"error": message}`` answer: the body of every
    refusal, the HTTP layer's protocol errors included."""
    return _json_response(status, AnalysisService._error_body(message))


class AnalysisService:
    """The server's brain: catalog + cache + routing."""

    def __init__(
        self,
        catalog: Catalog,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.catalog = catalog
        self.cache = cache if cache is not None else ResultCache()
        self._refresh_locks: Dict[str, threading.Lock] = {
            entry_id: threading.Lock() for entry_id in catalog.ids()
        }
        self._counts_lock = threading.Lock()
        self._not_modified = 0
        self._errors: Counter = Counter()

    def _count_error(self, exc: BaseException) -> None:
        with self._counts_lock:
            self._errors[type(exc).__name__] += 1

    # -- helpers -----------------------------------------------------------------

    @staticmethod
    def _error_body(message: str, **extra: object) -> bytes:
        from repro.analysis.summaries import canonical_json_bytes

        return canonical_json_bytes({"error": message, **extra})

    def _refresh(self, entry: CatalogEntry) -> None:
        """Poll the entry's directory; on watermark movement drop that
        study's stale cache lines (other datasets are untouched)."""
        with self._refresh_locks[entry.id]:
            changed = entry.refresh()
        if changed is not None:
            self.cache.invalidate_fingerprint(
                changed.fingerprint, keep_watermark=changed.watermark
            )

    @staticmethod
    def _etag(entry: CatalogEntry) -> str:
        state = entry.state
        return f'"{state.fingerprint}:{state.watermark}"'

    def _gate(
        self,
        entry: CatalogEntry,
        query: Dict[str, str],
        headers: Dict[str, str],
    ) -> Optional[Response]:
        """The shared preconditions of every dataset-scoped route:
        ``?fingerprint=`` pin (409 on mismatch), then ``If-None-Match``
        (bodyless 304 on a current ETag).  ``None`` means proceed."""
        pinned = query.get("fingerprint")
        state = entry.state
        if pinned is not None and pinned != state.fingerprint:
            return _json_response(
                409,
                self._error_body(
                    f"fingerprint mismatch: dataset {entry.id!r} holds "
                    f"{state.fingerprint}, request pinned {pinned}",
                    expected=pinned,
                    actual=state.fingerprint,
                ),
            )
        etag = self._etag(entry)
        if headers.get("if-none-match") == etag:
            with self._counts_lock:
                self._not_modified += 1
            return Response(status=304, headers={"ETag": etag})
        return None

    # -- routing -----------------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Response:
        """Serve one request.  *headers* keys must be lower-cased by the
        caller; *query* holds single string values per parameter.  Never
        raises: failures are answered with the statuses the module
        docstring lists."""
        try:
            return self._route(method, path, query, headers)
        except Unservable as exc:
            self._count_error(exc)
            return _json_response(409, self._error_body(str(exc)))
        except DatasetError as exc:
            self._count_error(exc)
            return _json_response(
                503, self._error_body(str(exc), type=type(exc).__name__)
            )
        except Exception as exc:  # the server must outlive any request
            self._count_error(exc)
            _log.exception("unhandled error serving %s %s", method, path)
            return _json_response(500, self._error_body("internal server error"))

    def _route(
        self,
        method: str,
        path: str,
        query: Optional[Dict[str, str]],
        headers: Optional[Dict[str, str]],
    ) -> Response:
        query = query or {}
        headers = headers or {}
        parts = [part for part in path.split("/") if part]

        if method == "POST":
            if parts == ["cache", "clear"]:
                return self._handle_cache_clear()
            if self._route_exists(parts):
                return self._method_not_allowed(path)
            return self._not_found(path)
        if method != "GET":
            return self._method_not_allowed(path)

        if parts == ["healthz"]:
            return self._handle_healthz()
        if parts == ["catalog"]:
            return self._handle_catalog()
        if parts == ["stats"]:
            return self._handle_stats()
        if parts and parts[0] == "datasets" and 2 <= len(parts) <= 4:
            try:
                entry = self.catalog.entry(parts[1])
            except KeyError as exc:
                return _json_response(
                    404, self._error_body(str(exc), hosted=self.catalog.ids())
                )
            self._refresh(entry)
            if len(parts) == 2:
                return self._handle_describe(entry, query, headers)
            if len(parts) == 4 and parts[2] in ("analyses", "figures"):
                kind = "analysis" if parts[2] == "analyses" else "figure"
                return self._handle_resource(entry, kind, parts[3], query, headers)
        return self._not_found(path)

    @staticmethod
    def _route_exists(parts) -> bool:
        return bool(parts) and parts[0] in ("healthz", "catalog", "stats", "datasets")

    def _not_found(self, path: str) -> Response:
        return _json_response(
            404,
            self._error_body(
                f"no route for {path}",
                routes=[
                    "/healthz",
                    "/catalog",
                    "/stats",
                    "/datasets/{id}",
                    "/datasets/{id}/analyses/{name}",
                    "/datasets/{id}/figures/{name}",
                ],
            ),
        )

    def _method_not_allowed(self, path: str) -> Response:
        return _json_response(
            405, self._error_body(f"method not allowed on {path}")
        )

    # -- route bodies ------------------------------------------------------------

    def _handle_healthz(self) -> Response:
        from repro.analysis.summaries import canonical_json_bytes

        return _json_response(
            200,
            canonical_json_bytes(
                {"status": "ok", "datasets": len(self.catalog)}
            ),
        )

    def _handle_catalog(self) -> Response:
        from repro.analysis.summaries import canonical_json_bytes

        for entry in self.catalog.entries():
            self._refresh(entry)
        return _json_response(
            200,
            canonical_json_bytes(
                {"datasets": [e.describe() for e in self.catalog.entries()]}
            ),
        )

    def _handle_stats(self) -> Response:
        from repro.analysis.summaries import canonical_json_bytes

        entries = {}
        for entry in self.catalog.entries():
            state = entry.state
            entries[entry.id] = {
                "kind": state.kind,
                "fingerprint": state.fingerprint,
                "watermark": state.watermark,
            }
        with self._counts_lock:
            requests = {
                "not_modified": self._not_modified,
                "errors": dict(sorted(self._errors.items())),
            }
        return _json_response(
            200,
            canonical_json_bytes(
                {
                    "cache": self.cache.snapshot(),
                    "datasets": entries,
                    "requests": requests,
                }
            ),
        )

    def _handle_cache_clear(self) -> Response:
        from repro.analysis.summaries import canonical_json_bytes

        return _json_response(
            200, canonical_json_bytes({"cleared": self.cache.clear()})
        )

    def _handle_describe(
        self,
        entry: CatalogEntry,
        query: Dict[str, str],
        headers: Dict[str, str],
    ) -> Response:
        from repro.analysis.summaries import canonical_json_bytes

        gate = self._gate(entry, query, headers)
        if gate is not None:
            return gate
        return _json_response(
            200,
            canonical_json_bytes(entry.describe()),
            ETag=self._etag(entry),
        )

    def _handle_resource(
        self,
        entry: CatalogEntry,
        kind: str,
        name: str,
        query: Dict[str, str],
        headers: Dict[str, str],
    ) -> Response:
        gate = self._gate(entry, query, headers)
        if gate is not None:
            return gate
        known, compute = self._resource_compute(entry, kind, name)
        if not known:
            return _json_response(
                404,
                self._error_body(
                    f"unknown {kind} {name!r} for dataset {entry.id!r}",
                    available=(
                        entry.analyses() if kind == "analysis" else entry.figures()
                    ),
                ),
            )
        state = entry.state
        key = ResultKey(
            fingerprint=state.fingerprint,
            kind=kind,
            name=name,
            watermark=state.watermark,
        )
        body = self.cache.get_or_compute(key, compute)
        return _json_response(200, body, ETag=self._etag(entry))

    @cached_property
    def _analysis_names(self) -> FrozenSet[str]:
        """Every registered analysis name, read from the registry on the
        first analysis request (the import stays off server start-up)."""
        from repro.analysis import registry

        return frozenset(registry.names())

    def _resource_compute(
        self, entry: CatalogEntry, kind: str, name: str
    ) -> Tuple[bool, Optional[object]]:
        """Whether *name* is a known resource, and the thunk producing
        its canonical bytes (run under the cache's single-flight)."""
        if kind == "analysis":
            if name not in self._analysis_names:
                return False, None

            def analysis() -> bytes:
                from repro.analysis import registry
                from repro.analysis.summaries import analysis_json_bytes

                dataset = entry.dataset()
                missing = [
                    table for table in registry.tables_for(name)
                    if not dataset.has_table(table)
                ]
                if missing or name not in entry.analyses():
                    raise Unservable(
                        f"dataset {entry.id!r} cannot run analysis {name!r}: "
                        f"it lacks the tables or study inputs it needs"
                    )
                return analysis_json_bytes(dataset, name)

            return True, analysis
        from repro.analysis.summaries import canonical_json_bytes
        from repro.reportgen import (
            GROUP_ARTEFACTS,
            group_requirements_error,
            render_group,
        )

        if name not in GROUP_ARTEFACTS:
            return False, None

        def compute() -> bytes:
            dataset = entry.dataset()
            problem = group_requirements_error(name, dataset)
            if problem is not None:
                raise Unservable(problem)
            return canonical_json_bytes(
                {"figure": name, "contents": render_group(name, dataset)}
            )

        return True, compute
