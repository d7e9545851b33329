"""The analysis service over a real saved dataset.

Exercises the routing layer through ``AnalysisService.handle`` (no
socket needed — the stdlib server is a thin shim over it)
plus one socket-level pass through the stdlib server, and pins the
tentpole equivalence: served analysis bytes are exactly what
``rootsim-analyze DIR NAME --json`` prints.
"""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.serving import AnalysisService, Catalog, ResultCache, discover
from repro.serving.catalog import CatalogEntry


@pytest.fixture(scope="module")
def dataset_dir(mini_pipeline, tmp_path_factory):
    """The shared mini study saved with its passive tables."""
    return mini_pipeline.results().save(tmp_path_factory.mktemp("serve") / "mini")


@pytest.fixture(scope="module")
def service(dataset_dir):
    return AnalysisService(Catalog.from_paths([dataset_dir]))


class TestDiscovery:
    def test_direct_directory(self, dataset_dir):
        assert discover([dataset_dir]) == [dataset_dir]

    def test_parent_scan(self, dataset_dir):
        assert discover([dataset_dir.parent]) == [dataset_dir]

    def test_nothing_servable_raises(self, tmp_path):
        from repro.data import DatasetError

        with pytest.raises(DatasetError, match="nothing servable"):
            discover([tmp_path])

    def test_id_collision_suffixes(self, dataset_dir):
        catalog = Catalog([dataset_dir, dataset_dir, dataset_dir])
        assert catalog.ids() == ["mini", "mini-2", "mini-3"]


class TestRoutes:
    def test_healthz(self, service):
        response = service.handle("GET", "/healthz")
        assert response.status == 200
        assert json.loads(response.body) == {"status": "ok", "datasets": 1}

    def test_catalog_lists_resources(self, service):
        response = service.handle("GET", "/catalog")
        assert response.status == 200
        document = json.loads(response.body)
        (entry,) = document["datasets"]
        assert entry["id"] == "mini"
        assert entry["kind"] == "dataset"
        assert entry["fingerprint"].startswith("study:")
        assert entry["watermark"].startswith("final:")
        # all 13 registered analyses are servable: the passive three ride
        # on the dataset's saved passive tables
        from repro.analysis import registry
        from repro.analysis.summaries import PASSIVE_ANALYSES

        assert set(entry["analyses"]) == set(registry.names())
        assert set(PASSIVE_ANALYSES) <= set(entry["analyses"])
        assert entry["figures"]  # at least the core artefact groups

    def test_describe_matches_catalog(self, service):
        catalog_entry = json.loads(
            service.handle("GET", "/catalog").body
        )["datasets"][0]
        described = json.loads(service.handle("GET", "/datasets/mini").body)
        assert described == catalog_entry

    def test_unknown_dataset_404(self, service):
        response = service.handle("GET", "/datasets/nope")
        assert response.status == 404
        assert "mini" in json.loads(response.body)["hosted"]

    def test_unknown_analysis_404_lists_available(self, service):
        response = service.handle("GET", "/datasets/mini/analyses/nope")
        assert response.status == 404
        assert "coverage" in json.loads(response.body)["available"]

    def test_unknown_route_404(self, service):
        assert service.handle("GET", "/not/a/route").status == 404

    def test_post_only_on_cache_clear(self, service):
        assert service.handle("POST", "/catalog").status == 405
        assert service.handle("PUT", "/healthz").status == 405

    def test_stats_shape(self, service):
        document = json.loads(service.handle("GET", "/stats").body)
        assert "hits" in document["cache"]
        assert document["datasets"]["mini"]["kind"] == "dataset"

    def test_stats_count_304s_and_errors_by_type(self, dataset_dir, monkeypatch):
        service = AnalysisService(Catalog.from_paths([dataset_dir]))
        path = "/datasets/mini/analyses/stability"
        etag = service.handle("GET", path).headers["ETag"]
        for _ in range(3):
            assert service.handle(
                "GET", path, headers={"if-none-match": etag}
            ).status == 304

        def broken():
            raise RuntimeError("internal detail")

        monkeypatch.setattr(service, "_handle_catalog", broken)
        response = service.handle("GET", "/catalog")
        assert response.status == 500
        # a fixed body: the exception text stays in the server's log
        assert json.loads(response.body) == {"error": "internal server error"}
        document = json.loads(service.handle("GET", "/stats").body)
        assert document["requests"] == {
            "not_modified": 3,
            "errors": {"RuntimeError": 1},
        }

    def test_unrunnable_analysis_is_409(self, mini_study, tmp_path):
        """A dataset saved without its study fingerprint cannot rebuild
        the VP ring, so the RTT family is not servable from it."""
        from repro.data import Dataset, save_dataset

        directory = save_dataset(
            Dataset.from_collector(mini_study.collector), tmp_path / "bare"
        )
        service = AnalysisService(Catalog.from_paths([directory]))
        assert service.handle("GET", "/datasets/bare/analyses/stability").status == 200
        response = service.handle("GET", "/datasets/bare/analyses/rtt")
        assert response.status == 409
        assert "cannot run analysis 'rtt'" in json.loads(response.body)["error"]

    def test_cache_clear(self, service):
        service.handle("GET", "/datasets/mini/analyses/stability")
        assert len(service.cache) > 0
        response = service.handle("POST", "/cache/clear")
        assert response.status == 200
        assert len(service.cache) == 0


class TestConditionalRequests:
    def test_etag_roundtrip_304(self, service):
        first = service.handle("GET", "/datasets/mini/analyses/stability")
        assert first.status == 200
        etag = first.headers["ETag"]
        assert etag.startswith('"study:')
        again = service.handle(
            "GET", "/datasets/mini/analyses/stability",
            headers={"if-none-match": etag},
        )
        assert again.status == 304
        assert again.body == b""
        assert again.headers["ETag"] == etag

    def test_stale_etag_gets_full_body(self, service):
        response = service.handle(
            "GET", "/datasets/mini/analyses/stability",
            headers={"if-none-match": '"study:old:final:0:0"'},
        )
        assert response.status == 200
        assert response.body

    def test_fingerprint_pin_matches(self, service):
        fingerprint = service.catalog.entry("mini").state.fingerprint
        response = service.handle(
            "GET", "/datasets/mini/analyses/stability",
            query={"fingerprint": fingerprint},
        )
        assert response.status == 200

    def test_fingerprint_mismatch_409(self, service):
        response = service.handle(
            "GET", "/datasets/mini/analyses/stability",
            query={"fingerprint": "scenario:deadbeef"},
        )
        assert response.status == 409
        document = json.loads(response.body)
        assert document["expected"] == "scenario:deadbeef"
        assert document["actual"].startswith("study:")


class TestServedBytes:
    def test_analyses_byte_identical_to_cli_json(self, service, dataset_dir, capsys):
        """The tentpole gate, in-process: every registered analysis
        served over the service equals ``rootsim-analyze --json``."""
        from repro.cli import analyze_main

        analyses = json.loads(
            service.handle("GET", "/catalog").body
        )["datasets"][0]["analyses"]
        for name in analyses:
            served = service.handle(
                "GET", f"/datasets/mini/analyses/{name}"
            )
            assert served.status == 200, (name, served.body[:200])
            assert analyze_main([str(dataset_dir), name, "--json"]) == 0
            printed = capsys.readouterr().out.encode()
            assert printed == served.body + b"\n", name

    def test_repeat_requests_hit_the_cache(self, service):
        service.handle("POST", "/cache/clear")
        before = service.cache.stats.snapshot()
        for _ in range(3):
            service.handle("GET", "/datasets/mini/analyses/coverage")
        after = service.cache.stats.snapshot()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2

    def test_figure_document_shape(self, service):
        response = service.handle("GET", "/datasets/mini/figures/coverage")
        assert response.status == 200
        document = json.loads(response.body)
        assert document["figure"] == "coverage"
        assert set(document["contents"])  # artefact name -> rendered text

    def test_figures_match_reportgen(self, service, dataset_dir):
        from repro.data import load_dataset
        from repro.reportgen import render_group

        dataset = load_dataset(dataset_dir)
        figures = json.loads(
            service.handle("GET", "/catalog").body
        )["datasets"][0]["figures"]
        for name in figures:
            document = json.loads(
                service.handle("GET", f"/datasets/mini/figures/{name}").body
            )
            assert document["contents"] == render_group(name, dataset), name


class TestStdlibServer:
    def test_socket_roundtrip(self, service):
        import http.client

        from repro.serving import run_server

        server = run_server(service, port=0)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            conn.request("GET", "/datasets/mini/analyses/stability")
            response = conn.getresponse()
            body = response.read()
            assert response.status == 200
            etag = response.headers["ETag"]
            in_process = service.handle(
                "GET", "/datasets/mini/analyses/stability"
            )
            assert body == in_process.body
            # keep-alive: second request on the same connection, now 304
            conn.request(
                "GET", "/datasets/mini/analyses/stability",
                headers={"if-none-match": etag},
            )
            response = conn.getresponse()
            assert response.status == 304
            assert response.read() == b""
            conn.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_herd_on_cold_key_computes_once(self, dataset_dir):
        service = AnalysisService(
            Catalog.from_paths([dataset_dir]), cache=ResultCache()
        )
        results = []

        def request():
            results.append(
                service.handle("GET", "/datasets/mini/analyses/coverage")
            )

        threads = [threading.Thread(target=request) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        bodies = {response.body for response in results}
        assert len(bodies) == 1
        stats = service.cache.stats.snapshot()
        assert stats["misses"] == 1
        assert stats["coalesced"] + stats["hits"] == 5


class TestOptionalFastAPI:
    def test_stdlib_import_needs_no_extras(self):
        # the serving package must import (and serve) with no extras
        assert "repro.serving" in sys.modules
