"""Integration: save → reload → identical analysis results, and the
resolver stack running against a study's world."""

import pytest

from repro.analysis.stability import StabilityAnalysis
from repro.data import Dataset, load_dataset, save_dataset
from repro.dns.constants import RRType
from repro.dns.name import Name
from repro.resolver import RootNetworkClient, SimResolver
from repro.resolver.hints import fresh_hints
from repro.util.timeutil import parse_ts


class TestExportedAnalysisEquivalence:
    def test_stability_identical_after_reload(self, mini_study, tmp_path):
        save_dataset(
            Dataset.from_collector(mini_study.collector), str(tmp_path / "ds")
        )
        loaded = load_dataset(str(tmp_path / "ds"))
        live = StabilityAnalysis(mini_study.collector)
        reloaded = StabilityAnalysis(loaded)
        for letter in ("b", "g"):
            live_series = {
                s.label: s.changes_per_vp for s in live.series_for(letter)
            }
            reloaded_series = {
                s.label: s.changes_per_vp for s in reloaded.series_for(letter)
            }
            assert live_series == reloaded_series


class TestResolverOnStudyWorld:
    def test_resolver_reuses_study_infrastructure(self, mini_study, mini_pipeline):
        vp = mini_study.vps[0]
        client = RootNetworkClient(
            vp.attachment,
            mini_pipeline.platform.selector,
            mini_study.deployments,
            client_id=9999,
            last_mile_ms=vp.last_mile_ms,
        )
        resolver = SimResolver(client, fresh_hints())
        now = parse_ts("2023-12-01T12:00:00")
        result = resolver.resolve(Name.from_text("world."), RRType.NS, now)
        assert result.answers
        assert len(resolver.known_root_addresses()) == 13

    def test_resolver_referral_matches_zone_delegation(
        self, mini_study, mini_pipeline
    ):
        vp = mini_study.vps[1]
        client = RootNetworkClient(
            vp.attachment,
            mini_pipeline.platform.selector,
            mini_study.deployments,
            9998,
        )
        resolver = SimResolver(client, fresh_hints())
        now = parse_ts("2023-12-01T12:00:00")
        result = resolver.resolve(
            Name.from_text("shop.example.ruhr."), RRType.A, now
        )
        assert result.is_referral
        targets = {t.to_text() for t in result.referral}
        assert targets == {"ns1.nic.ruhr.", "ns2.nic.ruhr."}
