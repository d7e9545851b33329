"""The epoch-compiled campaign engine reproduces the scalar oracle exactly.

Golden equivalence against ``tests/vantage/scalar_campaign.py``: same
summary, same interner order, same columnar tables byte-for-byte, same
transfer observations — serial and sharded, with and without active
faults.  Plus a record-level cross-check of the engine's fast path
against the full-fidelity wire prober.
"""

import numpy as np
import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.util.timeutil import parse_ts

from tests.vantage.scalar_campaign import run_scalar_campaign
from tests.vantage.test_collector_merge import (
    assert_collectors_identical,
    tiny_config,
)


def fault_window_config() -> StudyConfig:
    """A campaign window where every fault class actually fires: stale
    d.root sites, bitflipped transfers and skewed VP clocks."""
    return StudyConfig(
        seed=2024,
        ring_scale=0.05,
        interval_scale=96.0,
        campaign_start=parse_ts("2023-09-20"),
        campaign_end=parse_ts("2023-10-26"),
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=50,
    )


@pytest.fixture(scope="module")
def scalar_collector():
    return run_scalar_campaign(tiny_config())


class TestGoldenEquivalence:
    def test_configs_default_to_epoch_engine(self):
        assert tiny_config().engine == "epoch"
        with pytest.raises(ValueError, match="engine must be 'epoch'"):
            tiny_config(engine="scalar")

    def test_serial_epoch_matches_scalar(self, scalar_collector):
        study = StudyPipeline(tiny_config()).run()
        assert_collectors_identical(study.collector, scalar_collector)

    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_epoch_matches_scalar(self, scalar_collector, shards):
        study = StudyPipeline(tiny_config().with_sharding(shards)).run()
        assert_collectors_identical(study.collector, scalar_collector)

    def test_epoch_matches_scalar_under_faults(self):
        config = fault_window_config()
        scalar = run_scalar_campaign(config)
        # The window must exercise the slow transfer path, or this proves
        # nothing: stale zones, bitflips and clock skew all present.
        faults = {o.fault for o in scalar.transfers}
        assert {"stale", "bitflip"} <= faults
        assert any(o.observed_ts != o.true_ts for o in scalar.transfers)

        epoch = StudyPipeline(config).run()
        assert_collectors_identical(epoch.collector, scalar)


class TestFastPathVsFullFidelity:
    """The engine's sampled fast path and the wire-level prober agree on
    what each recorded observation actually observed."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        pipeline = StudyPipeline(tiny_config())
        pipeline.run()
        return pipeline

    @pytest.fixture(scope="class")
    def study(self, pipeline):
        return pipeline.results()

    def _sites_by_key(self, study):
        return {
            site.key: site
            for letter in study.deployments
            for site in study.catalog.of_letter(letter)
        }

    def test_recorded_sites_match_chaos_identity(self, study, pipeline):
        collector = study.collector
        cols = collector.probe_columns()
        assert len(cols["vp"]) > 0
        round_of = {ts: i for i, ts in enumerate(study.schedule.instants())}
        vps_by_id = {vp.vp_id: vp for vp in study.vps}
        sites_by_key = self._sites_by_key(study)

        picks = np.linspace(0, len(cols["vp"]) - 1, 8).astype(int).tolist()
        picks.append(self._mid_excursion_row(study, pipeline, round_of))
        for i in picks:
            vp = vps_by_id[int(cols["vp"][i])]
            sa = collector.addresses[int(cols["addr"][i])]
            ts = int(cols["ts"][i])
            recorded_key = collector.sites.values[int(cols["site"][i])]

            responses = pipeline.platform.prober.probe_full_fidelity(vp, sa, round_of[ts], ts)
            answer = responses["CH TXT hostname.bind"].answers[0]
            wire_identity = b"".join(answer.rdata.strings).decode()
            assert wire_identity == sites_by_key[recorded_key].identity()

    @staticmethod
    def _mid_excursion_row(study, pipeline, round_of):
        """A probe row inside an excursion that began in an earlier round:
        its pair was on the same displaced site one round before."""
        collector = study.collector
        cols = collector.probe_columns()
        rows = zip(
            cols["vp"].tolist(), cols["addr"].tolist(), cols["ts"].tolist(),
            cols["site"].tolist(),
        )
        site_at = {}
        for i, (vp_id, addr, ts, site) in enumerate(rows):
            site_at[vp_id, addr, round_of[ts]] = (i, site)
        vps_by_id = {vp.vp_id: vp for vp in study.vps}
        for (vp_id, addr, round_no), (i, site) in site_at.items():
            before = site_at.get((vp_id, addr, round_no - 1))
            if before is None or before[1] != site:
                continue
            sa = collector.addresses[addr]
            best = pipeline.platform.selector.best(
                vps_by_id[vp_id].attachment, sa.letter, sa.family
            )
            if collector.sites.values[site] != best.site.key:
                return i
        raise AssertionError("no probe row inside a multi-round excursion")

    def test_recorded_transfers_match_served_serial(self, study, pipeline):
        """A clean fast-path transfer observation records the serial the
        site actually serves at that instant (checked over the wire)."""
        collector = study.collector
        cols = collector.probe_columns()
        round_of = {ts: i for i, ts in enumerate(study.schedule.instants())}
        vps_by_id = {vp.vp_id: vp for vp in study.vps}

        clean = [o for o in collector.transfers if o.fault == ""][:5]
        assert clean, "tiny campaign must keep some clean transfers"
        for obs in clean:
            vp = vps_by_id[obs.vp_id]
            responses = pipeline.platform.prober.probe_full_fidelity(
                vp, obs.address, round_of[obs.true_ts], obs.true_ts
            )
            zonemd = responses["ZONEMD ."].answers[0]
            assert zonemd.rdata.serial == obs.serial
            assert obs.observed_ts == obs.true_ts  # clean => no skew
            assert obs.zone.serial == obs.serial


class TestStreamedPlan:
    """Range invariance: the plan emits any ascending split of the
    campaign byte-identically to the single range ``[0, n_rounds)``,
    whose collector the scalar oracle pins."""

    @staticmethod
    def _collector(ranges, config=None, state=None):
        from repro.core.pipeline import build_platform, build_world
        from repro.vantage.collector import CampaignCollector
        from repro.vantage.epoch_engine import EpochCampaignPlan

        config = config or fault_window_config()
        world = build_world(config)
        platform = build_platform(config, world)
        collector = (
            CampaignCollector()
            if state is None
            else CampaignCollector.from_state(state)
        )
        plan = EpochCampaignPlan(
            platform.prober, platform.vps, platform.schedule, collector
        )
        if ranges is None:
            ranges = [(0, plan.n_rounds)]
        for lo, hi in ranges:
            plan.emit_range(lo, hi)
        return plan, collector

    def test_whole_range_matches_scalar(self):
        """One range over the whole campaign reproduces the scalar oracle."""
        config = fault_window_config()
        scalar = run_scalar_campaign(config)
        _, got = self._collector(None, config)
        assert_collectors_identical(got, scalar)

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunked_ranges_match_one_range(self, chunk):
        plan, want = self._collector(None)
        n = plan.n_rounds
        ranges = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
        _, got = self._collector(ranges)
        assert_collectors_identical(got, want)

    def test_streamed_mid_campaign_start_matches(self):
        """A resumed runner's first emit_range starts past round 0: a
        fresh plan over the aggregate state sealed at round k emits
        ``[k, n)`` exactly as the uninterrupted plan does."""
        plan, want = self._collector([])
        k, n = plan.n_rounds // 3, plan.n_rounds
        plan, want = self._collector([(0, k)])
        state = want.state()
        want.drain_rows()
        plan.emit_range(k, n)
        _, got = self._collector([(k, n)], state=state)
        assert_collectors_identical(got, want)

    def test_streamed_holds_no_epoch_lists_between_ranges(self):
        plan, _ = self._collector([(0, 4)])
        # Between ranges the epoch walk keeps only each pair's last
        # entered excursion (the one a boundary can split) besides the
        # raw trigger rounds — nothing like the full campaign's lists,
        # which on this window run to several epochs per pair.
        held = np.count_nonzero(plan.epochs._last_start >= 0)
        assert held <= 2 * plan.n_pairs

    def test_streamed_rejects_descending_ranges(self):
        plan, _ = self._collector([(0, 8)])
        with pytest.raises(ValueError, match="cannot rewind"):
            plan.emit_range(4, 12)


class TestPairBatchedPlan:
    """The pair-batched layout: block sizes never show in the output,
    and the candidate table is exactly the routes it was built from."""

    @pytest.mark.parametrize("budget", [1, 7])
    @pytest.mark.parametrize("shards", [1, 2])
    def test_cell_budget_invariance(self, monkeypatch, budget, shards):
        """Trigger-scan blocks and emit sub-ranges of 1 or 7 cells give
        the default run's collector exactly, on the fault window."""
        from repro.netsim import epochs

        config = fault_window_config().with_sharding(shards)
        want = StudyPipeline(config).run()
        monkeypatch.setattr(epochs, "CELL_BUDGET", budget)
        got = StudyPipeline(config).run()
        assert_collectors_identical(got.collector, want.collector)

    def test_candidate_table_is_exact(self):
        """Every table column equals its Route field exactly — geometry
        from the memoised scalar haversine, base RTT in the prober's
        operation order."""
        from repro.geo.coords import RTT_MS_PER_KM, haversine_km
        from repro.netsim.latency import PER_HOP_MS
        from repro.netsim.mix import mix64_prefix

        plan, _ = TestStreamedPlan._collector([], tiny_config())
        checked = 0
        for p in range(plan.n_pairs):
            vp = plan.vps[p // plan.n_addr]
            att = vp.attachment
            sa = plan.collector.addresses[p % plan.n_addr]
            assert plan.pair_closest[p] == min(
                haversine_km(att.city.location, s.city.location)
                for s in plan.prober.fabric.global_sites(sa.letter)
            )
            assert int(plan.pair_prefix[p]) == mix64_prefix(vp.vp_id, p % plan.n_addr)
            for i, route in enumerate(plan.pair_routes[p]):
                row = plan.cand_ptr[p] + i
                assert plan.site_keys[plan.c_site[row]] == route.site.key
                assert plan.hop_names[plan.c_hop[row]] == route.second_to_last_hop
                assert plan.identity_keys[plan.c_ident[row]] == (
                    sa.letter,
                    route.site.identity(),
                )
                assert plan.c_base[row] == route.path_km * RTT_MS_PER_KM + (
                    PER_HOP_MS * route.hop_count + vp.last_mile_ms + route.extra_ms
                )
                assert int(plan.c_skpfx[row]) == mix64_prefix(route.stable_key)
                assert plan.c_direct[row] == route.direct_km
                assert plan.c_direct[row] == haversine_km(
                    att.city.location, route.site.city.location
                )
                assert plan.c_peer[row] == (route.via != "transit")
                assert plan.c_transit[row] == (
                    0 if route.transit is None else route.transit.asn
                )
                if route.via != "transit":
                    assert route.path_km == haversine_km(
                        att.city.location, route.entry_city.location
                    )
                checked += 1
        assert checked == plan.cand_ptr[-1] > plan.n_pairs
