"""The prober and the streaming collector, exercised on the mini study."""

import pytest

from repro.dns.constants import RRType, Rcode
from repro.rss.operators import all_service_addresses
from repro.util.timeutil import parse_ts
from repro.vantage.collector import CampaignCollector
from repro.vantage.probes import Prober
from tests.vantage.row_collector import RowRecorder


class TestCollector:
    def test_28_addresses_indexed(self):
        collector = CampaignCollector()
        assert len(collector.addresses) == 28
        for i, sa in enumerate(collector.addresses):
            assert collector.addr_index[sa.address] == i

    def test_note_site_counts_changes(self):
        recorder = RowRecorder()
        for site in ("a-001", "a-001", "a-002", "a-001"):
            recorder.note_site(1, 0, site)
        collector = recorder.flush()
        counts = collector.change_counts()
        assert counts[(1, 0)] == (2, 4)

    def test_identity_counting(self):
        recorder = RowRecorder()
        recorder.note_identity("k", "k001.fra-g.root-servers.org")
        recorder.note_identity("k", "k001.fra-g.root-servers.org")
        collector = recorder.flush()
        assert collector.identities["k"]["k001.fra-g.root-servers.org"] == 2

    def test_probe_columns_roundtrip(self):
        recorder = RowRecorder()
        recorder.add_probe_sample(3, 1000, 2, "c-001", 25.0, 500.0, 400.0, True)
        collector = recorder.flush()
        cols = collector.probe_columns()
        assert cols["vp"][0] == 3
        assert cols["rtt"][0] == pytest.approx(25.0)
        assert collector.sites.values[cols["site"][0]] == "c-001"
        # index 2 is b's second addr
        assert collector.addresses[cols["addr"][0]].letter == "b"

    def test_traceroute_missing_hop(self):
        recorder = RowRecorder()
        recorder.add_traceroute(1, 100, 0, None)
        recorder.add_traceroute(1, 200, 0, "edge.fra-ix")
        collector = recorder.flush()
        hops = collector.traceroute_columns()["hop"]
        assert hops[0] == -1  # the unanswered hop
        assert collector.hops.values[hops[1]] == "edge.fra-ix"


class TestCampaign:
    def test_summary_counts(self, mini_study):
        summary = mini_study.summary()
        assert summary["rounds"] > 0
        assert summary["probe_samples"] > 0
        assert summary["transfers"] > 0
        assert summary["queries"] > summary["transfers"]

    def test_every_address_probed(self, mini_study):
        counts = mini_study.collector.change_counts()
        addr_indices = {addr_idx for _vp, addr_idx in counts}
        assert addr_indices == set(range(28))

    def test_every_vp_participates(self, mini_study):
        counts = mini_study.collector.change_counts()
        vp_ids = {vp_id for vp_id, _addr in counts}
        assert vp_ids == {vp.vp_id for vp in mini_study.vps}

    def test_rounds_match_schedule(self, mini_study):
        assert (
            mini_study.collector.rounds_processed
            == mini_study.schedule.round_count()
        )

    def test_identities_for_all_letters(self, mini_study):
        assert set(mini_study.collector.identities) == set("abcdefghijklm")

    def test_transfer_observations_have_zones(self, mini_study):
        for obs in mini_study.collector.transfers[:10]:
            assert obs.zone.serial == obs.serial

    def test_bitflip_faults_recorded(self, mini_study):
        # The mini window (2023-11-20 .. 12-08) covers two scheduled flips.
        flips = [t for t in mini_study.collector.transfers if t.fault == "bitflip"]
        assert flips
        letters = {t.address.letter for t in flips}
        assert letters <= {"b", "g"}


#: hostname.bind answered to the mini study's first VP at rounds 0, 3,
#: 9 and 27, per service address, probed on a fresh route selector: the
#: sites its pairs use in those rounds of the campaign.
FIDELITY_IDENTITIES = {
    # an excursion in rounds 0-2, and one from round 27
    "2001:503:ba3e::2:30": [
        "nnn1-mxp.a.root-servers.org",
        "nnn1-man.a.root-servers.org",
        "nnn1-man.a.root-servers.org",
        "nnn1-mxp.a.root-servers.org",
    ],
    # an excursion in rounds 0-2, and one from round 26
    "199.7.91.13": [
        "d085.fra-g.root-servers.org",
        "d009.abj-l.root-servers.org",
        "d009.abj-l.root-servers.org",
        "d036.abj-l.root-servers.org",
    ],
    # excursions at round 3 and in rounds 7-9
    "193.0.14.129": [
        "k110.rec-g.root-servers.org",
        "k079.zrh-g.root-servers.org",
        "k086.bcn-g.root-servers.org",
        "k110.rec-g.root-servers.org",
    ],
}


class TestFullFidelity:
    def test_appendix_f_suite(self, mini_study, mini_pipeline):
        vp = mini_study.vps[0]
        sa = next(s for s in all_service_addresses() if s.letter == "k")
        responses = mini_pipeline.platform.prober.probe_full_fidelity(
            vp, sa, round_no=0, ts=parse_ts("2023-11-25T12:00:00")
        )
        # 7 base queries + 13 letters x 3 record types
        assert len(responses) == 7 + 39
        ns = responses["NS ."]
        assert ns.header.rcode == Rcode.NOERROR
        assert len(ns.answer_rrs(RRType.NS)) == 13
        identity = responses["CH TXT hostname.bind"].answers[0].rdata.single_text()
        assert "root-servers.org" in identity
        zonemd = responses["ZONEMD ."]
        assert zonemd.answer_rrs(RRType.ZONEMD)

    def test_glue_answers_match_publication_time(
        self, mini_study, mini_pipeline
    ):
        vp = mini_study.vps[0]
        sa = next(s for s in all_service_addresses() if s.letter == "a")
        before = mini_pipeline.platform.prober.probe_full_fidelity(
            vp, sa, 0, parse_ts("2023-11-25T12:00:00")
        )
        after = mini_pipeline.platform.prober.probe_full_fidelity(
            vp, sa, 1, parse_ts("2023-12-01T12:00:00")
        )
        b_name = "A b.root-servers.net."
        old = before[b_name].answer_rrs(RRType.A)[0].rdata.address
        new = after[b_name].answer_rrs(RRType.A)[0].rdata.address
        assert old == "199.9.14.201"
        assert new == "170.247.170.2"

    def test_identities_pinned_on_fresh_selector(self, mini_study, mini_pipeline):
        platform = mini_pipeline.platform
        selector = platform.selector.fabric.selector(
            platform.selector.churn.seed, platform.expected_rounds
        )
        shared = platform.prober
        prober = Prober(
            shared.fabric, selector, shared.deployments, shared.fault_plan
        )
        vp = mini_study.vps[0]
        ts = parse_ts("2023-11-25T12:00:00")
        got = {}
        for address in FIDELITY_IDENTITIES:
            sa = next(s for s in all_service_addresses() if s.address == address)
            got[address] = [
                prober.probe_full_fidelity(vp, sa, round_no, ts)[
                    "CH TXT hostname.bind"
                ].answers[0].rdata.single_text()
                for round_no in (0, 3, 9, 27)
            ]
        assert got == FIDELITY_IDENTITIES
