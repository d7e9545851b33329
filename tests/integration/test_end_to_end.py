"""Cross-module integration: the full pipeline from zone bytes to paper
headline statistics."""

import pytest

from repro.analysis import TrafficShiftAnalysis, ClientBehaviorAnalysis
from repro.dns.constants import RRType
from repro.dns.message import Message
from repro.dns.name import ROOT_NAME
from repro.dnssec.validate import validate_zone
from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.isp import IspCapture
from repro.rss.operators import B_ROOT_CHANGE_TS, root_server
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, parse_ts
from repro.zone.transfer import AxfrClient, AxfrServer
from repro.zone.zonefile import parse_zone_text, render_zone_text


class TestZonePipeline:
    """Zone built -> distributed -> transferred -> serialised -> validated."""

    def test_axfr_then_file_roundtrip_revalidates(self, mini_study):
        ts = parse_ts("2023-12-01T12:00:00")
        deployment = mini_study.deployments["k"]
        site = deployment.sites[0]
        result = deployment.serve_axfr(site.key, ts)
        text = render_zone_text(result.zone)
        reparsed = parse_zone_text(text)
        report = validate_zone(reparsed.records, ROOT_NAME, now=ts)
        assert report.valid

    def test_all_letters_serve_same_serial(self, mini_study):
        ts = parse_ts("2023-12-01T12:00:00")
        serials = set()
        for letter, deployment in mini_study.deployments.items():
            result = deployment.serve_axfr(deployment.sites[0].key, ts)
            serials.add(result.serial)
        assert len(serials) == 1  # same publication everywhere (no faults)

    def test_wire_level_axfr_stream(self, validatable_zone):
        server = AxfrServer(validatable_zone)
        query = Message.make_query(ROOT_NAME, RRType.AXFR)
        # Push every envelope through the wire codec.
        total = 0
        for msg in server.stream(query):
            reparsed = Message.from_wire(msg.to_wire())
            total += len(reparsed.answers)
        assert total == len(validatable_zone) + 1


class TestPassivePipeline:
    """Clients -> capture -> traffic-shift analysis -> headline ratios."""

    @pytest.fixture(scope="class")
    def shift(self):
        clients = build_client_population(ISP_PROFILE, RngFactory(2024))
        isp = IspCapture(clients, seed=2024)
        aggregate = isp.capture(
            parse_ts("2024-02-05"), parse_ts("2024-02-19")
        )
        return TrafficShiftAnalysis(aggregate), aggregate

    def test_shift_ratio_shape(self, shift):
        analysis, _agg = shift
        ratios = analysis.shift_ratios(parse_ts("2024-02-05"), parse_ts("2024-02-19"))
        # Paper §6: 87.1% v4 / 96.3% v6 — v6 more eager, both high.
        assert ratios.v6_shifted > ratios.v4_shifted
        assert ratios.v4_shifted > 0.7
        assert ratios.v6_shifted > 0.9

    def test_letter_shares_sum_to_one(self, shift):
        analysis, _agg = shift
        shares = analysis.letter_shares(parse_ts("2024-02-05"), parse_ts("2024-02-19"))
        assert sum(shares.values()) == pytest.approx(1.0)
        assert 0.02 < shares["b"] < 0.10  # paper: ~4.5-4.9%

    @pytest.mark.parametrize(
        "window",
        [
            ("2024-02-05", "2024-02-19"),
            ("2024-02-05", "2024-02-08"),
            ("2024-02-12T06:00:00", "2024-02-13"),
            ("2024-03-01", "2024-03-02"),  # past the capture: all zero
        ],
    )
    def test_letter_shares_equal_per_address_window_shares(self, shift, window):
        """letter_shares sums each address's window once, yet every value
        is exactly (==, not approx) what the per-address loop gives, so
        Figure 12/13 bytes cannot move."""
        analysis, aggregate = shift
        start, end = (parse_ts(t) for t in window)
        series = analysis.series
        everything = [sa.address for sa in analysis.addresses]

        def reference_share(address, subset):
            # the per-address loop: re-sum the whole subset per call
            buckets = aggregate.buckets_array()
            mask = (buckets >= start) & (buckets < end)
            total = mine = 0.0
            for addr in subset:
                window_sum = float(aggregate.flows_by_bucket(addr)[mask].sum())
                total += window_sum
                if addr == address:
                    mine = window_sum
            return mine / total if total > 0 else 0.0

        want = {}
        for sa in analysis.addresses:
            share = reference_share(sa.address, everything)
            assert series.window_share(sa.address, start, end, everything) == share
            want[sa.letter] = want.get(sa.letter, 0.0) + share
        got = analysis.letter_shares(start, end)
        assert got == want
        assert list(got) == list(want)
        subset = list(analysis.b_addresses.values())
        assert series.window_shares(start, end, subset) == {
            address: reference_share(address, subset) for address in subset
        }

    def test_priming_signal(self, shift):
        _analysis, aggregate = shift
        behavior = ClientBehaviorAnalysis(aggregate)
        signal = behavior.priming_signal()
        # Old IPv6 subnet: many clients touch it only ~once a day.
        assert signal["V6old"] > signal["V6new"]

    def test_broot_series_families(self, shift):
        analysis, _agg = shift
        v6_only = analysis.broot_series(families=(6,))
        assert set(v6_only) == {"V6new", "V6old"}
        both = analysis.broot_series()
        assert set(both) == {"V4new", "V4old", "V6new", "V6old"}


class TestActivePassiveConsistency:
    def test_change_date_consistency(self, mini_study):
        """The zone glue flip and the passive adoption both anchor at the
        same renumbering instant."""
        before = mini_study.distributor.zone_for_publication(
            *mini_study.distributor.latest_publication(B_ROOT_CHANGE_TS - DAY)
        )
        after = mini_study.distributor.zone_for_publication(
            *mini_study.distributor.latest_publication(B_ROOT_CHANGE_TS + DAY)
        )
        from repro.dns.name import Name

        b_name = Name.from_text("b.root-servers.net.")
        b = root_server("b")
        assert before.find_rrset(b_name, RRType.A).records[0].rdata.address == b.old_ipv4
        assert after.find_rrset(b_name, RRType.A).records[0].rdata.address == b.ipv4
