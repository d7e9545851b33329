"""Route selection: candidates, ranking, local-site scoping, churn."""

import pytest

from repro.geo.cities import city
from repro.netsim.attachment import Attachment
from repro.netsim.churn import ChurnModel
from repro.netsim.epochs import index_at
from repro.netsim.routing import LETTER_ASN, RouteSelector
from repro.netsim.topology import NetworkFabric
from repro.netsim.transit import OPEN_V6_TRANSIT, SA_V4_TRANSIT, TRANSIT_CATALOG

from tests.netsim.epoch_oracle import ChurnOracle


@pytest.fixture(scope="module")
def fabric(site_catalog, rng_factory):
    return NetworkFabric(site_catalog, rng_factory.fork("netsim-tests"))


@pytest.fixture(scope="module")
def selector(fabric):
    return fabric.selector(seed=99, expected_rounds=1000)


def make_attachment(iata: str, asn: int = 65001, ixps=(), transits=None) -> Attachment:
    transits = transits or (TRANSIT_CATALOG[2],)
    return Attachment(
        asn=asn,
        city=city(iata),
        transits_v4=transits,
        transits_v6=transits,
        ixp_memberships_v4=tuple(ixps),
        ixp_memberships_v6=tuple(ixps),
    )


class TestCandidates:
    def test_every_letter_reachable(self, selector):
        att = make_attachment("GRU")
        for letter in "abcdefghijklm":
            for family in (4, 6):
                assert selector.candidates(att, letter, family)

    def test_candidates_cached(self, selector):
        att = make_attachment("FRA")
        assert selector.candidates(att, "k", 4) is selector.candidates(att, "k", 4)

    def test_candidates_unique_sites(self, selector):
        att = make_attachment("FRA", ixps=("decix-fra",))
        routes = selector.candidates(att, "f", 4)
        keys = [r.site.key for r in routes]
        assert len(keys) == len(set(keys))

    def test_transit_route_shape(self, selector):
        att = make_attachment("NBO")
        route = selector.best(att, "b", 4)
        assert route.via == "transit"
        assert route.as_path[0] == att.asn
        assert route.as_path[-1] == LETTER_ASN["b"]
        assert len(route.as_path) == 3
        assert route.path_km >= route.direct_km * 0.1

    def test_peer_route_two_hop_as_path(self, fabric, selector):
        att = make_attachment("FRA", ixps=("decix-fra",))
        for letter in "abcdefghijklm":
            routes = selector.candidates(att, letter, 4)
            peers = [r for r in routes if r.via == "peer"]
            if peers:
                assert all(len(r.as_path) == 2 for r in peers)
                return
        pytest.skip("no letter announced at decix-fra in this catalog draw")

    def test_local_sites_not_reachable_without_scope(self, fabric, selector):
        # A VP in a country with no d.root local sites and no IXP
        # membership must only reach global d sites.
        att = make_attachment("KEF", asn=65077)  # Iceland, no local d sites
        global_keys = {s.key for s in fabric.global_sites("d")}
        ixp_keys = set()
        for route in selector.candidates(att, "d", 4):
            assert route.site.key in global_keys | ixp_keys

    def test_country_local_site_preferred_at_home(self, fabric, selector):
        # Find a country hosting a country-scoped local site of d.root.
        for (country, letter), sites in fabric._country_local.items():
            if letter != "d":
                continue
            target = sites[0]
            att = make_attachment(target.city.iata, asn=65088)
            best = selector.best(att, "d", 4)
            assert best.via == "local"
            assert not best.site.is_global
            return
        pytest.skip("no country-scoped d.root local sites in this draw")


class TestFamilies:
    def test_family_specific_transits_change_routes(self, fabric):
        selector = fabric.selector(seed=5, expected_rounds=100)
        att = Attachment(
            asn=65002,
            city=city("GRU"),
            transits_v4=(SA_V4_TRANSIT,),
            transits_v6=(OPEN_V6_TRANSIT,),
        )
        r4 = selector.best(att, "i", 4)
        r6 = selector.best(att, "i", 6)
        # The open-v6 transit has no South American PoP: its entry point
        # is out of continent, unlike the SA carrier's.
        assert r4.entry_city.continent != r6.entry_city.continent

    def test_invalid_family_rejected(self, selector):
        att = make_attachment("FRA")
        with pytest.raises(ValueError):
            att.transits(5)


class TestChurn:
    def test_stable_without_flaps(self, fabric):
        churn = ChurnModel(seed=1, expected_rounds=10_000)
        selector = RouteSelector(fabric, churn)
        att = make_attachment("LHR", asn=65003)
        sites = {
            selector.select(att, 1, "b", 4, "199.9.14.201", rnd).site.key
            for rnd in range(50)
        }
        # 50 rounds of a 10k-round campaign: changes are rare.
        assert len(sites) <= 2

    def test_excursions_return_to_preferred(self, fabric):
        churn = ChurnModel(seed=1, expected_rounds=1000)
        selector = RouteSelector(fabric, churn)
        att = make_attachment("LHR", asn=65004)
        best = selector.best(att, "g", 6).site.key
        history = [
            selector.select(att, 2, "g", 6, "2001:500:12::d0d", rnd).site.key
            for rnd in range(1000)
        ]
        # The preferred route dominates.
        assert history.count(best) > len(history) * 0.6

    def test_displaced_fraction_small_at_reference_scale(self, fabric):
        churn = ChurnModel(seed=3, expected_rounds=8352)
        selector = RouteSelector(fabric, churn)
        att = make_attachment("AMS", asn=65005)
        best = selector.best(att, "g", 4).site.key
        displaced = sum(
            selector.select(att, 9, "g", 4, "192.112.36.4", rnd).site.key != best
            for rnd in range(8352)
        )
        assert displaced / 8352 < 0.1

    def test_excursion_probs_match_state_for(self):
        pairs = [
            (client, address, letter, family)
            for client in (1, 2, 99, 10**6)
            for address, letter, family in (
                ("199.9.14.201", "b", 4),
                ("2001:500:12::d0d", "g", 6),
                ("192.0.2.1", "z", 4),  # no target median: the default
            )
        ]
        churn = ChurnModel(seed=7, expected_rounds=500)
        got = churn.excursion_probs(pairs).tolist()
        oracle = ChurnOracle(ChurnModel(seed=7, expected_rounds=500))
        assert got == [oracle.state_for(*pair).excursion_prob for pair in pairs]

    def test_single_candidate_never_changes(self):
        churn = ChurnModel(seed=1, expected_rounds=100)
        for rnd in range(100):
            assert index_at(churn, (1, "addr", "b", 4), rnd, 1) == 0

    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError):
            ChurnModel(seed=1, expected_rounds=0)


class TestFailureExclusion:
    def test_excluding_best_facility_shifts_route(self, selector):
        att = make_attachment("FRA", asn=65010, ixps=("decix-fra",))
        baseline = selector.best(att, "k", 4)
        fallback = selector.best_excluding(
            att, "k", 4, frozenset({baseline.facility.facility_id})
        )
        assert fallback is not None
        assert fallback.facility.facility_id != baseline.facility.facility_id

    def test_excluding_nothing_is_identity(self, selector):
        att = make_attachment("FRA", asn=65011)
        assert selector.best_excluding(att, "k", 4, frozenset()) == selector.best(
            att, "k", 4
        )

    def test_all_letters_survive_single_facility_failure(self, fabric, selector):
        census = fabric.colocation_census()
        victim = frozenset({max(census, key=census.get)})
        att = make_attachment("AMS", asn=65012)
        for letter in "abcdefghijklm":
            assert selector.best_excluding(att, letter, 4, victim) is not None


class TestSecondToLastHop:
    def test_hop_is_facility_edge(self, fabric, selector):
        att = make_attachment("FRA", ixps=("decix-fra",))
        route = selector.best(att, "k", 4)
        assert route.second_to_last_hop == route.facility.edge_router
        assert route.second_to_last_hop.startswith("edge.")
