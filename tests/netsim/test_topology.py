"""Fabric construction: facilities, site placement, scoping, census."""

import pytest

from repro.geo.cities import CITY_CATALOG, HUB_CITIES
from repro.netsim.facilities import IXP_CATALOG, PASSIVE_IXP_IDS, build_facilities, ixp_by_id
from repro.netsim.topology import NetworkFabric
from repro.geo.continents import Continent


@pytest.fixture(scope="module")
def fabric(site_catalog, rng_factory):
    return NetworkFabric(site_catalog, rng_factory.fork("topology-tests"))


class TestFacilities:
    def test_one_ix_facility_per_ixp(self):
        facilities = build_facilities()
        ix = [f for f in facilities.values() if f.ixp is not None]
        assert len(ix) == len(IXP_CATALOG)

    def test_private_facilities_per_city(self):
        facilities = build_facilities()
        dcs = [f for f in facilities.values() if f.ixp is None]
        assert len(dcs) == 6 * len(CITY_CATALOG)

    def test_edge_router_identifier(self):
        facilities = build_facilities()
        any_f = next(iter(facilities.values()))
        assert any_f.edge_router == f"edge.{any_f.facility_id}"

    def test_ixp_lookup(self):
        assert ixp_by_id("decix-fra").city.iata == "FRA"
        with pytest.raises(KeyError):
            ixp_by_id("nope")

    def test_ixp_cities_are_hubs(self):
        for ixp in IXP_CATALOG:
            assert ixp.city.iata in HUB_CITIES, ixp.ixp_id

    def test_passive_ixps_eu_na_only(self):
        for ixp_id in PASSIVE_IXP_IDS:
            continent = ixp_by_id(ixp_id).continent
            assert continent in (Continent.EUROPE, Continent.NORTH_AMERICA)
        assert len(PASSIVE_IXP_IDS) == 14  # the paper's 14 IXPs


class TestSitePlacement:
    def test_every_site_has_facility(self, fabric, site_catalog):
        for site in site_catalog.sites:
            facility = fabric.facility_of(site)
            assert facility.city.iata == site.city.iata

    def test_global_sites_registry(self, fabric, site_catalog):
        for letter in "abcdefghijklm":
            expected = [s for s in site_catalog.of_letter(letter) if s.is_global]
            assert len(fabric.global_sites(letter)) == len(expected)

    def test_local_sites_not_in_global_registry(self, fabric, site_catalog):
        global_keys = {
            s.key for letter in "abcdefghijklm" for s in fabric.global_sites(letter)
        }
        for site in site_catalog.sites:
            if not site.is_global:
                assert site.key not in global_keys

    def test_country_scoped_sites_outside_ixp_cities(self, fabric):
        ixp_cities = {ixp.city.iata for ixp in IXP_CATALOG}
        for (country, _letter), sites in fabric._country_local.items():
            for site in sites:
                assert site.city.iata not in ixp_cities
                assert site.city.country == country

    def test_colocation_concentrates_at_exchanges(self, fabric):
        census = fabric.colocation_census()
        ix_counts = [
            n for fid, n in census.items() if fabric.facilities[fid].ixp is not None
        ]
        dc_counts = [
            n for fid, n in census.items() if fabric.facilities[fid].ixp is None
        ]
        assert max(ix_counts) > max(dc_counts)

    def test_letters_at_big_exchange(self, fabric):
        # The major exchanges host several letters (the paper's RQ1 core).
        assert len(fabric.letters_at_ixp("decix-fra")) >= 3
