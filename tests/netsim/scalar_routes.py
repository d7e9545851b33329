"""The scalar route oracle: candidate routes built one ``Route`` at a time.

:class:`repro.netsim.routing.RouteSelector` compiles candidate sets as
columns (:class:`~repro.netsim.routing.CandidateTable`).  This module
states the same construction per route: peering and country-scoped
local routes per exchange membership, then for each upstream the two
cheapest backbone exits of the letter, ranked BGP-style and
deduplicated by site.  Every distance is the scalar ``haversine_km``,
every hash the scalar :func:`~repro.netsim.mix.mix_str` /
:func:`~repro.netsim.mix.mix_float`.  ``tests/netsim/test_route_table.py``
compares the two key by key, and the scalar campaign oracle
(``tests/vantage/scalar_campaign.py``) routes through it.  It is
test-only: no runtime code calls it.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from repro.geo.cities import City
from repro.geo.coords import haversine_km
from repro.netsim.attachment import Attachment
from repro.netsim.mix import mix_float, mix_str
from repro.netsim.routing import (
    HAUL_HOP_THRESHOLD_KM,
    LETTER_ASN,
    PEER_IMPORT_PROB,
    Route,
)
from repro.netsim.topology import NetworkFabric
from repro.netsim.transit import TransitProvider
from repro.rss.sites import Site


class ScalarRoutes:
    """Builds, ranks and caches candidate routes one route at a time."""

    def __init__(self, fabric: NetworkFabric) -> None:
        self.fabric = fabric
        self._candidate_cache: Dict[Tuple[int, str, str, int], List[Route]] = {}
        self._km_cache: Dict[Tuple[str, str], float] = {}
        self._closest_cache: Dict[Tuple[str, str], float] = {}
        self._transit_exit_cache: Dict[Tuple[int, str, str], List[Tuple[float, Site]]] = {}

    def distance_km(self, a: City, b: City) -> float:
        """``haversine_km`` between two cities, memoised per ordered pair."""
        key = (a.iata, b.iata)
        km = self._km_cache.get(key)
        if km is None:
            km = self._km_cache[key] = haversine_km(a.location, b.location)
        return km

    def closest_global_km(self, origin: City, letter: str) -> float:
        """Distance from *origin* to the nearest global site of *letter*."""
        key = (origin.iata, letter)
        if key not in self._closest_cache:
            self._closest_cache[key] = min(
                self.distance_km(origin, s.city)
                for s in self.fabric.global_sites(letter)
            )
        return self._closest_cache[key]

    def _peer_routes(self, att: Attachment, letter: str, family: int) -> List[Route]:
        routes: List[Route] = []
        for ixp_id in att.ixp_memberships(family):
            for site in self.fabric.sites_at_ixp(ixp_id, letter):
                facility = self.fabric.facility_of(site)
                entry = facility.city
                routes.append(
                    Route(
                        site=site,
                        facility=facility,
                        via="peer",
                        transit=None,
                        entry_city=entry,
                        path_km=self.distance_km(att.city, entry),
                        direct_km=self.distance_km(att.city, site.city),
                        hop_count=4,
                        as_path=(att.asn, LETTER_ASN[letter]),
                        stable_key=mix_str(f"{att.asn}|{site.key}|peer|{family}"),
                    )
                )
        for site in self.fabric.country_local_sites(att.city.country, letter):
            path_km = self.distance_km(att.city, site.city)
            routes.append(
                Route(
                    site=site,
                    facility=self.fabric.facility_of(site),
                    via="local",
                    transit=None,
                    entry_city=site.city,
                    path_km=path_km,
                    direct_km=path_km,
                    hop_count=4,
                    as_path=(att.asn, LETTER_ASN[letter]),
                    stable_key=mix_str(f"{att.asn}|{site.key}|local|{family}"),
                )
            )
        return routes

    def _transit_exits(
        self, transit: TransitProvider, entry: City, letter: str
    ) -> List[Tuple[float, Site]]:
        """The two global sites of *letter* with the lowest haul cost
        (entry -> hub nearest the site -> site, plus the provider/site
        interconnection diversity) from *entry* over *transit*."""
        key = (transit.asn, entry.iata, letter)
        if key not in self._transit_exit_cache:
            ranked: List[Tuple[float, Site]] = []
            for site in self.fabric.global_sites(letter):
                hub = transit.nearest_pop(site.city)
                haul = self.distance_km(entry, hub)
                tail = self.distance_km(hub, site.city)
                diversity = 1600.0 * mix_float(transit.asn, mix_str(site.key), 5)
                ranked.append((haul + tail + diversity, site))
            self._transit_exit_cache[key] = heapq.nsmallest(
                2, ranked, key=lambda pair: (pair[0], pair[1].key)
            )
        return self._transit_exit_cache[key]

    def _transit_routes(self, att: Attachment, letter: str, family: int) -> List[Route]:
        routes: List[Route] = []
        for transit in att.transits(family):
            entry = transit.nearest_pop(att.city)
            access_km = self.distance_km(att.city, entry)
            for haul_km, site in self._transit_exits(transit, entry, letter):
                hub = transit.nearest_pop(site.city)
                long_haul = self.distance_km(entry, hub) > HAUL_HOP_THRESHOLD_KM
                routes.append(
                    Route(
                        site=site,
                        facility=self.fabric.facility_of(site),
                        via="transit",
                        transit=transit,
                        entry_city=entry,
                        path_km=access_km + haul_km,
                        direct_km=self.distance_km(att.city, site.city),
                        hop_count=6 if long_haul else 5,
                        as_path=(att.asn, transit.asn, LETTER_ASN[letter]),
                        stable_key=mix_str(
                            f"{att.asn}|{site.key}|as{transit.asn}|{family}"
                        ),
                        extra_ms=transit.congestion_ms(family),
                    )
                )
        return routes

    def candidates(self, att: Attachment, letter: str, family: int) -> List[Route]:
        """Ranked candidate routes (best first): imported peer and local
        routes, then transit routes by upstream preference, then the
        peer routes the import draw demoted; first occurrence per site."""
        cache_key = (att.asn, att.city.iata, letter, family)
        if cache_key not in self._candidate_cache:
            peers = self._peer_routes(att, letter, family)
            peers.sort(key=lambda r: (r.path_km, r.site.key))
            imported: List[Route] = []
            demoted: List[Route] = []
            for r in peers:
                if (
                    r.via == "local"
                    or mix_float(att.asn, mix_str(r.site.key), family, 3)
                    < PEER_IMPORT_PROB
                ):
                    imported.append(r)
                else:
                    demoted.append(r)
            transits = self._transit_routes(att, letter, family)
            pref = {t.asn: i for i, t in enumerate(att.transits(family))}
            transits.sort(key=lambda r: (pref[r.transit.asn], r.path_km, r.site.key))
            merged = imported + transits + demoted
            if not merged:
                raise RuntimeError(
                    f"no route from AS{att.asn} to {letter}.root (family {family})"
                )
            seen = set()
            unique: List[Route] = []
            for route in merged:
                if route.site.key not in seen:
                    seen.add(route.site.key)
                    unique.append(route)
            self._candidate_cache[cache_key] = unique
        return self._candidate_cache[cache_key]
