"""Anycast route selection.

For a client attachment and a root service address, build the candidate
route set (peering routes via IXP memberships, country-scoped local
sites, transit routes via each upstream), rank it BGP-style (peering
beats transit — local preference; then upstream preference order; then
shortest path), and let the churn model pick the active candidate per
measurement round.

Candidate sets are static per (attachment, letter, family) and heavily
cached; only the churn index varies over time.  This keeps the cost of a
simulated request at well under a microsecond after warm-up, which is
what makes multi-month campaigns with hundreds of vantage points
tractable.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.geo.cities import City
from repro.geo.coords import haversine_km
from repro.netsim.attachment import Attachment
from repro.netsim.churn import ChurnModel
from repro.netsim.facilities import Facility
from repro.netsim.mix import mix_float, mix_str
from repro.netsim.transit import TransitProvider
from repro.rss.sites import Site

if TYPE_CHECKING:
    from repro.netsim.topology import NetworkFabric

#: Synthetic origin AS per letter (purely for AS-path rendering).
LETTER_ASN: Dict[str, int] = {
    letter: 64500 + i for i, letter in enumerate("abcdefghijklm")
}

#: Haul legs longer than this add a visible backbone hop to traceroutes.
HAUL_HOP_THRESHOLD_KM = 2500.0

#: Probability an edge network actually imports-and-prefers a peer route
#: it hears at an exchange.  Real operators filter and de-preference
#: exchange routes selectively (paper §8 points at "the way operators
#: import routes" as a driver of the observed diversity); without this,
#: every member would reach every co-located letter over the same fabric
#: and reduced redundancy would saturate.
PEER_IMPORT_PROB = 0.45


@dataclass(frozen=True)
class Route:
    """One resolved path from a client to an anycast site."""

    site: Site
    facility: Facility
    via: str  # "peer" (exchange), "local" (direct/ISP-hosted) or "transit"
    transit: Optional[TransitProvider]
    entry_city: City
    path_km: float  # geographic length of the routed path (one way)
    direct_km: float  # great-circle client -> site distance
    hop_count: int
    as_path: Tuple[int, ...]
    stable_key: int  # deterministic per-route key for jitter hashing
    extra_ms: float = 0.0  # provider congestion on this path

    @property
    def second_to_last_hop(self) -> str:
        """The facility edge router — the RQ1 co-location signal."""
        return self.facility.edge_router


class RouteSelector:
    """Builds, ranks, caches and churns candidate routes."""

    def __init__(self, fabric: "NetworkFabric", churn: ChurnModel) -> None:
        self.fabric = fabric
        self.churn = churn
        self._candidate_cache: Dict[Tuple[int, str, str, int], List[Route]] = {}
        self._km_cache: Dict[Tuple[str, str], float] = {}
        self._site_hash_cache: Dict[str, int] = {}
        self._transit_exit_cache: Dict[Tuple[int, str, str], List[Tuple[float, Site]]] = {}
        # (asn, letter) -> per-site (site, hub, tail_km, diversity_km):
        # everything in the ranking that does not depend on the entry PoP.
        self._transit_geometry_cache: Dict[
            Tuple[int, str], List[Tuple[Site, City, float, float]]
        ] = {}

    # -- candidate construction ---------------------------------------------------

    def distance_km(self, a: City, b: City) -> float:
        """``haversine_km`` between two cities, memoised per ordered
        city pair: compiling a campaign's candidates asks for ~10x more
        distances than there are distinct pairs.  The scalar ``math``
        formula is kept on purpose — a numpy haversine differs from it
        in the last bits, which would change every distance column."""
        key = (a.iata, b.iata)
        km = self._km_cache.get(key)
        if km is None:
            km = self._km_cache[key] = haversine_km(a.location, b.location)
        return km

    def _site_hash(self, site_key: str) -> int:
        """``mix_str(site_key)``, memoised per site."""
        h = self._site_hash_cache.get(site_key)
        if h is None:
            h = self._site_hash_cache[site_key] = mix_str(site_key)
        return h

    def _peer_routes(self, att: Attachment, letter: str, family: int) -> List[Route]:
        routes: List[Route] = []
        for ixp_id in att.ixp_memberships(family):
            for site in self.fabric.sites_at_ixp(ixp_id, letter):
                facility = self.fabric.facility_of(site)
                entry = facility.city
                path_km = self.distance_km(att.city, entry)
                routes.append(
                    Route(
                        site=site,
                        facility=facility,
                        via="peer",
                        transit=None,
                        entry_city=entry,
                        path_km=path_km,
                        direct_km=self.distance_km(att.city, site.city),
                        hop_count=4,
                        as_path=(att.asn, LETTER_ASN[letter]),
                        stable_key=mix_str(f"{att.asn}|{site.key}|peer|{family}"),
                    )
                )
        # Country-scoped local sites (ISP-hosted, d.root style) are a
        # direct adjacency, not an exchange route — never import-filtered.
        for site in self.fabric.country_local_sites(att.city.country, letter):
            facility = self.fabric.facility_of(site)
            path_km = self.distance_km(att.city, site.city)
            routes.append(
                Route(
                    site=site,
                    facility=facility,
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
        """The two global sites of *letter* with the lowest haul cost from
        *entry* over *transit*'s backbone (hot-potato-ish: entry -> nearest
        hub to the site -> site): the best exit and one alternate."""
        key = (transit.asn, entry.iata, letter)
        if key not in self._transit_exit_cache:
            geom_key = (transit.asn, letter)
            geometry = self._transit_geometry_cache.get(geom_key)
            if geometry is None:
                geometry = []
                for site in self.fabric.global_sites(letter):
                    hub = transit.nearest_pop(site.city)
                    tail = self.distance_km(hub, site.city)
                    # Interconnection diversity: each (provider, site) pair
                    # has its own peering/backhaul cost, so different
                    # letters exit a provider's backbone at different
                    # places rather than all converging on one hub.
                    diversity = 1600.0 * mix_float(
                        transit.asn, self._site_hash(site.key), 5
                    )
                    geometry.append((site, hub, tail, diversity))
                self._transit_geometry_cache[geom_key] = geometry
            hauls: Dict[str, float] = {}
            ranked: List[Tuple[float, Site]] = []
            for site, hub, tail, diversity in geometry:
                haul = hauls.get(hub.iata)
                if haul is None:
                    haul = self.distance_km(entry, hub)
                    hauls[hub.iata] = haul
                ranked.append((haul + tail + diversity, site))
            # site.key is unique, so the order is total.
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
                facility = self.fabric.facility_of(site)
                hub = transit.nearest_pop(site.city)
                long_haul = self.distance_km(entry, hub) > HAUL_HOP_THRESHOLD_KM
                routes.append(
                    Route(
                        site=site,
                        facility=facility,
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
        """Ranked candidate routes (best first) for one catchment decision."""
        cache_key = (att.asn, att.city.iata, letter, family)
        if cache_key not in self._candidate_cache:
            peers = self._peer_routes(att, letter, family)
            peers.sort(key=lambda r: (r.path_km, r.site.key))
            imported: List[Route] = []
            demoted: List[Route] = []
            for r in peers:
                if (
                    r.via == "local"
                    or mix_float(att.asn, self._site_hash(r.site.key), family, 3)
                    < PEER_IMPORT_PROB
                ):
                    imported.append(r)
                else:
                    demoted.append(r)
            transits = self._transit_routes(att, letter, family)
            pref = {t.asn: i for i, t in enumerate(att.transits(family))}
            transits.sort(
                key=lambda r: (pref[r.transit.asn], r.path_km, r.site.key)
            )
            merged = imported + transits + demoted
            if not merged:
                raise RuntimeError(
                    f"no route from AS{att.asn} to {letter}.root (family {family})"
                )
            # Deduplicate by site, keeping the best-ranked occurrence.
            seen = set()
            unique: List[Route] = []
            for route in merged:
                if route.site.key not in seen:
                    seen.add(route.site.key)
                    unique.append(route)
            self._candidate_cache[cache_key] = unique
        return self._candidate_cache[cache_key]

    # -- per-round selection -------------------------------------------------------

    def select(
        self,
        att: Attachment,
        client_id: int,
        letter: str,
        family: int,
        address: str,
        round_no: int,
    ) -> Route:
        """The route (client, address) uses in measurement *round_no*."""
        options = self.candidates(att, letter, family)
        index = self.churn.select_index(
            client_id, address, letter, family, round_no, len(options)
        )
        return options[index]

    def best(self, att: Attachment, letter: str, family: int) -> Route:
        """The steady-state (no-churn) route."""
        return self.candidates(att, letter, family)[0]

    def best_excluding(
        self,
        att: Attachment,
        letter: str,
        family: int,
        failed_facilities: frozenset,
    ) -> Optional[Route]:
        """The best route avoiding sites in failed facilities.

        Models the §5 failure scenario: when a facility goes dark, its
        anycast announcements are withdrawn and traffic instantaneously
        shifts to the next-best catchment.  Returns None when no route
        survives (never happens for letters with >1 facility).
        """
        for route in self.candidates(att, letter, family):
            if route.facility.facility_id not in failed_facilities:
                return route
        return None
