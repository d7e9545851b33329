"""The assembled routing fabric.

Owns the facility inventory, assigns every root server site to a
facility (the co-location ground truth), scopes local sites (IXP-scoped
vs country-scoped), and hands out :class:`RouteSelector` instances.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netsim.churn import ChurnModel
from repro.netsim.facilities import Facility, build_facilities
from repro.netsim.routing import RouteSelector
from repro.rss.sites import Site, SiteCatalog
from repro.util.rng import RngFactory

#: Probability that a *global* site in an IXP city sits in the IXP
#: facility (vs a private PoP).  Exchanges are where the paper finds
#: co-location concentrating (§5) — but most global sites still live in
#: private PoPs, keeping average reduced redundancy near the paper's ~1.
GLOBAL_SITE_IXP_SHARE = 0.3

#: Same, for local sites announced at the exchange.
LOCAL_SITE_IXP_SHARE = 0.4


class NetworkFabric:
    """Facilities + site placement + local-site scoping + selectors."""

    def __init__(self, catalog: SiteCatalog, rng_factory: RngFactory) -> None:
        self.catalog = catalog
        self.facilities: Dict[str, Facility] = build_facilities()
        self._ixp_facility: Dict[str, Facility] = {}
        for facility in self.facilities.values():
            if facility.ixp is not None:
                self._ixp_facility[facility.ixp.ixp_id] = facility
        ixp_city_to_facility = {
            f.city.iata: f for f in self.facilities.values() if f.ixp is not None
        }

        rng = rng_factory.stream("fabric.site-assignment")
        self._site_facility: Dict[str, Facility] = {}
        self._ixp_letter_sites: Dict[Tuple[str, str], List[Site]] = {}
        self._country_local: Dict[Tuple[str, str], List[Site]] = {}
        self._global_sites: Dict[str, List[Site]] = {}

        for site in catalog.sites:
            ixp_facility = ixp_city_to_facility.get(site.city.iata)
            iata = site.city.iata.lower()
            private = self.facilities[f"{iata}-dc{rng.choice((1, 2, 3, 4, 5, 6))}"]
            # Housing (which facility, i.e. which edge router) is decided
            # separately from announcement scope: a site can be announced
            # at the local exchange while sitting in a private DC across
            # town (remote peering into the fabric).
            in_ixp_facility = (
                ixp_facility is not None
                and rng.random()
                < (GLOBAL_SITE_IXP_SHARE if site.is_global else LOCAL_SITE_IXP_SHARE)
            )
            facility = ixp_facility if in_ixp_facility else private
            if site.is_global:
                self._global_sites.setdefault(site.letter, []).append(site)
                if ixp_facility is not None:
                    # Global sites in exchange cities also announce there.
                    self._ixp_letter_sites.setdefault(
                        (ixp_facility.ixp.ixp_id, site.letter), []
                    ).append(site)
            else:
                if ixp_facility is not None:
                    # IXP-scoped local site: visible to exchange members.
                    self._ixp_letter_sites.setdefault(
                        (ixp_facility.ixp.ixp_id, site.letter), []
                    ).append(site)
                else:
                    # Country-scoped local site (ISP-hosted).
                    self._country_local.setdefault(
                        (site.city.country, site.letter), []
                    ).append(site)
            self._site_facility[site.key] = facility

        for sites in self._global_sites.values():
            sites.sort(key=lambda s: s.key)

    # -- lookups -------------------------------------------------------------------

    def facility_of(self, site: Site) -> Facility:
        """The facility hosting *site*."""
        return self._site_facility[site.key]

    def sites_at_ixp(self, ixp_id: str, letter: str) -> List[Site]:
        """Sites of *letter* present at exchange *ixp_id*."""
        return list(self._ixp_letter_sites.get((ixp_id, letter), []))

    def letters_at_ixp(self, ixp_id: str) -> List[str]:
        """Which letters are present at an exchange (co-location census)."""
        return sorted(
            {letter for (ixp, letter) in self._ixp_letter_sites if ixp == ixp_id}
        )

    def country_local_sites(self, country: str, letter: str) -> List[Site]:
        """Country-scoped local sites of *letter* visible in *country*."""
        return list(self._country_local.get((country, letter), []))

    def global_sites(self, letter: str) -> List[Site]:
        """All global sites of *letter* (every client can reach these)."""
        return list(self._global_sites.get(letter, []))

    def ixp_facility(self, ixp_id: str) -> Facility:
        """The facility carrying an exchange's fabric."""
        if ixp_id not in self._ixp_facility:
            raise KeyError(f"unknown IXP: {ixp_id!r}")
        return self._ixp_facility[ixp_id]

    # -- selectors -------------------------------------------------------------------

    def selector(self, seed: int, expected_rounds: int) -> RouteSelector:
        """A route selector with a fresh churn model."""
        return RouteSelector(self, ChurnModel(seed, expected_rounds))

    def colocation_census(self) -> Dict[str, int]:
        """facility_id -> number of distinct letters hosted (ground truth
        for the RQ1 analyses)."""
        count: Dict[str, set] = {}
        for site in self.catalog.sites:
            facility = self.facility_of(site)
            count.setdefault(facility.facility_id, set()).add(site.letter)
        return {fid: len(letters) for fid, letters in count.items()}
