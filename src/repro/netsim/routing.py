"""Anycast route selection.

For a client attachment and a root service address, build the candidate
route set (peering routes via IXP memberships, country-scoped local
sites, transit routes via each upstream), rank it BGP-style (peering
beats transit — local preference; then upstream preference order; then
shortest path), and let the churn process pick the active candidate per
measurement round, as a pure function of (client, address, round).

Candidate sets are static per (attachment, letter, family) key and are
compiled as columns: :meth:`RouteSelector.table` ranks the candidates of
any number of keys together into one :class:`CandidateTable` in a fixed
number of array passes.

* **Route legs once.**  Each (key, upstream) transit leg is one row;
  exits are ranked once per (transit, entry PoP, letter) over every
  global site of the letter with array adds in the scalar addition
  order (haul + tail + diversity), keeping the two cheapest, ties to
  the smaller site key.
* **Scalar distances, array lookups.**  Distances come from a
  per-city-pair table filled by the scalar
  :func:`~repro.geo.coords.haversine_km` — a numpy haversine differs
  from it in the last bits, which would change every distance column.
* **Hashes as arrays.**  Stable keys are FNV-1a hashed over padded
  byte matrices of their pieces (:func:`~repro.netsim.mix.mix_str_pieces`:
  ``"{asn}|"``, ``"{site}|"``, ``"{tag}|{family}"``); peer-import and
  interconnection-diversity draws come from
  :func:`~repro.netsim.mix.mix_float_array`.
* **Ranking is one sort.**  Imported peer/local routes, then transit
  routes by upstream preference, then demoted peer routes, each by path
  length then site key: one ``lexsort``, then the first row per (key,
  site).

The epoch engine reads the table directly; :meth:`RouteSelector.
candidates` materialises one key's rows as :class:`Route` objects
(cached per key) for the per-request paths.  The per-route scalar
construction survives as the test oracle ``tests/netsim/
scalar_routes.py``, which every table row must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.geo.cities import CITY_CATALOG, City
from repro.geo.coords import haversine_km, nearest
from repro.netsim.attachment import Attachment
from repro.netsim.churn import ChurnModel
from repro.netsim.epochs import index_at
from repro.netsim.facilities import Facility
from repro.netsim.mix import (
    ByteTable,
    mix64_array,
    mix64_prefix,
    mix_float_array,
    mix_str_array,
    mix_str_pieces,
)
from repro.netsim.transit import TransitProvider
from repro.rss.sites import Site

if TYPE_CHECKING:
    from repro.netsim.topology import NetworkFabric

LETTERS = "abcdefghijklm"

#: Synthetic origin AS per letter (purely for AS-path rendering).
LETTER_ASN: Dict[str, int] = {letter: 64500 + i for i, letter in enumerate(LETTERS)}

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


#: ``CandidateTable.via`` codes; :data:`VIA` names them as ``Route.via``.
PEER, LOCAL, TRANSIT = 0, 1, 2
VIA = ("peer", "local", "transit")

#: The city catalog in a fixed order: city codes index it.
CITIES: List[City] = list(CITY_CATALOG.values())
_CITY_CODE: Dict[str, int] = {c.iata: i for i, c in enumerate(CITIES)}

#: One candidate set: (attachment, letter, family).
RouteKey = Tuple[Attachment, str, int]


def _i64(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)


def _concat(arrays: List[np.ndarray], dtype) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def _starts(counts) -> np.ndarray:
    """Offset of each segment in a flat array of segments of *counts*."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.cumsum(counts) - counts


def _segments(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(segment, rank within segment) of every element of a flat array
    of segments of *counts*."""
    owner = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    return owner, np.arange(len(owner), dtype=np.int64) - _starts(counts)[owner]


def _two_smallest(cost: np.ndarray, owner: np.ndarray, n_owners: int) -> np.ndarray:
    """Positions of each owner's two smallest costs, smallest first, in
    owner order (fewer for owners with fewer elements).  *owner* ascends
    and a tie goes to the earlier position, like a stable sort."""
    remaining = cost.copy()
    picks = []
    for _ in range(2):
        low = np.full(n_owners, np.inf)
        np.minimum.at(low, owner, remaining)
        hit = np.flatnonzero((remaining == low[owner]) & (remaining != np.inf))
        first = hit[np.r_[True, owner[hit][1:] != owner[hit][:-1]]] if len(hit) else hit
        remaining[first] = np.inf
        picks.append(first)
    both = np.concatenate(picks)
    rank = np.repeat([0, 1], [len(p) for p in picks])
    return both[np.argsort(owner[both] * 2 + rank)]


class CandidateTable(NamedTuple):
    """The ranked candidate routes of many keys, as flat columns.

    Key ``k``'s candidates, best first, are rows ``ptr[k]:ptr[k + 1]``
    (never empty).  ``site`` indexes :attr:`RouteSelector.sites`, which
    is sorted by site key, so site codes order like keys; ``entry``
    indexes :data:`CITIES`; ``via`` indexes :data:`VIA`; ``transit`` is
    the upstream's ASN (0 off transit).
    """

    selector: "RouteSelector"
    keys: Sequence[RouteKey]
    ptr: np.ndarray
    site: np.ndarray
    via: np.ndarray
    transit: np.ndarray
    entry: np.ndarray
    path_km: np.ndarray
    direct_km: np.ndarray
    hop_count: np.ndarray
    extra_ms: np.ndarray
    stable_key: np.ndarray

    def routes(self, k: int) -> List[Route]:
        """Key *k*'s candidates as :class:`Route` objects, best first."""
        att, letter, family = self.keys[k]
        rows = slice(int(self.ptr[k]), int(self.ptr[k + 1]))
        transits = {t.asn: t for t in att.transits(family)}
        origin = LETTER_ASN[letter]
        sites = self.selector.sites
        facility_of = self.selector.fabric.facility_of
        routes: List[Route] = []
        for code, via, asn, entry, path, direct, hops, extra, stable in zip(
            self.site[rows].tolist(),
            self.via[rows].tolist(),
            self.transit[rows].tolist(),
            self.entry[rows].tolist(),
            self.path_km[rows].tolist(),
            self.direct_km[rows].tolist(),
            self.hop_count[rows].tolist(),
            self.extra_ms[rows].tolist(),
            self.stable_key[rows].tolist(),
        ):
            site = sites[code]
            transit = transits[asn] if via == TRANSIT else None
            as_path = (att.asn, origin) if transit is None else (att.asn, asn, origin)
            routes.append(
                Route(
                    site=site,
                    facility=facility_of(site),
                    via=VIA[via],
                    transit=transit,
                    entry_city=CITIES[entry],
                    path_km=path,
                    direct_km=direct,
                    hop_count=hops,
                    as_path=as_path,
                    stable_key=stable,
                    extra_ms=extra,
                )
            )
        return routes


class RouteSelector:
    """Compiles, ranks, caches and churns candidate routes."""

    def __init__(self, fabric: "NetworkFabric", churn: ChurnModel) -> None:
        self.fabric = fabric
        self.churn = churn
        self._candidate_cache: Dict[Tuple[int, str, str, int], List[Route]] = {}
        #: Every catalog site sorted by key; site codes index this list.
        self.sites: List[Site] = sorted(fabric.catalog.sites, key=lambda s: s.key)
        self._site_code = {s.key: i for i, s in enumerate(self.sites)}
        self._site_city = _i64([_CITY_CODE[s.city.iata] for s in self.sites])
        self._facility_city = _i64(
            [_CITY_CODE[fabric.facility_of(s).city.iata] for s in self.sites]
        )
        self._site_hash = mix_str_array([s.key for s in self.sites])
        self._site_piece = ByteTable([f"{s.key}|" for s in self.sites])
        #: km from city code i to city code j; NaN until first asked.
        self._km = np.full((len(CITIES), len(CITIES)), np.nan)
        #: Announcement scopes: (at an exchange?, IXP id or country),
        #: numbered in order of first use.
        self._scopes: Dict[Tuple[bool, str], int] = {}
        self._scope_names: List[Tuple[bool, str]] = []
        self._scoped: Dict[Tuple[int, int], np.ndarray] = {}
        #: Every global site's code, grouped by letter (codes ascend, so
        #: each group is in key order); letter ``l``'s group is
        #: ``global_site[global_ptr[l]:global_ptr[l + 1]]``.
        self._global_site = _i64(
            [i for i, s in enumerate(self.sites) if s.is_global]
        )
        self._global_ptr = np.searchsorted(
            [LETTERS.index(self.sites[i].letter) for i in self._global_site],
            np.arange(len(LETTERS) + 1),
        )
        self._geometry: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    # -- shared geometry -----------------------------------------------------------

    def _distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Element-wise km from city codes *a* to *b*, read from the
        per-city-pair table; pairs never asked before are filled by the
        scalar ``haversine_km`` (kept on purpose — a numpy haversine
        differs from it in the last bits, which would change every
        distance column)."""
        km = self._km[a, b]
        missing = np.isnan(km)
        if missing.any():
            n = len(CITIES)
            for pair in set((a[missing] * n + b[missing]).tolist()):
                i, j = divmod(pair, n)
                self._km[i, j] = haversine_km(CITIES[i].location, CITIES[j].location)
            km = self._km[a, b]
        return km

    def _scope(self, at_ixp: bool, name: str) -> int:
        code = self._scopes.get((at_ixp, name))
        if code is None:
            code = self._scopes[(at_ixp, name)] = len(self._scope_names)
            self._scope_names.append((at_ixp, name))
        return code

    def _scoped_sites(self, scope: int, letter: int) -> np.ndarray:
        """Codes of the sites of letter code *letter* announced in
        *scope*: at an exchange, or country-scoped (ISP-hosted)."""
        sites = self._scoped.get((scope, letter))
        if sites is None:
            at_ixp, name = self._scope_names[scope]
            found = (
                self.fabric.sites_at_ixp(name, LETTERS[letter])
                if at_ixp
                else self.fabric.country_local_sites(name, LETTERS[letter])
            )
            sites = self._scoped[(scope, letter)] = _i64(
                [self._site_code[s.key] for s in found]
            )
        return sites

    def _transit_geometry(self, transit: TransitProvider, letters: Sequence[int]):
        """Per global site (in ``_global_site`` order): hub city code, tail
        km and diversity km — the exit-cost terms that do not depend on
        the entry PoP, the hub being *transit*'s PoP nearest the site.
        Filled for the letter codes in *letters* (one pass for all not
        yet filled); other letters' rows are unspecified."""
        geometry = self._geometry.get(transit.asn)
        if geometry is None:
            n = len(self._global_site)
            geometry = self._geometry[transit.asn] = (
                np.zeros(len(LETTERS), dtype=bool),
                np.zeros(n, dtype=np.int64),
                np.zeros(n, dtype=np.float64),
                np.zeros(n, dtype=np.float64),
            )
        filled, hub, tail, diversity = geometry
        todo = [letter for letter in letters if not filled[letter]]
        if todo:
            ptr = self._global_ptr
            rows = _concat([np.arange(ptr[i], ptr[i + 1]) for i in todo], np.int64)
            sites = self._global_site[rows]
            hubs = transit.nearest_pops([self.sites[s].city for s in sites.tolist()])
            hub[rows] = [_CITY_CODE[c.iata] for c in hubs]
            tail[rows] = self._distances(hub[rows], self._site_city[sites])
            # Interconnection diversity: each (provider, site) pair has
            # its own peering/backhaul cost, so different letters exit a
            # provider's backbone at different places rather than all
            # converging on one hub.
            diversity[rows] = 1600.0 * mix_float_array(
                mix64_prefix(transit.asn), self._site_hash[sites], 5
            )
            filled[todo] = True
        return hub, tail, diversity

    def closest_global_km(
        self, cities: Sequence[City], letters: Sequence[str]
    ) -> np.ndarray:
        """Element-wise distance from ``cities[i]`` to the nearest global
        site of ``letters[i]``: ``min`` of the scalar ``haversine_km``
        (:func:`~repro.geo.coords.nearest`)."""
        out = np.empty(len(cities), dtype=np.float64)
        rows: Dict[Tuple[str, str], List[int]] = {}
        for i, (origin, letter) in enumerate(zip(cities, letters)):
            rows.setdefault((letter, origin.iata), []).append(i)
        by_letter: Dict[str, List[str]] = {}
        for letter, iata in rows:
            by_letter.setdefault(letter, []).append(iata)
        for letter, origins in by_letter.items():
            targets = {s.city.iata: s.city for s in self.fabric.global_sites(letter)}
            _index, km = nearest(
                [CITY_CATALOG[iata].location for iata in origins],
                [c.location for c in targets.values()],
            )
            for iata, d in zip(origins, km):
                out[rows[(letter, iata)]] = d
        return out

    # -- candidate compilation -------------------------------------------------------

    def table(self, keys: Sequence[RouteKey]) -> CandidateTable:
        """The ranked candidate routes of every key in *keys*, compiled
        together in a fixed number of array passes."""
        n_keys = len(keys)
        # Keys that share an attachment and family share its announcement
        # scopes (exchanges, then country) and its upstream legs.
        group_of: Dict[Tuple[int, int], int] = {}
        key_group = _i64(
            [group_of.setdefault((id(att), fam), len(group_of)) for att, _, fam in keys]
        )
        key_letter = _i64([LETTERS.index(letter) for _, letter, _ in keys])
        key_asn = _i64([att.asn for att, _, _ in keys])
        key_city = _i64([_CITY_CODE[att.city.iata] for att, _, _ in keys])
        key_family = _i64([family for _, _, family in keys])
        scopes: List[int] = []
        n_scopes: List[int] = []
        legs: List[Tuple[int, int, int, float]] = []  # (pref, asn, entry, extra)
        n_legs: List[int] = []
        transits: Dict[int, TransitProvider] = {}
        group_first = np.unique(key_group, return_index=True)[1].tolist()
        for att, family in ((keys[k][0], keys[k][2]) for k in group_first):
            group_scopes = [self._scope(True, x) for x in att.ixp_memberships(family)]
            group_scopes.append(self._scope(False, att.city.country))
            scopes += group_scopes
            n_scopes.append(len(group_scopes))
            upstreams = att.transits(family)
            pref = {t.asn: i for i, t in enumerate(upstreams)}
            for t in upstreams:
                transits.setdefault(t.asn, t)
                entry = _CITY_CODE[t.nearest_pop(att.city).iata]
                legs.append((pref[t.asn], t.asn, entry, t.congestion_ms(family)))
            n_legs.append(len(upstreams))
        g_pref, g_asn, g_entry = (_i64([leg[i] for leg in legs]) for i in range(3))
        g_extra = np.array([leg[3] for leg in legs], dtype=np.float64)

        # Peer and local rows: every site of the key's letter in each of
        # its scopes.  Local routes are a direct adjacency (entry at the
        # site, never import-filtered); peer routes enter at the site's
        # facility and are imported with probability PEER_IMPORT_PROB.
        m_key, m_rank = _segments(_i64(n_scopes)[key_group])
        m_scope = _i64(scopes)[_starts(n_scopes)[key_group[m_key]] + m_rank]
        pairs, m_pair = np.unique(
            m_scope * len(LETTERS) + key_letter[m_key], return_inverse=True
        )
        found = [self._scoped_sites(*divmod(p, len(LETTERS))) for p in pairs.tolist()]
        sizes = _i64([len(sites) for sites in found])
        p_m, p_rank = _segments(sizes[m_pair])
        p_site = _concat(found, np.int64)[_starts(sizes)[m_pair[p_m]] + p_rank]
        p_key = m_key[p_m]
        at_ixp = np.array([ixp for ixp, _ in self._scope_names], dtype=bool)
        p_via = np.where(at_ixp[m_scope[p_m]], PEER, LOCAL)
        p_city = key_city[p_key]
        p_site_city = self._site_city[p_site]
        p_entry = np.where(p_via == PEER, self._facility_city[p_site], p_site_city)
        p_path = self._distances(p_city, p_entry)
        asn_state = mix64_array(mix64_prefix(), key_asn[p_key])
        draw = mix_float_array(
            mix64_array(asn_state, self._site_hash[p_site]), key_family[p_key], 3
        )
        p_class = np.where((p_via == LOCAL) | (draw < PEER_IMPORT_PROB), 0, 2)

        # Transit legs: one per (key, upstream).
        l_key, l_rank = _segments(_i64(n_legs)[key_group])
        leg = _starts(n_legs)[key_group[l_key]] + l_rank
        l_pref, l_asn, l_entry = g_pref[leg], g_asn[leg], g_entry[leg]
        l_extra = g_extra[leg]

        # Exits: the two cheapest global sites of the letter per (transit,
        # entry PoP, letter) by haul + tail + diversity, ties to the
        # smaller site key.
        used = list(transits)
        t_index = {asn: i for i, asn in enumerate(used)}
        l_transit = _i64([t_index[asn] for asn in l_asn.tolist()])
        n_city = len(CITIES)
        triples, l_tri = np.unique(
            (l_transit * n_city + l_entry) * len(LETTERS) + key_letter[l_key],
            return_inverse=True,
        )
        tri_rest, tri_letter = np.divmod(triples, len(LETTERS))
        tri_transit, tri_entry = np.divmod(tri_rest, n_city)
        geometry = [
            self._transit_geometry(
                transits[asn], sorted(set(tri_letter[tri_transit == i].tolist()))
            )
            for i, asn in enumerate(used)
        ]
        sizes = np.diff(self._global_ptr)[tri_letter]
        x_tri, x_rank = _segments(sizes)
        x_global = self._global_ptr[tri_letter][x_tri] + x_rank
        x_row = tri_transit[x_tri] * len(self._global_site) + x_global
        x_site = self._global_site[x_global]
        x_hub, x_tail, x_div = (
            _concat([g[i] for g in geometry], dtype)[x_row]
            for i, dtype in enumerate((np.int64, np.float64, np.float64))
        )
        x_haul = self._distances(tri_entry[x_tri], x_hub)
        x_cost = x_haul + x_tail + x_div
        exits = _two_smallest(x_cost, x_tri, len(triples))
        n_exits = np.minimum(sizes, 2)

        # Transit rows: each leg's exits, cheapest first.
        t_leg, t_rank = _segments(n_exits[l_tri])
        t_exit = exits[_starts(n_exits)[l_tri[t_leg]] + t_rank]
        t_key = l_key[t_leg]
        t_site = x_site[t_exit]
        access = self._distances(key_city[l_key], l_entry)
        t_path = access[t_leg] + x_cost[t_exit]

        # Rank: imported peer/local routes (class 0), transit routes by
        # upstream preference (1), demoted peer routes (2); each by path
        # length, then site key.  Keep each (key, site)'s best row.
        n_peer = len(p_key)
        key = np.concatenate([p_key, t_key])
        site = np.concatenate([p_site, t_site])
        path = np.concatenate([p_path, t_path])
        pref = np.concatenate([np.zeros(n_peer, np.int64), l_pref[t_leg]])
        rank_class = np.concatenate([p_class, np.ones(len(t_key), np.int64)])
        group = (key * 3 + rank_class) * (int(pref.max(initial=0)) + 1) + pref
        order = np.lexsort((site, path, group))
        _, first = np.unique(
            key[order] * len(self.sites) + site[order], return_index=True
        )
        rows = order[np.sort(first)]

        counts = np.bincount(key[rows], minlength=n_keys)
        if n_keys and not counts.all():
            att, letter, family = keys[int(np.argmin(counts))]
            raise RuntimeError(
                f"no route from AS{att.asn} to {letter}.root (family {family})"
            )
        ptr = np.zeros(n_keys + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])

        via = np.concatenate([p_via, np.full(len(t_key), TRANSIT, np.int64)])[rows]
        transit = np.concatenate([np.zeros(n_peer, np.int64), l_asn[t_leg]])[rows]
        key, site = key[rows], site[rows]
        # Stable keys hash f"{asn}|{site key}|{peer|local|as<transit>}|{family}",
        # assembled from three piece tables.
        asns, asn_piece = np.unique(key_asn[key], return_inverse=True)
        tags, tag_piece = np.unique(
            (transit * len(VIA) + via) * 8 + key_family[key], return_inverse=True
        )
        tag_names = []
        for code in tags.tolist():
            asn_via, family = divmod(code, 8)
            asn, v = divmod(asn_via, len(VIA))
            tag_names.append(f"{VIA[v] if v != TRANSIT else f'as{asn}'}|{family}")
        stable = mix_str_pieces(
            [
                (ByteTable([f"{asn}|" for asn in asns.tolist()]), asn_piece),
                (self._site_piece, site),
                (ByteTable(tag_names), tag_piece),
            ]
        )
        long_haul = x_haul[t_exit] > HAUL_HOP_THRESHOLD_KM
        return CandidateTable(
            selector=self,
            keys=keys,
            ptr=ptr,
            site=site,
            via=via,
            transit=transit,
            entry=np.concatenate([p_entry, l_entry[t_leg]])[rows],
            path_km=path[rows],
            direct_km=self._distances(key_city[key], self._site_city[site]),
            hop_count=np.concatenate(
                [np.full(n_peer, 4, np.int64), np.where(long_haul, 6, 5)]
            )[rows],
            extra_ms=np.concatenate([np.zeros(n_peer), l_extra[t_leg]])[rows],
            stable_key=stable,
        )

    def candidates(self, att: Attachment, letter: str, family: int) -> List[Route]:
        """Ranked candidate routes (best first) for one catchment decision."""
        cache_key = (att.asn, att.city.iata, letter, family)
        routes = self._candidate_cache.get(cache_key)
        if routes is None:
            routes = self._candidate_cache[cache_key] = self.table(
                [(att, letter, family)]
            ).routes(0)
        return routes

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
        """The route (client, address) uses in measurement *round_no*: a
        pure function of its arguments, whatever was asked before."""
        options = self.candidates(att, letter, family)
        index = index_at(
            self.churn, (client_id, address, letter, family), round_no, len(options)
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
