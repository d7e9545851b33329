"""Zone distribution: from signing to the serving sites.

The root zone is published (new serial) twice a day; every root server
site then pulls the new copy with a small per-site propagation lag.  The
paper's Table 2 found two d.root sites (Tokyo, Leeds) serving a zone with
an *expired signature* — i.e. a stale local copy — so staleness is a
first-class concept here: a site can be frozen at an old publication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.util.timeutil import DAY, HOUR, Timestamp
from repro.zone.zone import Zone

if TYPE_CHECKING:  # avoid a runtime cycle: rootzone -> rss -> distribution
    from repro.zone.ixfr import IxfrJournal
    from repro.zone.rootzone import RootZoneBuilder

#: Daily publication times (seconds into the UTC day): the real root zone
#: is typically regenerated twice per day.
PUBLICATION_OFFSETS = (4 * HOUR, 16 * HOUR)


@dataclass(frozen=True)
class SitePublication:
    """Which publication a site serves at a point in time."""

    publication_ts: Timestamp
    edition: int
    stale: bool


class ZoneDistributor:
    """Publication schedule plus per-site propagation and staleness.

    Zone copies are built lazily and cached by publication instant, so the
    tens of millions of simulated transfers share a few hundred objects.
    """

    def __init__(
        self,
        builder: "RootZoneBuilder",
        propagation_lag_s: int = 15 * 60,
    ) -> None:
        self.builder = builder
        self.propagation_lag_s = propagation_lag_s
        self._cache: Dict[Tuple[Timestamp, int], Zone] = {}
        #: site_key -> publication the site is frozen at (stale fault).
        self._frozen: Dict[str, Tuple[Timestamp, int]] = {}
        #: IXFR journal, created by the first :meth:`ixfr_respond`.
        self._journal: Optional["IxfrJournal"] = None

    # -- schedule ---------------------------------------------------------------

    @staticmethod
    def publications_between(start: Timestamp, end: Timestamp) -> List[Tuple[Timestamp, int]]:
        """(publication_ts, edition) instants in [start, end)."""
        out: List[Tuple[Timestamp, int]] = []
        day = start - start % DAY
        while day < end:
            for edition, offset in enumerate(PUBLICATION_OFFSETS):
                ts = day + offset
                if start <= ts < end:
                    out.append((ts, edition))
            day += DAY
        return out

    @staticmethod
    def latest_publication(at_ts: Timestamp) -> Tuple[Timestamp, int]:
        """The most recent publication instant at or before *at_ts*."""
        day = at_ts - at_ts % DAY
        candidates: List[Tuple[Timestamp, int]] = []
        for d in (day - DAY, day):
            for edition, offset in enumerate(PUBLICATION_OFFSETS):
                ts = d + offset
                if ts <= at_ts:
                    candidates.append((ts, edition))
        if not candidates:
            raise ValueError(f"no publication at or before {at_ts}")
        return max(candidates)

    # -- zone copies -------------------------------------------------------------

    def zone_for_publication(self, publication_ts: Timestamp, edition: int) -> Zone:
        """The (cached) zone copy for a publication instant."""
        key = (publication_ts, edition)
        if key not in self._cache:
            self._cache[key] = self.builder.build(publication_ts, edition)
        return self._cache[key]

    def freeze_site(self, site_key: str, at_ts: Timestamp) -> None:
        """Stale-zone fault: pin *site_key* to the publication current at
        *at_ts*; it stops pulling newer zones until :meth:`unfreeze_site`."""
        self._frozen[site_key] = self.latest_publication(at_ts)

    def unfreeze_site(self, site_key: str) -> None:
        """Clear a staleness fault."""
        self._frozen.pop(site_key, None)

    def reset_faults(self) -> None:
        """Clear every staleness fault (campaign-start state).

        Campaign runs call this before their first round so that a world
        reused across studies — or across shard passes — always starts
        from the same unfaulted distribution state, even if a previous
        campaign ended inside a stale-site window.
        """
        self._frozen.clear()

    def is_frozen(self, site_key: str) -> bool:
        return site_key in self._frozen

    def site_publication(self, site_key: str, at_ts: Timestamp) -> SitePublication:
        """Which publication *site_key* serves at *at_ts*."""
        if site_key in self._frozen:
            pub_ts, edition = self._frozen[site_key]
            return SitePublication(pub_ts, edition, stale=True)
        pub_ts, edition = self.latest_publication(at_ts - self.propagation_lag_s)
        return SitePublication(pub_ts, edition, stale=False)

    def zone_at_site(self, site_key: str, at_ts: Timestamp) -> Zone:
        """The zone copy *site_key* serves at *at_ts*."""
        pub = self.site_publication(site_key, at_ts)
        return self.zone_for_publication(pub.publication_ts, pub.edition)

    def cache_size(self) -> int:
        """Number of distinct zone copies built so far."""
        return len(self._cache)

    # -- incremental transfer support ---------------------------------------------

    def ixfr_respond(self, client_serial: int, at_ts: Timestamp):
        """Serve an IXFR against the newest publication at *at_ts*.

        Maintains an internal journal lazily: the publications between
        the client's serial and the newest one are materialised on
        demand (they are deterministic, so the journal can always be
        reconstructed).  Returns an :class:`repro.zone.ixfr.IxfrResponse`.
        """
        from repro.zone.ixfr import IxfrJournal, IxfrServer
        from repro.zone.serial import serial_compare

        journal = self._journal
        if journal is None:
            journal = IxfrJournal(max_versions=256)
            self._journal = journal

        newest_ts, newest_edition = self.latest_publication(at_ts)
        newest = self.zone_for_publication(newest_ts, newest_edition)

        # Walk publications backwards until we cover the client's serial
        # (bounded: at most the journal capacity).
        chain: List[Tuple[Timestamp, int]] = [(newest_ts, newest_edition)]
        ts = newest_ts - 1
        for _ in range(journal.max_versions - 1):
            head_zone = self.zone_for_publication(*chain[0])
            if serial_compare(head_zone.serial, client_serial) <= 0:
                break
            prev = self.latest_publication(ts)
            chain.insert(0, prev)
            ts = prev[0] - 1

        known = set(journal.serials)
        for pub_ts, edition in chain:
            zone = self.zone_for_publication(pub_ts, edition)
            if zone.serial not in known:
                try:
                    journal.append(zone)
                except ValueError:
                    # Serial predates the journal head: rebuild fresh.
                    journal = IxfrJournal(max_versions=256)
                    self._journal = journal
                    for p_ts, p_ed in chain:
                        journal.append(self.zone_for_publication(p_ts, p_ed))
                    break
                known.add(zone.serial)
        return IxfrServer(journal).respond(client_serial)
