"""Builder for the simulated root zone.

Reproduces the structure of the real root zone:

* apex SOA (``YYYYMMDDNN`` serial), NS set naming the 13 letters,
  DNSKEY (KSK + ZSK), full NSEC chain,
* one delegation (NS RRset + ``ns[12].nic.<tld>`` glue) per TLD in a
  synthetic-but-realistic TLD catalog — including ``world`` and ``ruhr``,
  which star in the paper's Figure 10 bitflip example,
* RRSIGs with time-nonced validity windows,
* a ZONEMD record following the real roll-out schedule (paper §7):
  absent before 2023-09-13, private-algorithm placeholder until
  2023-12-06, verifiable SHA-384 afterwards,
* b.root glue that flips from the old to the new addresses at the
  2023-11-27 renumbering.
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.dnssec.trustanchor import KskRolloverSchedule

from repro.dns.constants import (
    RRClass,
    RRType,
    ZONEMD_ALG_PRIVATE,
    ZONEMD_ALG_SHA384,
)
from repro.dns.name import Name, ROOT_NAME
from repro.dns.rdata import A, AAAA, NS, SOA, ZONEMD as ZonemdRdata
from repro.dns.records import ResourceRecord, RRset
from repro.dnssec.keys import KeyPair, generate_keypair
from repro.dnssec.nsec import build_nsec_chain
from repro.dnssec.sign import authoritative_rrsets, sign_rrset, sign_rrsets
from repro.dnssec.zonemd import make_zonemd_record
from repro.rss.operators import B_ROOT_CHANGE_TS, ROOT_SERVERS
from repro.util.timeutil import DAY, parse_ts
from repro.zone.serial import serial_for_day
from repro.zone.zone import Zone

#: ZONEMD roll-out milestones (paper Figure 2 / §7).
ZONEMD_PLACEHOLDER_DATE = parse_ts("2023-09-13")
ZONEMD_VALIDATABLE_DATE = parse_ts("2023-12-06")

#: RRSIG validity: inception ~4 days before the signing batch, ~13-day
#: window — the shape visible in the paper's Figure 10 RRSIGs.  Like the
#: real root, signatures are produced in batches (weekly here): all
#: publications of a week share the static body's signatures, and only
#: the SOA/ZONEMD records are re-signed per publication.
SIG_INCEPTION_LEAD = 4 * DAY
SIG_VALIDITY = 13 * DAY
SIGNING_BATCH = 7 * DAY

#: Synthetic TLD catalog: a representative mix of legacy gTLDs, ccTLDs and
#: new gTLDs.  ``world`` and ``ruhr`` are required by the Figure 10
#: reproduction (a bitflip turned ``.ruhr`` into ``.buèr`` and hit an
#: RRSIG over ``world.``'s NSEC).
DEFAULT_TLDS: List[str] = [
    "com", "net", "org", "edu", "gov", "mil", "int", "arpa",
    "de", "nl", "uk", "fr", "se", "no", "dk", "fi", "pl", "cz", "at", "ch",
    "it", "es", "pt", "ie", "be", "lu", "ru", "ua", "ro", "bg", "gr", "hu",
    "us", "ca", "mx", "br", "ar", "cl", "co", "pe", "uy", "ve",
    "jp", "cn", "hk", "sg", "kr", "tw", "in", "th", "my", "id", "ph", "vn",
    "au", "nz", "fj",
    "za", "ke", "ng", "eg", "ma", "tz", "gh", "sn", "mu",
    "info", "biz", "name", "mobi", "asia", "jobs", "travel", "tel", "cat",
    "world", "ruhr", "berlin", "hamburg", "koeln", "wien", "zuerich",
    "online", "site", "shop", "store", "app", "dev", "cloud", "digital",
    "tech", "systems", "network", "solutions", "services", "agency",
    "media", "news", "blog", "wiki", "club", "life", "live", "today",
    "email", "group", "team", "zone", "domains", "hosting", "codes",
    "tokyo", "nagoya", "osaka", "kyoto", "paris", "london", "nyc",
    "amsterdam", "brussels", "madrid", "barcelona", "moscow", "istanbul",
    "sydney", "melbourne", "capetown", "joburg", "durban", "africa",
    "museum", "aero", "coop", "post", "xxx", "pro",
    # IDN TLDs (A-label form), as in the real root zone.
    "xn--p1ai", "xn--fiqs8s", "xn--j6w193g", "xn--kprw13d",
    "xn--mgbaam7a8h", "xn--wgbh1c", "xn--90ais", "xn--d1alf",
    "xn--qxam", "xn--vermgensberater-ctb",
]


class RootZoneBuilder:
    """Builds publication-time-specific copies of the simulated root zone.

    One builder instance holds the (deterministic) key material and the
    static delegation data; :meth:`build` stamps serial, signatures and
    ZONEMD according to the publication timestamp.
    """

    def __init__(
        self,
        seed: int = 0,
        tlds: Optional[List[str]] = None,
        ksk_rollover: Optional["KskRolloverSchedule"] = None,
    ) -> None:
        self.seed = seed
        self.tlds = list(tlds) if tlds is not None else list(DEFAULT_TLDS)
        if len(set(self.tlds)) != len(self.tlds):
            raise ValueError("duplicate TLDs in catalog")
        seed_bytes = str(seed).encode("ascii")
        self.ksk: KeyPair = generate_keypair(b"root-ksk:" + seed_bytes, is_ksk=True)
        self.zsk: KeyPair = generate_keypair(b"root-zsk:" + seed_bytes, is_ksk=False)
        #: Optional KSK rollover (the Mueller et al. study-under-change
        #: scenario): a successor KSK phased in per the schedule.
        self.ksk_rollover = ksk_rollover
        self.ksk_next: Optional[KeyPair] = (
            generate_keypair(b"root-ksk-next:" + seed_bytes, is_ksk=True)
            if ksk_rollover is not None
            else None
        )
        #: Phase -> (unsigned body, its authoritative RRsets), built once.
        self._phase_bodies: Dict[tuple, Tuple[List[ResourceRecord], List[RRset]]] = {}
        #: (week_start, phase) -> signed static body.
        self._static_cache: Dict[tuple, List[ResourceRecord]] = {}

    # -- static structure -----------------------------------------------------

    def _tld_glue_ips(self, tld: str, ns_index: int) -> Dict[int, str]:
        """Deterministic, unique glue addresses for ``ns<i>.nic.<tld>``."""
        digest = hashlib.sha256(f"{self.seed}:{tld}:{ns_index}".encode()).digest()
        v4 = f"192.0.{digest[0]}.{max(1, digest[1])}"
        v6 = f"2001:db8:{digest[2]:x}{digest[3]:02x}:{ns_index:x}::53"
        return {4: v4, 6: v6}

    @cached_property
    def _delegations(self) -> List[ResourceRecord]:
        """NS + glue for every TLD (unsigned by design, like the real root);
        the same in every phase."""
        records: List[ResourceRecord] = []
        for tld in self.tlds:
            tld_name = Name.from_text(f"{tld}.")
            for i in (1, 2):
                ns_name = Name.from_text(f"ns{i}.nic.{tld}.")
                records.append(
                    ResourceRecord(tld_name, RRType.NS, RRClass.IN, 172800, NS(ns_name))
                )
                ips = self._tld_glue_ips(tld, i)
                records.append(
                    ResourceRecord(ns_name, RRType.A, RRClass.IN, 172800, A(ips[4]))
                )
                records.append(
                    ResourceRecord(ns_name, RRType.AAAA, RRClass.IN, 172800, AAAA(ips[6]))
                )
        return records

    def _root_ns_records(self) -> List[ResourceRecord]:
        """The apex NS RRset naming the 13 letters."""
        out = []
        for letter in sorted(ROOT_SERVERS):
            target = Name.from_text(f"{letter}.root-servers.net.")
            out.append(
                ResourceRecord(ROOT_NAME, RRType.NS, RRClass.IN, 518400, NS(target))
            )
        return out

    def _root_server_glue(self, at_ts: int) -> List[ResourceRecord]:
        """Glue A/AAAA for the letters; b.root flips at the renumbering."""
        out: List[ResourceRecord] = []
        for letter in sorted(ROOT_SERVERS):
            server = ROOT_SERVERS[letter]
            owner = Name.from_text(server.name_text)
            out.append(
                ResourceRecord(
                    owner, RRType.A, RRClass.IN, 518400, A(server.address_for(4, at_ts))
                )
            )
            out.append(
                ResourceRecord(
                    owner, RRType.AAAA, RRClass.IN, 518400,
                    AAAA(server.address_for(6, at_ts)),
                )
            )
        return out

    # -- publication ------------------------------------------------------------

    def zonemd_algorithm_at(self, at_ts: int) -> Optional[int]:
        """ZONEMD hash algorithm published at *at_ts* (None = no record)."""
        if at_ts < ZONEMD_PLACEHOLDER_DATE:
            return None
        if at_ts < ZONEMD_VALIDATABLE_DATE:
            return ZONEMD_ALG_PRIVATE
        return ZONEMD_ALG_SHA384

    def signature_window(self, publication_ts: int) -> tuple:
        """(inception, expiration) of the signing batch covering the
        publication.  Every instant of the batch week falls inside."""
        week_start = publication_ts - publication_ts % SIGNING_BATCH
        inception = week_start - SIG_INCEPTION_LEAD
        return inception, inception + SIG_VALIDITY

    def _ksk_phase(self, at_ts: int) -> str:
        if self.ksk_rollover is None:
            return "static"
        return self.ksk_rollover.phase(at_ts)

    def _dnskey_rdatas(self, at_ts: int) -> List:
        """The apex DNSKEY set for the rollover phase at *at_ts*."""
        from repro.dnssec.trustanchor import revoked

        phase = self._ksk_phase(at_ts)
        keys = [self.zsk.dnskey]
        if phase in ("static", "pre"):
            keys.append(self.ksk.dnskey)
        elif phase in ("published", "swapped"):
            keys.append(self.ksk.dnskey)
            assert self.ksk_next is not None
            keys.append(self.ksk_next.dnskey)
        elif phase == "revoked":
            assert self.ksk_next is not None
            keys.append(revoked(self.ksk.dnskey))
            keys.append(self.ksk_next.dnskey)
        else:  # done
            assert self.ksk_next is not None
            keys.append(self.ksk_next.dnskey)
        return keys

    def active_ksk(self, at_ts: int) -> KeyPair:
        """The KSK signing the DNSKEY RRset at *at_ts*."""
        phase = self._ksk_phase(at_ts)
        if phase in ("static", "pre", "published"):
            return self.ksk
        assert self.ksk_next is not None
        return self.ksk_next

    def _phase(self, publication_ts: int) -> tuple:
        """(b.root phase, ZONEMD algorithm, KSK-rollover phase): what the
        unsigned body depends on."""
        return (
            publication_ts >= B_ROOT_CHANGE_TS,
            self.zonemd_algorithm_at(publication_ts),
            self._ksk_phase(publication_ts),
        )

    def _phase_body(self, publication_ts: int) -> Tuple[List[ResourceRecord], List[RRset]]:
        """The unsigned body of *publication_ts*'s phase and the RRsets
        signing covers: apex NS, delegations and glue, root-server glue,
        DNSKEY set and NSEC chain.  Built once per phase, so every weekly
        batch signs the same RRset objects and their memoised canonical
        wires."""
        phase = self._phase(publication_ts)
        body = self._phase_bodies.get(phase)
        if body is not None:
            return body
        zonemd_alg = phase[1]
        records: List[ResourceRecord] = []
        records.extend(self._root_ns_records())
        records.extend(self._delegations)
        records.extend(self._root_server_glue(publication_ts))
        for dnskey in self._dnskey_rdatas(publication_ts):
            records.append(
                ResourceRecord(ROOT_NAME, RRType.DNSKEY, RRClass.IN, 172800, dnskey)
            )
        # The NSEC chain's apex type bitmap must list SOA (and ZONEMD when
        # published), so chain construction sees placeholders which are
        # not part of the static body itself.
        placeholders = [self._soa_record(publication_ts, 0)]
        if zonemd_alg is not None:
            placeholders.append(
                ResourceRecord(
                    ROOT_NAME,
                    RRType.ZONEMD,
                    RRClass.IN,
                    86400,
                    # digest content irrelevant for the type bitmap
                    ZonemdRdata(0, 1, 1, b"\x00" * 48),
                )
            )
        records.extend(build_nsec_chain(records + placeholders, ROOT_NAME))
        body = (records, authoritative_rrsets(records, ROOT_NAME))
        self._phase_bodies[phase] = body
        return body

    def _static_body(self, publication_ts: int) -> List[ResourceRecord]:
        """Everything except the SOA/ZONEMD RRsets and their RRSIGs.

        Cached per (signing batch, phase): the real root's body changes
        rarely, and its signatures in weekly batches.
        """
        week_start = publication_ts - publication_ts % SIGNING_BATCH
        cache_key = (week_start, self._phase(publication_ts))
        cached = self._static_cache.get(cache_key)
        if cached is not None:
            return cached
        records, rrsets = self._phase_body(publication_ts)
        inception, expiration = self.signature_window(publication_ts)
        signed = records + sign_rrsets(
            rrsets, self.zsk, self.active_ksk(publication_ts), ROOT_NAME,
            inception, expiration,
        )
        self._static_cache[cache_key] = signed
        return signed

    def _soa_record(self, publication_ts: int, edition: int) -> ResourceRecord:
        soa_rdata = SOA(
            mname=Name.from_text("a.root-servers.net."),
            rname=Name.from_text("nstld.verisign-grs.com."),
            serial=serial_for_day(publication_ts, edition),
            refresh=1800,
            retry=900,
            expire=604800,
            minimum=86400,
        )
        return ResourceRecord(ROOT_NAME, RRType.SOA, RRClass.IN, 86400, soa_rdata)

    def build(self, publication_ts: int, edition: int = 0) -> Zone:
        """Build the zone copy published at *publication_ts*."""
        zonemd_alg = self.zonemd_algorithm_at(publication_ts)
        static = self._static_body(publication_ts)
        inception, expiration = self.signature_window(publication_ts)

        soa = self._soa_record(publication_ts, edition)
        records: List[ResourceRecord] = [soa]
        records.extend(static)
        records.append(
            sign_rrset(RRset([soa]), self.zsk, ROOT_NAME, inception, expiration)
        )
        if zonemd_alg is not None:
            zonemd_rr = make_zonemd_record(
                records, ROOT_NAME, soa.rdata.serial, hash_algorithm=zonemd_alg
            )
            records.append(zonemd_rr)
            # The apex ZONEMD RRset is authoritative data and carries its
            # own RRSIG (excluded from the digest input, so no circularity).
            records.append(
                sign_rrset(RRset([zonemd_rr]), self.zsk, ROOT_NAME, inception, expiration)
            )
        return Zone(ROOT_NAME, records)
