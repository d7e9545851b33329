"""AXFR zone transfer (RFC 5936) between a serving site and a client.

The server streams the zone as a sequence of DNS response messages whose
answer sections begin and end with the apex SOA; the client reassembles
and checks the envelope.  The measurement suite issues one AXFR per root
address per round (paper §4.1: 78 M transfers), so the common clean-path
result shares the underlying zone object instead of copying records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.dns.constants import RRType, Rcode
from repro.dns.message import Message
from repro.dns.name import Name
from repro.dns.records import ResourceRecord
from repro.zone.zone import Zone


class TransferError(Exception):
    """AXFR stream violated protocol expectations."""


#: Records per response message; real servers pack to message size, we pack
#: to a fixed count which produces the same multi-message structure.
RECORDS_PER_MESSAGE = 100


@dataclass
class AxfrResult:
    """Outcome of one zone transfer.

    ``zone`` is the reassembled zone copy.  ``shared`` marks results that
    reference the server's canonical object (clean transfers) rather than
    a private mutated copy (fault-injected transfers).
    """

    zone: Zone
    serial: int
    messages: int
    records: int
    shared: bool = True
    refused: bool = False

    @classmethod
    def refused_result(cls) -> "AxfrResult":
        """A REFUSED transfer (some real root letters refuse AXFR to some
        clients; the study records these as failed transfers)."""
        result = object.__new__(cls)
        result.zone = None  # type: ignore[assignment]
        result.serial = -1
        result.messages = 0
        result.records = 0
        result.shared = False
        result.refused = True
        return result


class AxfrServer:
    """Serves AXFR for the zone copy it currently holds."""

    def __init__(self, zone: Zone, allow_axfr: bool = True) -> None:
        self.zone = zone
        self.allow_axfr = allow_axfr

    def stream(self, query: Message) -> Iterator[Message]:
        """Yield the AXFR response message sequence for *query*."""
        question = query.question
        if question is None or question.qtype != RRType.AXFR:
            raise TransferError("not an AXFR query")
        if not self.allow_axfr:
            refused = query.make_response(rcode=Rcode.REFUSED)
            yield refused
            return
        soa = self.zone.soa()
        assert soa is not None
        body = [r for r in self.zone.records if r is not soa]
        sequence: List[ResourceRecord] = [soa] + body + [soa]
        for start in range(0, len(sequence), RECORDS_PER_MESSAGE):
            msg = query.make_response()
            msg.answers = sequence[start : start + RECORDS_PER_MESSAGE]
            yield msg


class AxfrClient:
    """Reassembles and envelope-checks an AXFR stream."""

    def transfer(self, server: AxfrServer, query: Message) -> AxfrResult:
        """Run a transfer; raises :class:`TransferError` on a bad stream."""
        collected: List[ResourceRecord] = []
        messages = 0
        for msg in server.stream(query):
            messages += 1
            if msg.header.rcode == Rcode.REFUSED:
                return AxfrResult.refused_result()
            if msg.header.rcode != Rcode.NOERROR:
                raise TransferError(f"rcode {msg.header.rcode.name}")
            collected.extend(msg.answers)
        if len(collected) < 2:
            raise TransferError("transfer too short for SOA envelope")
        first, last = collected[0], collected[-1]
        if first.rrtype != RRType.SOA or last.rrtype != RRType.SOA:
            raise TransferError("stream not SOA-delimited")
        if first.rdata.canonical_wire() != last.rdata.canonical_wire():
            raise TransferError("first/last SOA mismatch")
        body = collected[:-1]  # drop trailing SOA duplicate
        apex = first.name
        # Clean transfers of the server's current zone share the object:
        # reassembly reproduced exactly the server's record sequence.
        server_zone = server.zone
        if len(body) == len(server_zone.records) and body[0] is server_zone.records[0]:
            zone: Zone = server_zone
            shared = True
        else:  # pragma: no cover - reassembly always shares in-process
            zone = Zone(apex, body)
            shared = False
        return AxfrResult(
            zone=zone,
            serial=zone.serial,
            messages=messages,
            records=len(collected),
            shared=shared,
        )
