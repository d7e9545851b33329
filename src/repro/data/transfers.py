"""Full-fidelity transfer records.

The collector stores each recorded AXFR as a
:class:`~repro.vantage.collector.TransferObservation` carrying the whole
:class:`~repro.zone.zone.Zone` object — fine in-process, but zone
objects do not belong in an exported dataset.  What the §7 audit
actually consumes per observation is *time-free*: the zone's content
fingerprint, its content-level validation errors, and the RRSIG validity
envelope; only the comparison of the envelope against the observation
timestamp happens at audit time.  :class:`TransferRecord` captures
exactly that, so the Table 2 audit reproduces its findings bit-for-bit
from a reloaded dataset without any zone content — closing the
"metadata only" export gap.

Sealing runs the cryptography through the process-wide
:class:`~repro.dnssec.digestcache.ZoneValidationCache`, so a campaign
whose transfers were already audited seals its dataset for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.dns.name import ROOT_NAME
from repro.dnssec.digestcache import (
    ZoneValidationCache,
    shared_cache,
    zone_fingerprint,
)
from repro.dnssec.validate import ValidationError
from repro.rss.operators import ServiceAddress
from repro.util.timeutil import Timestamp


@dataclass(frozen=True)
class TransferRecord:
    """One recorded AXFR with its validation verdict baked in.

    ``zone`` is kept for records sealed from a live collector (it powers
    the Figure 10 bitflip diff) and is ``None`` after a reload — every
    other field round-trips through the dataset directory unchanged.
    """

    vp_id: int
    true_ts: Timestamp
    observed_ts: Timestamp  # VP clock view (skew applies here)
    address: ServiceAddress
    serial: int
    fault: str  # "", "bitflip", "stale"
    fault_detail: str
    #: Hex content fingerprint of the transferred zone copy.
    fingerprint: str
    #: Time-independent validation errors of the zone content.
    content_errors: Tuple[ValidationError, ...]
    #: (max inception, min expiration) over the zone's RRSIGs; (0, 0)
    #: when unsigned.
    rrsig_envelope: Tuple[int, int]
    #: The verdict: no errors when validated at ``observed_ts``.
    valid: bool
    zone: Optional[object] = None

    def errors_at(self, now: Timestamp) -> List[ValidationError]:
        """The validation errors of this copy at time *now* — identical
        to validating the original zone content at *now*."""
        return _errors_with_envelope(self.content_errors, self.rrsig_envelope, now)


def content_verdict(
    zone, cache: Optional[ZoneValidationCache] = None
) -> Tuple[str, Tuple[ValidationError, ...], Tuple[int, int]]:
    """(fingerprint hex, content errors, RRSIG envelope) of a zone copy.

    Content errors are evaluated at the envelope midpoint, where no
    temporal error can fire on a consistently signed zone — the same
    convention the Table 2 audit uses.
    """
    cache = cache if cache is not None else shared_cache()
    analysis = cache.analyse_zone(zone, ROOT_NAME)
    envelope = analysis.rrsig_envelope
    midpoint = (envelope[0] + envelope[1]) // 2  # (0, 0) when unsigned
    report = analysis.report_at(midpoint, check_zonemd=True)
    errors = tuple(issue.error for issue in report.issues)
    return zone_fingerprint(zone).hex(), errors, envelope


def seal_observation(
    obs, cache: Optional[ZoneValidationCache] = None
) -> TransferRecord:
    """Turn one live :class:`TransferObservation` into a record."""
    fingerprint, errors, envelope = content_verdict(obs.zone, cache)
    record = TransferRecord(
        vp_id=obs.vp_id,
        true_ts=obs.true_ts,
        observed_ts=obs.observed_ts,
        address=obs.address,
        serial=obs.serial,
        fault=obs.fault,
        fault_detail=obs.fault_detail,
        fingerprint=fingerprint,
        content_errors=errors,
        rrsig_envelope=envelope,
        valid=not _errors_with_envelope(errors, envelope, obs.observed_ts),
        zone=obs.zone,
    )
    return record


def seal_transfers(
    observations: Sequence, cache: Optional[ZoneValidationCache] = None
) -> List[TransferRecord]:
    """Seal a collector's transfer observations, in order.

    Observations that are already :class:`TransferRecord` instances pass
    through unchanged, so sealing is idempotent.
    """
    cache = cache if cache is not None else shared_cache()
    out: List[TransferRecord] = []
    for obs in observations:
        if isinstance(obs, TransferRecord):
            out.append(obs)
        else:
            out.append(seal_observation(obs, cache))
    return out


def _errors_with_envelope(
    errors: Tuple[ValidationError, ...], envelope: Tuple[int, int], now: Timestamp
) -> List[ValidationError]:
    out = list(errors)
    if now < envelope[0]:
        out.append(ValidationError.SIG_NOT_INCEPTED)
    elif now > envelope[1]:
        out.append(ValidationError.SIG_EXPIRED)
    return out


# -- JSON codec ----------------------------------------------------------------------


def record_to_row(record: TransferRecord) -> Dict[str, object]:
    """The JSONL row of one record (zone content is never exported)."""
    return {
        "vp_id": record.vp_id,
        "true_ts": record.true_ts,
        "observed_ts": record.observed_ts,
        "address": record.address.address,
        "serial": record.serial,
        "fault": record.fault,
        "fault_detail": record.fault_detail,
        "fingerprint": record.fingerprint,
        "content_errors": [error.name for error in record.content_errors],
        "rrsig_envelope": list(record.rrsig_envelope),
        "valid": record.valid,
    }


def row_to_record(
    row: Dict[str, object], addresses: Dict[str, ServiceAddress]
) -> TransferRecord:
    """Rebuild a record from its JSONL row."""
    try:
        address = addresses[row["address"]]
        return TransferRecord(
            vp_id=int(row["vp_id"]),
            true_ts=int(row["true_ts"]),
            observed_ts=int(row["observed_ts"]),
            address=address,
            serial=int(row["serial"]),
            fault=str(row["fault"]),
            fault_detail=str(row["fault_detail"]),
            fingerprint=str(row["fingerprint"]),
            content_errors=tuple(
                ValidationError[name] for name in row["content_errors"]
            ),
            rrsig_envelope=(
                int(row["rrsig_envelope"][0]),
                int(row["rrsig_envelope"][1]),
            ),
            valid=bool(row["valid"]),
        )
    except (KeyError, IndexError, TypeError) as exc:
        from repro.data.schema import DatasetError

        raise DatasetError(f"malformed transfer row: {row!r}") from exc
