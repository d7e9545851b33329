"""DNSSEC key material.

A :class:`KeyPair` bundles the DNSKEY record data with the signing secret.
The emulated primitive is symmetric (HMAC-SHA256 keyed by the *public* key
field) so the validator needs nothing beyond the DNSKEY RRset — exactly
the information a real validator has.  The trade-off (forgeability) is
irrelevant here: the study measures *integrity failures*, not adversaries.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from functools import cached_property

from repro.dns.constants import (
    DNSKEY_FLAG_SEP,
    DNSKEY_FLAG_ZONE,
    DNSSEC_ALG_RSASHA256,
)
from repro.dns.rdata import DNSKEY


@dataclass(frozen=True)
class ZoneKey:
    """A DNSKEY plus its role (KSK/ZSK)."""

    dnskey: DNSKEY
    is_ksk: bool

    @cached_property
    def key_tag(self) -> int:
        # Cached: every RRSIG a batch signs carries it.
        return self.dnskey.key_tag()


@dataclass(frozen=True)
class KeyPair:
    """DNSKEY record data together with the signing side.

    ``public_key`` doubles as the HMAC key, which is what makes signatures
    verifiable from the DNSKEY RRset alone.
    """

    zone_key: ZoneKey

    @property
    def dnskey(self) -> DNSKEY:
        return self.zone_key.dnskey

    @property
    def key_tag(self) -> int:
        return self.zone_key.key_tag

    def sign_bytes(self, data: bytes) -> bytes:
        """Produce the emulated signature over *data*."""
        return hmac.new(self.dnskey.public_key, data, hashlib.sha256).digest()


def verify_bytes(dnskey: DNSKEY, data: bytes, signature: bytes) -> bool:
    """Check an emulated signature against a DNSKEY."""
    expected = hmac.new(dnskey.public_key, data, hashlib.sha256).digest()
    return hmac.compare_digest(expected, signature)


def generate_keypair(seed: bytes, is_ksk: bool, algorithm: int = DNSSEC_ALG_RSASHA256) -> KeyPair:
    """Deterministically derive a key pair from *seed*.

    Determinism keeps the whole simulated root zone byte-reproducible
    across runs with the same study seed.
    """
    material = hashlib.sha256(b"dnskey:" + seed).digest()
    flags = DNSKEY_FLAG_ZONE | (DNSKEY_FLAG_SEP if is_ksk else 0)
    dnskey = DNSKEY(flags=flags, protocol=3, algorithm=algorithm, public_key=material)
    return KeyPair(zone_key=ZoneKey(dnskey=dnskey, is_ksk=is_ksk))
