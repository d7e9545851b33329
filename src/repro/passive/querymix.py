"""Query-name composition synthesised through the passive flow engine.

"Understanding DNS Query Composition at B-Root" decomposes root traffic
into a popularity-skewed head of valid TLD queries, a long junk tail
(unresolvable names, service-discovery leakage), and the distinctive
Chromium-style random first-label probes.  This module layers that
composition onto a :class:`~repro.passive.traces.FlowAggregate`: the
aggregate's per-bucket flow volume anchors the totals, and a
:class:`QueryMixSpec` (the scenario traffic layer) says how those
queries decompose per bucket.

Everything is a pure function of ``(aggregate, seed, spec)``: category
series are computed arithmetically from the bucket volumes, the valid
head follows a Zipf law over the TLD popularity ranks, and the example
junk/chromioid labels are drawn from the study's named RNG streams —
so a reloaded dataset reproduces the synthesis exactly.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.util.rng import RngFactory
from repro.util.timeutil import Timestamp, parse_ts

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.passive.traces import FlowAggregate

#: Mean root queries behind one observed flow (priming, retries, and
#: negative-cache misses fan one flow out into several queries).
QUERIES_PER_FLOW = 2.6

#: The popularity head the Zipf law ranks over: real TLD labels first
#: (queries the root answers with a referral), then the classic
#: leaked suffixes the B-Root study found dominating the junk head.
POPULAR_QNAMES: Tuple[str, ...] = (
    "com.", "net.", "org.", "arpa.", "de.", "uk.", "br.", "jp.", "fr.",
    "nl.", "ru.", "io.", "cn.", "au.", "in.", "it.", "info.", "se.",
    "ca.", "es.", "ch.", "pl.", "us.", "eu.", "edu.", "gov.", "xyz.",
    "local.", "home.", "lan.", "internal.", "corp.", "localdomain.",
    "belkin.", "dlink.", "arpa.home.", "invalid.", "test.",
)

#: The query categories every synthesis reports, in canonical order.
CATEGORIES: Tuple[str, ...] = ("valid", "chromioid", "junk")


@dataclass(frozen=True)
class QueryBurst:
    """One traffic burst: a window whose *category* volume multiplies."""

    start: str  # YYYY-MM-DD
    end: str
    multiplier: float = 2.0
    category: str = "junk"

    def __post_init__(self) -> None:
        if parse_ts(self.end) <= parse_ts(self.start):
            raise ValueError(
                f"traffic spec: burst end {self.end!r} must be after "
                f"start {self.start!r}"
            )
        if self.multiplier <= 0:
            raise ValueError(
                f"traffic spec: burst multiplier must be positive: "
                f"{self.multiplier}"
            )
        if self.category not in CATEGORIES:
            raise ValueError(
                f"traffic spec: burst category must be one of "
                f"{', '.join(CATEGORIES)}: {self.category!r}"
            )

    def window(self) -> Tuple[Timestamp, Timestamp]:
        return parse_ts(self.start), parse_ts(self.end)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryBurst":
        _reject_unknown(data, [f.name for f in fields(cls)])
        return cls(**data)


def _reject_unknown(data: Mapping[str, Any], known: Sequence[str]) -> None:
    for key in data:
        if key in known:
            continue
        close = difflib.get_close_matches(str(key), list(known), n=1)
        hint = f"; did you mean {close[0]!r}?" if close else ""
        raise ValueError(
            f"traffic spec (querymix): unknown key {key!r}{hint} "
            f"(known keys: {', '.join(sorted(known))})"
        )


@dataclass(frozen=True)
class QueryMixSpec:
    """How observed flow volume decomposes into query names."""

    zipf_alpha: float = 0.95
    n_qnames: int = 2500
    junk_fraction: float = 0.12
    chromioid_fraction: float = 0.30
    bursts: Tuple[QueryBurst, ...] = ()

    def __post_init__(self) -> None:
        if self.zipf_alpha <= 0:
            raise ValueError(
                f"traffic spec: zipf_alpha must be positive: {self.zipf_alpha}"
            )
        if self.n_qnames < len(POPULAR_QNAMES):
            raise ValueError(
                f"traffic spec: n_qnames must be >= {len(POPULAR_QNAMES)}: "
                f"{self.n_qnames}"
            )
        for attr in ("junk_fraction", "chromioid_fraction"):
            if not 0.0 <= getattr(self, attr) <= 1.0:
                raise ValueError(
                    f"traffic spec: {attr} must be in [0, 1]: "
                    f"{getattr(self, attr)}"
                )
        if self.junk_fraction + self.chromioid_fraction > 1.0:
            raise ValueError(
                "traffic spec: junk_fraction + chromioid_fraction must "
                "not exceed 1"
            )
        object.__setattr__(
            self,
            "bursts",
            tuple(
                burst if isinstance(burst, QueryBurst)
                else QueryBurst.from_dict(burst)
                for burst in self.bursts
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "zipf_alpha": self.zipf_alpha,
            "n_qnames": self.n_qnames,
            "junk_fraction": self.junk_fraction,
            "chromioid_fraction": self.chromioid_fraction,
            "bursts": [burst.to_dict() for burst in self.bursts],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "QueryMixSpec":
        _reject_unknown(data, [f.name for f in fields(cls)])
        return cls(**data)


@dataclass(frozen=True)
class QueryMixBucket:
    """One time bucket's synthesised query counts per category."""

    bucket: Timestamp
    valid: float
    chromioid: float
    junk: float

    @property
    def total(self) -> float:
        return self.valid + self.chromioid + self.junk


class QueryMixSynthesis:
    """The synthesised query composition over one aggregate's window."""

    def __init__(
        self,
        spec: QueryMixSpec,
        buckets: List[QueryMixBucket],
        qname_counts: Dict[str, float],
        chromioid_examples: List[str],
    ) -> None:
        self.spec = spec
        self.buckets = buckets
        self.qname_counts = qname_counts
        self.chromioid_examples = chromioid_examples

    def total_queries(self) -> float:
        return sum(bucket.total for bucket in self.buckets)

    def category_shares(self) -> Dict[str, float]:
        """Fraction of all queries per category (sums to 1)."""
        total = self.total_queries()
        if total == 0:
            return {category: 0.0 for category in CATEGORIES}
        sums = {
            category: sum(getattr(b, category) for b in self.buckets)
            for category in CATEGORIES
        }
        return {category: sums[category] / total for category in CATEGORIES}

    def top_qnames(self, n: int = 10) -> List[Tuple[str, float]]:
        """The *n* hottest query names with their synthesised counts."""
        ranked = sorted(
            self.qname_counts.items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:n]

    def burst_amplification(self) -> List[Tuple[QueryBurst, float]]:
        """Observed/baseline volume ratio inside each burst window."""
        out: List[Tuple[QueryBurst, float]] = []
        for burst in self.spec.bursts:
            lo, hi = burst.window()
            inside = [b for b in self.buckets if lo <= b.bucket < hi]
            outside = [b for b in self.buckets if not lo <= b.bucket < hi]
            if not inside or not outside:
                out.append((burst, 1.0))
                continue
            inside_mean = sum(b.total for b in inside) / len(inside)
            outside_mean = sum(b.total for b in outside) / len(outside)
            out.append(
                (burst, inside_mean / outside_mean if outside_mean else 1.0)
            )
        return out


def _zipf_weights(n: int, alpha: float) -> List[float]:
    weights = [1.0 / (rank ** alpha) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _chromioid_label(rng) -> str:
    """A Chromium-style random first label (7-15 lowercase chars)."""
    length = rng.randint(7, 15)
    return "".join(
        chr(ord("a") + rng.randrange(26)) for _ in range(length)
    ) + "."


def synthesize_querymix(
    aggregate: "FlowAggregate",
    seed: int,
    spec: Optional[QueryMixSpec] = None,
) -> QueryMixSynthesis:
    """Layer *spec*'s query composition over *aggregate*'s volume.

    Per bucket: total queries = flow volume × :data:`QUERIES_PER_FLOW`,
    split into the spec's category fractions; burst windows multiply
    their category's volume.  The valid head distributes over
    :data:`POPULAR_QNAMES` (and synthetic tail ranks up to
    ``n_qnames``) by a Zipf law.
    """
    spec = spec or QueryMixSpec()
    # Summed in flow-table order, (bucket, address), from 0.0: the same
    # bits for a live aggregate and its reload.
    table = aggregate.flow_table
    volume_per_bucket: Dict[Timestamp, float] = {}
    for bucket, flows in zip(table["bucket"].tolist(), table["flows"].tolist()):
        volume_per_bucket[bucket] = volume_per_bucket.get(bucket, 0.0) + flows

    base_fractions = {
        "valid": 1.0 - spec.junk_fraction - spec.chromioid_fraction,
        "chromioid": spec.chromioid_fraction,
        "junk": spec.junk_fraction,
    }
    buckets: List[QueryMixBucket] = []
    for bucket in sorted(volume_per_bucket):
        total = volume_per_bucket[bucket] * QUERIES_PER_FLOW
        counts = {
            category: total * fraction
            for category, fraction in base_fractions.items()
        }
        for burst in spec.bursts:
            lo, hi = burst.window()
            if lo <= bucket < hi:
                counts[burst.category] *= burst.multiplier
        buckets.append(QueryMixBucket(bucket=bucket, **counts))

    valid_total = sum(bucket.valid for bucket in buckets)
    weights = _zipf_weights(spec.n_qnames, spec.zipf_alpha)
    qname_counts: Dict[str, float] = {}
    for rank, weight in enumerate(weights):
        if rank < len(POPULAR_QNAMES):
            qname = POPULAR_QNAMES[rank]
        else:
            qname = f"tail{rank:05d}.example."
        qname_counts[qname] = valid_total * weight

    rng = RngFactory(seed).stream("passive.querymix")
    examples = [_chromioid_label(rng) for _ in range(8)]
    return QueryMixSynthesis(spec, buckets, qname_counts, examples)
