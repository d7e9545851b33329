"""Small statistics helpers used by the analysis pipeline.

Only depends on the standard library so it can be unit-tested in isolation;
heavier numerics in the analysis layer use numpy directly.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple


def _interpolate(at: Callable[[int], float], n: int, q: float) -> float:
    """Linear interpolation between the order statistics ``at(i)`` of a
    sorted sample of size *n* (the arithmetic of :func:`percentile`)."""
    if n == 1:
        return float(at(0))
    rank = (q / 100.0) * (n - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(at(low))
    frac = rank - low
    return float(at(low) * (1.0 - frac) + at(high) * frac)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100].

    Matches numpy's default ("linear") interpolation so results line up with
    the numpy-based analysis code.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    return _interpolate(ordered.__getitem__, len(ordered), q)


def median(values: Sequence[float]) -> float:
    """Median via :func:`percentile`."""
    return percentile(values, 50.0)


def weighted_median(values: Sequence[float], weights: Sequence[int]) -> float:
    """:func:`median` of the sample holding each ``values[i]``
    ``weights[i]`` times (positive integer weights), without building
    that sample."""
    if not values:
        raise ValueError("weighted median of empty sequence")
    ordered = sorted(zip(values, weights))
    ends = list(itertools.accumulate(weight for _value, weight in ordered))
    return _interpolate(
        lambda i: ordered[bisect.bisect_right(ends, i)][0], ends[-1], 50.0
    )


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    p50: float
    p75: float
    maximum: float


def describe(values: Sequence[float]) -> Summary:
    """Summary statistics of a non-empty sample (population std)."""
    if not values:
        raise ValueError("describe of empty sequence")
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=float(min(values)),
        p25=percentile(values, 25.0),
        p50=percentile(values, 50.0),
        p75=percentile(values, 75.0),
        maximum=float(max(values)),
    )


class Ecdf:
    """Empirical CDF over a numeric sample.

    Supports the complementary form used by the paper's Figure 3
    ("1 - proportion of VPs with at most x changes").
    """

    def __init__(self, values: Iterable[float]) -> None:
        self._sorted: List[float] = sorted(values)
        if not self._sorted:
            raise ValueError("Ecdf needs at least one value")

    def __len__(self) -> int:
        return len(self._sorted)

    def cdf(self, x: float) -> float:
        """P(X <= x)."""
        return self._rank(x) / len(self._sorted)

    def ccdf(self, x: float) -> float:
        """P(X > x) — the complementary CDF plotted in Figure 3."""
        return 1.0 - self.cdf(x)

    def quantile(self, q: float) -> float:
        """Inverse CDF for ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        return percentile(self._sorted, q * 100.0)

    def points(self) -> List[Tuple[float, float]]:
        """(x, ccdf(x)) at each distinct sample value, ascending in x."""
        # The last index of each run of equal values is its rank - 1.
        ordered = self._sorted
        n = len(ordered)
        return [
            (value, 1.0 - (i + 1) / n)
            for i, value in enumerate(ordered)
            if i + 1 == n or ordered[i + 1] != value
        ]

    def _rank(self, x: float) -> int:
        return bisect.bisect_right(self._sorted, x)


def histogram(values: Sequence[float], bins: Sequence[float]) -> List[int]:
    """Counts per half-open bin ``[bins[i], bins[i+1])``; last bin closed."""
    if len(bins) < 2:
        raise ValueError("need at least two bin edges")
    counts = [0] * (len(bins) - 1)
    for v in values:
        for i in range(len(bins) - 1):
            last = i == len(bins) - 2
            if bins[i] <= v < bins[i + 1] or (last and v == bins[-1]):
                counts[i] += 1
                break
    return counts


def shares(counts: Dict[str, float]) -> Dict[str, float]:
    """Normalise a mapping of counts to fractions (empty-safe)."""
    total = sum(counts.values())
    if total <= 0:
        return {k: 0.0 for k in counts}
    return {k: v / total for k, v in counts.items()}
