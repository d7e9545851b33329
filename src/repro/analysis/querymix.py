"""Query-composition analysis over a passive aggregate (the
broot-querymix pack's headline view).

Wraps :func:`repro.passive.querymix.synthesize_querymix` as a
registered analysis: the scenario's traffic layer supplies the
:class:`~repro.passive.querymix.QueryMixSpec` (via the config's
``traffic`` extras), the passive flow aggregate supplies the per-bucket
volume, and the analysis reports the category shares, the Zipf head and
the burst amplification the B-Root query-composition study measures.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.base import RegisteredAnalysis
from repro.passive.querymix import (
    QueryMixSpec,
    QueryMixSynthesis,
    synthesize_querymix,
)

#: Seed for the synthesis' example-label streams when no config rides
#: along (matches the default StudyConfig seed).
DEFAULT_SEED = 2024


class QueryMixAnalysis(RegisteredAnalysis):
    """Synthesised query composition of one passive aggregate."""

    name = "querymix"
    requires = ("aggregate", "config?")
    tables = ()

    def __init__(self, aggregate, config=None) -> None:
        self.aggregate = aggregate
        self.config = config
        spec = None
        seed = DEFAULT_SEED
        if config is not None:
            spec = config.traffic_spec().querymix
            seed = config.seed
        self.spec: QueryMixSpec = spec or QueryMixSpec()
        self.synthesis: QueryMixSynthesis = synthesize_querymix(
            aggregate, seed, self.spec
        )

    def category_shares(self) -> Dict[str, float]:
        """Fraction of all synthesised queries per category."""
        return self.synthesis.category_shares()

    def top_qnames(self, n: int = 10) -> List[Tuple[str, float]]:
        """The *n* hottest names of the Zipf head."""
        return self.synthesis.top_qnames(n)

    def burst_report(self) -> List[Dict[str, object]]:
        """Each configured burst with its observed amplification."""
        return [
            {
                "start": burst.start,
                "end": burst.end,
                "category": burst.category,
                "multiplier": burst.multiplier,
                "amplification": amplification,
            }
            for burst, amplification in self.synthesis.burst_amplification()
        ]
