"""The ISP-DNS-1 analogue: passive capture at a large European ISP.

Generates the sampled flow traffic of the ISP's client population toward
all root service addresses over requested windows, implementing the
behaviour semantics from :mod:`repro.passive.clients`:

* before the b.root change, the old subnets carry the traffic and the new
  ones see only a testing trickle (paper: 0.8 % on 2023-10-08),
* after the change, adopted clients move their in-family traffic to the
  new address; reluctant ones stay; primers touch the old address once
  per day,
* v4/v6 mix: dual-stack clients send roughly a third of their root
  queries over IPv6 (paper: old b.root saw 76-89 % v4 / 10-21 % v6).

:meth:`IspCapture.capture` evaluates the model as numpy kernels
(:mod:`repro.passive.flow_engine`); ``tests/passive/scalar_capture.py``
states the same model cell by cell as the equivalence tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.passive.clients import LETTER_WEIGHTS_ISP
from repro.rss.operators import ServiceAddress, all_service_addresses
from repro.passive.traces import FlowAggregate, TrafficTimeSeries
from repro.util.timeutil import DAY, Timestamp

#: Fraction of a dual-stack client's root traffic using IPv6.
V6_TRAFFIC_SHARE = 0.30

#: Fraction of clients that probe the not-yet-published new addresses
#: (operators testing), and their share of traffic to it.
TESTER_FRACTION = 0.02
TESTER_TRAFFIC_SHARE = 0.4

#: The capture cannot filter non-DNS traffic (paper §4.1: for ISP-DNS-1,
#: 1.75 % of measured traffic was not from port 53).
NOISE_FRACTION = 0.0175


@dataclass(frozen=True)
class TrafficDip:
    """A letter's traffic dropping for a time window (upstream outage).

    The paper's Figure 12 shows a.root dipping on 2024-02-26 ("should be
    investigated in future work"); the default event list reproduces it.
    """

    letter: str
    start_ts: Timestamp
    end_ts: Timestamp
    factor: float  # remaining traffic share (0.4 = 60% dip)

    def scale(self, letter: str, ts: Timestamp) -> float:
        if letter == self.letter and self.start_ts <= ts < self.end_ts:
            return self.factor
        return 1.0


#: Default anomaly calendar (the Fig. 12 a.root dip).
DEFAULT_DIPS: Tuple[TrafficDip, ...] = (
    TrafficDip(
        letter="a",
        start_ts=1708905600,  # 2024-02-26
        end_ts=1708992000,  # 2024-02-27
        factor=0.45,
    ),
)


class IspCapture:
    """Capture point inside the ISP."""

    def __init__(
        self,
        clients,  # List[ClientNetwork] or a compiled ClientColumns
        seed: int,
        sampling_rate: float = 1.0,
        letter_weights: Optional[Dict[str, float]] = None,
        dips: Tuple[TrafficDip, ...] = DEFAULT_DIPS,
        noise_fraction: float = NOISE_FRACTION,
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        if not 0.0 <= noise_fraction < 1.0:
            raise ValueError(f"noise_fraction must be in [0, 1), got {noise_fraction}")
        self.clients = clients
        self.seed = seed
        self.sampling_rate = sampling_rate
        self.letter_weights = letter_weights or LETTER_WEIGHTS_ISP
        self.dips = dips
        self.noise_fraction = noise_fraction
        self.addresses: List[ServiceAddress] = all_service_addresses()
        self._columns = None

    def client_columns(self):
        """The population compiled into numpy columns (memoized).

        ``clients`` may already *be* a compiled
        :class:`~repro.passive.flow_engine.ClientColumns` (the
        paper-scale population engine never builds per-client objects);
        it is then used as-is.
        """
        if self._columns is None:
            from repro.passive.flow_engine import ClientColumns

            if isinstance(self.clients, ClientColumns):
                self._columns = self.clients
            else:
                self._columns = ClientColumns.from_clients(self.clients)
        return self._columns

    def reset(self) -> None:
        """Drop compiled per-population state (after mutating clients)."""
        self._columns = None

    def capture(
        self, start: Timestamp, end: Timestamp, bucket_seconds: int = DAY
    ) -> FlowAggregate:
        """Capture the window [start, end) into an aggregate."""
        if end <= start:
            raise ValueError("capture window must have positive length")
        from repro.passive.flow_engine import capture_vectorized

        return capture_vectorized(self, start, end, bucket_seconds)

    def time_series(self, aggregate: FlowAggregate) -> TrafficTimeSeries:
        """Wrap an aggregate for normalised-share reads."""
        return TrafficTimeSeries(aggregate, self.addresses)
