"""Vantage points and the active measurement campaign.

Models the NLNOG-RING-like measurement platform: a VP population matched
to the paper's Table 3 regional distribution, the Figure 2 measurement
timeline (30-minute base interval, 15-minute windows around the ZONEMD
and b.root events), and a prober executing the Appendix F suite against
the simulated root server system.
"""

from repro.vantage.node import VantagePoint
from repro.vantage.ring import RingConfig, build_ring, REGION_PLAN
from repro.vantage.scheduler import MeasurementSchedule, CAMPAIGN_START, CAMPAIGN_END
from repro.vantage.collector import CampaignCollector, TransferObservation
from repro.vantage.probes import Prober, SamplingPolicy
from repro.vantage.export import export_dataset, load_dataset
from repro.vantage.atlas import AtlasPlatform

__all__ = [
    "SamplingPolicy",
    "export_dataset",
    "load_dataset",
    "AtlasPlatform",
    "VantagePoint",
    "RingConfig",
    "build_ring",
    "REGION_PLAN",
    "MeasurementSchedule",
    "CAMPAIGN_START",
    "CAMPAIGN_END",
    "CampaignCollector",
    "TransferObservation",
    "Prober",
]
