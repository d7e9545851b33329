"""Shared fixtures.

The heavyweight fixtures (a campaign run, passive captures) are
session-scoped: they take seconds to build and every analysis test reads
them without mutation.
"""

from __future__ import annotations

import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.rss.sites import build_site_catalog
from repro.util.rng import RngFactory
from repro.util.timeutil import parse_ts
from repro.zone.rootzone import RootZoneBuilder


TEST_SEED = 1234


@pytest.fixture(scope="session")
def rng_factory() -> RngFactory:
    return RngFactory(TEST_SEED)


@pytest.fixture(scope="session")
def site_catalog(rng_factory):
    return build_site_catalog(rng_factory)


@pytest.fixture(scope="session")
def zone_builder() -> RootZoneBuilder:
    return RootZoneBuilder(seed=TEST_SEED)


@pytest.fixture(scope="session")
def validatable_zone(zone_builder):
    """A zone from the verifiable-ZONEMD era (post 2023-12-06)."""
    return zone_builder.build(parse_ts("2023-12-10T16:00:00"))


@pytest.fixture(scope="session")
def mini_study_config() -> StudyConfig:
    """A two-week window around the b.root change: small but exercises
    the high-resolution schedule phase and the renumbering."""
    return StudyConfig(
        seed=TEST_SEED,
        ring_scale=0.06,
        interval_scale=24.0,
        campaign_start=parse_ts("2023-11-20"),
        campaign_end=parse_ts("2023-12-08"),
        rtt_sample_every=1,
        traceroute_sample_every=1,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=50,
    )


@pytest.fixture(scope="session")
def mini_pipeline(mini_study_config):
    """A completed small campaign (shared read-only)."""
    pipeline = StudyPipeline(mini_study_config)
    pipeline.run()
    return pipeline


@pytest.fixture(scope="session")
def mini_study(mini_pipeline):
    """The small campaign's results bundle (shared read-only; tests that
    save or attach to a dataset take a fresh ``mini_pipeline.results()``)."""
    return mini_pipeline.results()


@pytest.fixture(scope="session")
def full_window_pipeline():
    """A coarse campaign over the full 174-day window (faults included),
    used by analyses that need the whole timeline (ZONEMD roll-out,
    stability medians)."""
    config = StudyConfig(
        seed=TEST_SEED,
        ring_scale=0.1,
        ring_min_per_region=8,
        interval_scale=48.0,  # 24 h base interval
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=200,
    )
    pipeline = StudyPipeline(config)
    pipeline.run()
    return pipeline


@pytest.fixture(scope="session")
def full_window_study(full_window_pipeline):
    """The full-window campaign's results bundle (shared read-only)."""
    return full_window_pipeline.results()
