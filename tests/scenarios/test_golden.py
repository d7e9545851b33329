"""Golden test: the default scenario reproduces the pre-refactor
campaign byte-identically.

``GOLDEN_DIGEST`` was recorded on the commit *before* the scenario
refactor, from a tiny five-day campaign at seed 77 — the exact
``tiny_stream_config`` shape — hashed over every output surface: all
probe and traceroute columns, the dataset-size summary, and the CHAOS
identity counts.  The same digest must fall out of a config
materialised through ``compose("default")`` today — from the epoch
engine at either shard count and with the shards on a worker pool, and
from the serial scalar oracle (``tests/vantage/scalar_campaign.py``).
Any drift in VP placement, scheduling, sampling or fault injection
caused by the config decomposition shows up here as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.scenarios import compose
from tests.streamutil import tiny_stream_config
from tests.vantage.scalar_campaign import run_scalar_campaign

#: sha256 over the tiny seed-77 campaign's outputs, recorded pre-refactor.
GOLDEN_DIGEST = (
    "61456d8b06b96d45ffe45d0467d516469548e77d2e9cf7bb01947197aab9c05d"
)


def campaign_digest(collector) -> str:
    h = hashlib.sha256()
    for name in sorted(collector.probe_columns()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(collector.probe_columns()[name]).tobytes())
    for name in sorted(collector.traceroute_columns()):
        h.update(name.encode())
        h.update(
            np.ascontiguousarray(collector.traceroute_columns()[name]).tobytes()
        )
    h.update(json.dumps(collector.summary(), sort_keys=True).encode())
    h.update(json.dumps(collector.identities, sort_keys=True).encode())
    return h.hexdigest()


def scenario_tiny_config(shards: int = 1, workers: int = 1) -> StudyConfig:
    """The tiny golden campaign config, derived through the scenario
    path: compose the default scenario, then shrink only the execution
    scale (the same shrink the smoke runner applies)."""
    config = compose("default").study_config(
        seed=77, shards=shards, workers=workers
    )
    tiny = tiny_stream_config(shards=shards, workers=workers)
    return replace(
        config,
        ring_scale=tiny.ring_scale,
        interval_scale=tiny.interval_scale,
        campaign_start=tiny.campaign_start,
        campaign_end=tiny.campaign_end,
        rtt_sample_every=tiny.rtt_sample_every,
        traceroute_sample_every=tiny.traceroute_sample_every,
        axfr_sample_every=tiny.axfr_sample_every,
        clean_transfer_keep_one_in=tiny.clean_transfer_keep_one_in,
    )


class TestGoldenByteIdentity:
    # (2, 2): the shards advance on the worker pool and hand their rows
    # back through mmap spills before the merge.
    @pytest.mark.parametrize("shards,workers", [(1, 1), (2, 1), (2, 2)])
    def test_default_scenario_matches_pre_refactor_digest(self, shards, workers):
        config = scenario_tiny_config(shards, workers)
        # the scenario stamp rides along but is pure provenance
        assert config.scenario_name == "default"
        assert config.without_scenario() == tiny_stream_config(
            shards=shards, workers=workers
        )
        study = StudyPipeline(config).run()
        assert campaign_digest(study.collector) == GOLDEN_DIGEST

    def test_scalar_oracle_matches_pre_refactor_digest(self):
        collector = run_scalar_campaign(scenario_tiny_config())
        assert campaign_digest(collector) == GOLDEN_DIGEST

    def test_classic_config_still_matches(self):
        # The flat, scenario-free path must stay pinned too: this is
        # the half that proves the *facade* didn't drift.
        study = StudyPipeline(tiny_stream_config()).run()
        assert campaign_digest(study.collector) == GOLDEN_DIGEST
