"""Shared fixtures for the table/figure reproduction benchmarks.

One campaign and one set of passive captures are built per session and
shared read-only by every benchmark; each bench then times its *analysis*
step and prints the regenerated table/figure rows.

Analyses are constructed by name through the ``analyze`` fixture (the
registry surface in :mod:`repro.analysis.registry`), never by
hand-wiring constructors: ``analyze("stability", results)`` for
campaign-side analyses, ``analyze("trafficshift", aggregate=capture)``
for passive ones.
"""

from __future__ import annotations

import pytest

from repro.core import StudyConfig, StudyPipeline
from repro.passive.clients import ISP_PROFILE, build_client_population
from repro.passive.isp import IspCapture
from repro.passive.ixp import build_ixp_captures
from repro.util.rng import RngFactory
from repro.util.timeutil import DAY, HOUR, parse_ts

BENCH_SEED = 2024


def pytest_configure(config):
    """Benchmarks print the tables/figures they regenerate; surface the
    captured output of passed benches in the run report (equivalent to
    passing ``-rP`` for benchmark runs only)."""
    if "P" not in config.option.reportchars:
        config.option.reportchars += "P"


@pytest.fixture(scope="session")
def study():
    """A full-timeline campaign at benchmark scale (~67 VPs, 24 h rounds,
    dense sampling).  Covers every event on the Figure 2 calendar."""
    config = StudyConfig(
        seed=BENCH_SEED,
        ring_scale=0.1,
        ring_min_per_region=8,
        interval_scale=48.0,
        rtt_sample_every=1,
        traceroute_sample_every=2,
        axfr_sample_every=2,
        clean_transfer_keep_one_in=200,
    )
    pipeline = StudyPipeline(config)
    pipeline.run()
    return pipeline


@pytest.fixture(scope="session")
def results(study):
    return study.results()


@pytest.fixture(scope="session")
def analyze():
    """Construct an analysis by registry name: ``analyze(name, results)``
    or ``analyze(name, aggregate=capture)`` for passive analyses."""
    from repro.analysis import registry

    return registry.run


@pytest.fixture(scope="session")
def isp_capture():
    clients = build_client_population(ISP_PROFILE, RngFactory(BENCH_SEED))
    return IspCapture(clients, seed=BENCH_SEED)


@pytest.fixture(scope="session")
def isp_pre_change_day(isp_capture):
    """Hourly traffic on 2023-10-07/08 (Figure 7 left panel)."""
    return isp_capture.capture(
        parse_ts("2023-10-07"), parse_ts("2023-10-09"), bucket_seconds=HOUR
    )


@pytest.fixture(scope="session")
def isp_post_change_month(isp_capture):
    """Daily traffic 2024-02-05 .. 2024-03-04 (Figure 7 middle panel)."""
    return isp_capture.capture(parse_ts("2024-02-05"), parse_ts("2024-03-04"))


@pytest.fixture(scope="session")
def isp_april_week(isp_capture):
    """Daily traffic 2024-04-22 .. 2024-04-29 (Figure 7 right panel)."""
    return isp_capture.capture(parse_ts("2024-04-22"), parse_ts("2024-04-29"))


@pytest.fixture(scope="session")
def ixp_captures():
    return build_ixp_captures(
        RngFactory(BENCH_SEED).fork("ixp"), seed=BENCH_SEED, clients_per_ixp=120
    )
