"""The bytes of every analysis document, pinned.

``analysis_json_bytes`` is what ``rootsim-analyze --json`` prints and
what the server returns, so a change to how an analysis computes its
numbers must leave these bytes alone unless it means to change a
result.  The digests below were taken over the session ``mini_study``
campaign after a save and reload; a mismatch names the analysis whose
output moved.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import registry
from repro.analysis.summaries import analysis_json_bytes
from repro.data import load_dataset

PINNED_SHA256 = {
    "clientbehavior": "b687d09d9e68285bfc7c2f93e6c76c38b2ab74516d0e62f8ba25b78f41a35540",
    "colocation": "5b954c2f55f3e661ff935224657447e28634bfc20fcf7a83cc6444d8f2ef28d8",
    "coverage": "24a91ed4f81ac1f53cb4ab5a00a8483777d6e27948f4cbbd27511658f5c58528",
    "distance": "181e51951f62fd4d8bef0a74d50bc104d00c84304ba91f3076456e45b4758b53",
    "paths": "479908d6f0e4b8149c64eb78667adea4e863b415017b9180152b0bde4547a0bd",
    "querymix": "6403b641eaaf2936bed6645cf4c0bfb6f3f7b72bffe7a963d47b4d477edfffa0",
    "regional_rtt": "1d406f76281af97a51d4aa7e0bd5a1fe33608c9625d619fc8fa637de592755b7",
    "rssac": "41ebfec5cb6b35565d5ca8c83d3281867731189c9fa9e9145f4d73bebb686906",
    "rtt": "f96b97dec3faa41b4d88108a5c02c2a0b02c170052aaf74d9959f363adf2beb1",
    "stability": "a639294eb43f1171afab3df2e9d04a11a178d37f92c1f4609e7550cbd6a8ba19",
    "trafficshift": "f72d3fd673a9a2a1f10fd8555d235d289cebfa4457ff928ababac2b5eafb18ec",
    "variability": "13a6569124a8481ed03f24902edb5819b565101f386342f36a77defd27e773ba",
    "zonemd_audit": "ec38e1b9aaf39f83a3584f83f3dde1b1f89a740c9f31e5736f3115172b28d982",
}


@pytest.fixture(scope="module")
def reloaded(mini_pipeline, tmp_path_factory):
    directory = tmp_path_factory.mktemp("pinned") / "mini"
    return load_dataset(mini_pipeline.results().save(directory))


def test_every_analysis_is_pinned():
    assert sorted(PINNED_SHA256) == registry.names()


@pytest.mark.parametrize("name", sorted(PINNED_SHA256))
def test_analysis_bytes_are_pinned(reloaded, name):
    digest = hashlib.sha256(analysis_json_bytes(reloaded, name)).hexdigest()
    assert digest == PINNED_SHA256[name], name
