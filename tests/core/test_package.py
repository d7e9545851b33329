"""Package-level surface: version, public imports, no cycles, layering."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Modules of the campaign stack: an analysis-only process (load a saved
#: dataset, run every analysis) has no use for any of them.
CAMPAIGN_MODULES = (
    "repro.core.pipeline",
    "repro.core.results",
    "repro.netsim.routing",
    "repro.netsim.epochs",
    "repro.vantage.epoch_engine",
    "repro.vantage.probes",
)

_ANALYSIS_ONLY = """
import json, sys
from repro.analysis import registry
from repro.analysis.summaries import analysis_json_bytes
from repro.data import load_dataset

dataset = load_dataset(sys.argv[1])
for name in registry.names():
    analysis_json_bytes(dataset, name)
print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))
"""


PUBLIC_MODULES = [
    "repro",
    "repro.analysis",
    "repro.cli",
    "repro.core",
    "repro.dns",
    "repro.dnssec",
    "repro.faults",
    "repro.geo",
    "repro.netsim",
    "repro.passive",
    "repro.reportgen",
    "repro.resolver",
    "repro.rss",
    "repro.util",
    "repro.vantage",
    "repro.zone",
]


class TestPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("module", PUBLIC_MODULES)
    def test_imports_cleanly(self, module):
        importlib.import_module(module)

    def test_every_public_module_has_docstring(self):
        for module_name in PUBLIC_MODULES:
            module = importlib.import_module(module_name)
            assert module.__doc__, module_name
            assert len(module.__doc__.strip()) > 40, module_name

    def test_analysis_exports(self):
        from repro import analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_resolver_exports(self):
        from repro import resolver

        for name in resolver.__all__:
            assert hasattr(resolver, name), name

    def test_core_exports(self):
        from repro import core
        from repro.core import StudyConfig, StudyPipeline  # noqa: F401

        for name in core.__all__:
            assert hasattr(core, name), name


def test_analysis_only_process_skips_campaign_stack(tmp_path):
    """Loading a saved dataset and rendering all 13 analyses imports no
    campaign module (checked in a fresh process: ``sys.modules`` here
    already holds the whole package)."""
    from repro.core import StudyPipeline

    from tests.streamutil import tiny_stream_config

    StudyPipeline(tiny_stream_config()).run().save(tmp_path / "ds")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _ANALYSIS_ONLY, str(tmp_path / "ds"),
         *CAMPAIGN_MODULES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
