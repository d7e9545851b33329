"""Cross-process determinism.

Python randomises ``hash(str)`` per process; any stochastic component
keyed on it would make campaigns differ between runs.  This test runs a
tiny campaign in two subprocesses with *different* ``PYTHONHASHSEED``
values and asserts identical results — the regression guard for the
library's reproducibility guarantee.
"""

import os
import subprocess
import sys

SCRIPT = """
from repro.core import StudyConfig, StudyPipeline
from repro.util.timeutil import parse_ts

config = StudyConfig(
    seed=31, ring_scale=0.02, ring_min_per_region=1, interval_scale=96.0,
    campaign_start=parse_ts("2023-11-25"), campaign_end=parse_ts("2023-11-28"),
)
study = StudyPipeline(config).run()
counts = sorted(study.collector.change_counts().items())
rtts = study.collector.probe_columns()["rtt"][:50].tolist()
print(repr((counts[:40], [round(r, 4) for r in rtts])))
"""


def run_with_hashseed(seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestCrossProcessDeterminism:
    def test_identical_across_hash_seeds(self):
        a = run_with_hashseed("1")
        b = run_with_hashseed("424242")
        assert a == b
        assert a.strip()
