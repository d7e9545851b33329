"""The traced query server's counters see a campaign run by either
driver, so the query design check ("no campaign round in the server")
can fail."""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
SRC = HERE.parent / "src"

SCRIPT = """
import json, sys, tempfile
import common, serve_counted
from repro.serving.app import serve_main  # same import order as serve_counted.main
serve_counted.install_counters()
common.SHAPES["save-churn"] = {
    "scenario": "default", "overlays": (), "world": {"ring_scale": 0.02},
    "platform": {"interval_scale": 96.0, "campaign_start": "2023-11-25",
                 "campaign_end": "2023-11-28"},
}
from repro.core.pipeline import StudyPipeline
from repro.core.streaming import run_streaming_campaign
config = common.study_config("save-churn", 5)
StudyPipeline(config).run()
materialized = serve_counted.ROUNDS[0]
run_streaming_campaign(config, tempfile.mkdtemp(dir=sys.argv[1]), checkpoint_every=4)
print(json.dumps([materialized, serve_counted.ROUNDS[0]]))
"""


def test_counters_see_both_campaign_drivers(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        env=env, stdout=subprocess.PIPE, check=True, timeout=300,
    )
    materialized, total = json.loads(proc.stdout.decode().splitlines()[-1])
    assert materialized > 0
    assert total == 2 * materialized
