"""The ``rootsim-serve`` startup line, read as a client reads it.

Load generators start the server on ``--port 0`` and learn the bound
port from the first stdout line, so its format is an interface: this
test starts ``serve_main`` in a subprocess, pins that line, and makes
one request on the port it reports.
"""

from __future__ import annotations

import http.client
import os
import re
import select
import subprocess
import sys
from pathlib import Path

import repro

SERVE_CODE = (
    "import sys; from repro.serving.app import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)

STARTUP_LINE = re.compile(
    r"^rootsim-serve: 1 dataset\(s\) \[.+\] on http://127\.0\.0\.1:(\d+) \(stdlib\)$"
)


def _first_line(proc: subprocess.Popen, timeout: float = 60.0) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    assert ready, "rootsim-serve printed nothing"
    return proc.stdout.readline().decode().rstrip("\n")


def test_startup_line_reports_a_live_port(mini_pipeline, tmp_path):
    dataset_dir = mini_pipeline.results().save(str(tmp_path / "mini"), passive=False)
    src = Path(repro.__file__).resolve().parent.parent
    proc = subprocess.Popen(
        [sys.executable, "-c", SERVE_CODE, str(dataset_dir), "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    try:
        line = _first_line(proc)
        match = STARTUP_LINE.match(line)
        assert match, line
        conn = http.client.HTTPConnection("127.0.0.1", int(match.group(1)), timeout=60)
        conn.request("GET", "/catalog")
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 200
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
