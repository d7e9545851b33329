"""``rootsim-serve`` as a subprocess, and the closed-loop client that
drives it: one keep-alive connection, each request sent only after the
previous response was read in full."""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import common

SERVE_CODE = (
    "import sys; from repro.serving.app import serve_main; "
    "sys.exit(serve_main(sys.argv[1:]))"
)
SERVE_COUNTED = Path(__file__).resolve().parent / "serve_counted.py"


class Server:
    """A ``rootsim-serve`` process on an ephemeral port.

    ``startup_s`` is spawn -> first 200 from ``/catalog`` (which loads
    the hosted dataset).  With *counts*, the server runs under
    ``serve_counted.py`` and writes its campaign and sealing counters to
    that file when terminated.  Always use as a context manager: the
    process is terminated and waited for on exit.
    """

    def __init__(
        self,
        src: Path,
        dataset_root: Path,
        timeout: float = 60.0,
        counts: Optional[Path] = None,
    ) -> None:
        env = dict(os.environ, PYTHONPATH=str(src))
        entry = ["-c", SERVE_CODE] if counts is None else [str(SERVE_COUNTED), str(counts)]
        spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *entry, str(dataset_root), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        try:
            self.port = self._read_port(timeout)
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=timeout)
            status, body, _ = self.request("GET", "/catalog")
            if status != 200:
                raise RuntimeError(f"/catalog answered {status}")
            self.startup_s = time.perf_counter() - spawned
            self.catalog = json.loads(body)
        except BaseException:
            self.close()
            raise

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.proc.poll() is not None:
                raise RuntimeError("rootsim-serve did not report its port")
            ready, _, _ = select.select([self.proc.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.proc.stdout.fileno(), 4096)
                if not chunk:
                    raise RuntimeError("rootsim-serve exited before binding")
                line += chunk
        # "rootsim-serve: 1 dataset(s) [...] on http://HOST:PORT (stdlib)"
        return int(line.split(b"http://", 1)[1].split(b" ", 1)[0].rsplit(b":", 1)[1])

    def request(
        self, method: str, path: str, headers: Optional[Dict[str, str]] = None
    ) -> Tuple[int, bytes, Dict[str, str]]:
        self.conn.request(method, path, headers=headers or {})
        response = self.conn.getresponse()
        body = response.read()
        return response.status, body, {k.lower(): v for k, v in response.getheaders()}

    def hwm_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def close(self) -> None:
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class Client:
    """Closed-loop request kinds over one server, checking every answer.

    ``expected`` maps analysis name -> the bytes in-process
    ``analysis_json_bytes`` returns on the same dataset; a 200 whose body
    differs, or a revalidation that is not a 304, is a failed operation.
    """

    def __init__(self, server: Server, expected: Dict[str, bytes], tracer: common.Tracer) -> None:
        self.server = server
        self.expected = expected
        self.tracer = tracer
        self.dataset_id = server.catalog["datasets"][0]["id"]
        self.etags: Dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.not_modified = 0
        self.failures: List[str] = []

    def _path(self, name: str) -> str:
        return f"/datasets/{self.dataset_id}/analyses/{name}"

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def get(self, name: str) -> float:
        """One GET of analysis *name*; its latency in seconds."""
        self.attempted += 1
        with self.tracer.span("serving.request"):
            started = time.perf_counter()
            status, body, headers = self.server.request("GET", self._path(name))
            elapsed = time.perf_counter() - started
        if status != 200:
            self._fail(f"GET {name}: status {status}")
        elif body != self.expected[name]:
            self._fail(f"GET {name}: body differs from analysis_json_bytes")
        else:
            self.etags[name] = headers.get("etag", "")
        return elapsed

    def revalidate(self, name: str) -> float:
        """One conditional GET that must be answered 304."""
        self.attempted += 1
        with self.tracer.span("serving.revalidate"):
            started = time.perf_counter()
            status, body, _ = self.server.request(
                "GET", self._path(name), {"If-None-Match": self.etags.get(name, "")}
            )
            elapsed = time.perf_counter() - started
        if status != 304 or body:
            self._fail(f"revalidate {name}: status {status}")
        else:
            self.not_modified += 1
        return elapsed

    def clear_cache(self) -> None:
        self.attempted += 1
        status, _, _ = self.server.request("POST", "/cache/clear")
        if status != 200:
            self._fail(f"POST /cache/clear: status {status}")

    def cold_round(self, order: List[str]) -> Dict[str, float]:
        """Clear the result cache, then GET every analysis once."""
        with self.tracer.span("serving.cold_round"):
            self.clear_cache()
            return {name: self.get(name) for name in order}

    def burst(self, order: List[str], passes: int, conditional: bool) -> List[float]:
        """Per-request latencies of *passes* passes over *order* (warm
        GETs, or 304 revalidations when *conditional*)."""
        call = self.revalidate if conditional else self.get
        name = "serving.revalidate_burst" if conditional else "serving.warm_burst"
        with self.tracer.span(name):
            return [call(analysis) for _ in range(passes) for analysis in order]

    def stats(self) -> Dict[str, object]:
        self.attempted += 1
        status, body, _ = self.server.request("GET", "/stats")
        if status != 200:
            self._fail(f"GET /stats: status {status}")
            return {}
        return json.loads(body)


def expected_bodies(dataset_dir: Path, tracer: common.Tracer, repeats: int = 1):
    """In-process reference bodies, with the best of *repeats* timings of
    each analysis on one loaded dataset (the ``analysis.<name>_s``
    layer; like the server, later repeats reuse what the dataset object
    memoised) and the best of *repeats* dataset loads."""
    from repro.analysis.summaries import analysis_json_bytes
    from repro.data import load_dataset

    load_s: List[float] = []
    for _ in range(repeats):
        with tracer.span("data.load"):
            started = time.perf_counter()
            dataset = load_dataset(dataset_dir)
            load_s.append(time.perf_counter() - started)
    bodies: Dict[str, bytes] = {}
    best: Dict[str, float] = {}
    for _ in range(repeats):
        for name in common.ANALYSES:
            with tracer.span(f"analysis.{name}"):
                started = time.perf_counter()
                body = analysis_json_bytes(dataset, name)
                elapsed = time.perf_counter() - started
            if bodies.setdefault(name, body) != body:
                raise RuntimeError(f"analysis {name} is not deterministic in-process")
            best[name] = min(best.get(name, elapsed), elapsed)
    return bodies, best, common.best_of(load_s)
