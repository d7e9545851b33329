"""Warm serving: the result cache answers at least ``MIN_WARM_SPEEDUP``
times faster than computing, under concurrent keep-alive load.

A child process (``tests/gates/_child.py``) runs the serving campaign,
saves it, and times each analysis's JSON document once against a fresh
load.  ``rootsim-serve`` then serves the dataset from its own process,
over real sockets:

* the warm-cache p50 of each of the two heaviest analyses must be at
  most 1/``MIN_WARM_SPEEDUP`` of its cold time;
* keep-alive clients at each of ``CONCURRENCY`` levels, then
  conditional (``If-None-Match``) clients at the highest level, loop
  over every analysis for ``DURATION_S`` seconds and get no error: every
  200 body equals the child's ``analysis_json_bytes`` and every 304 is
  empty.
"""

from __future__ import annotations

import http.client
import subprocess
import sys
import threading
import time

import pytest

from tests.gates._child import child_env, run_child

MIN_WARM_SPEEDUP = 10.0
CONCURRENCY = (1, 4, 16)
DURATION_S = 2.0
WARM_SAMPLES = 30


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """(port, dataset id, cold seconds, expected bodies) of a running
    ``rootsim-serve`` over the serving dataset."""
    directory = tmp_path_factory.mktemp("serving") / "ds"
    cold = run_child("serving", str(directory))
    proc = subprocess.Popen(
        [sys.executable, "-c",
         "import sys; from repro.serving.app import serve_main; "
         "sys.exit(serve_main(sys.argv[1:]))",
         str(directory), "--port", "0"],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "http://" in line, f"server did not start: {line!r}"
        port = int(line.rsplit(":", 1)[1].split()[0])
        bodies = {
            name: body.encode("utf-8") for name, body in cold["bodies"].items()
        }
        yield port, directory.name, cold["cold_s"], bodies
    finally:
        proc.terminate()
        proc.wait(timeout=30)


def fetch(port, path, method="GET"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_warm_cache_beats_cold_computation(served):
    port, dataset_id, cold, bodies = served
    heaviest = sorted(cold, key=cold.get, reverse=True)[:2]
    for name in heaviest:
        path = f"/datasets/{dataset_id}/analyses/{name}"
        samples = []
        for _ in range(WARM_SAMPLES):
            started = time.perf_counter()
            status, body = fetch(port, path)
            samples.append(time.perf_counter() - started)
            assert (status, body) == (200, bodies[name]), name
        warm = sorted(samples)[len(samples) // 2]
        assert cold[name] >= MIN_WARM_SPEEDUP * warm, (
            f"{name}: cold {cold[name] * 1e3:.1f} ms, warm p50 "
            f"{warm * 1e3:.2f} ms ({cold[name] / warm:.1f}x)"
        )


def load(port, dataset_id, bodies, clients, conditional):
    """*clients* keep-alive connections looping over every analysis for
    ``DURATION_S``; returns (responses, errors)."""
    names = sorted(bodies)
    stop_at = time.perf_counter() + DURATION_S
    errors = []
    counts = [0] * clients

    def client(worker):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        etags = {}
        step = worker  # stagger the starting analysis across clients
        try:
            while time.perf_counter() < stop_at:
                name = names[step % len(names)]
                step += 1
                headers = {}
                if conditional and name in etags:
                    headers["If-None-Match"] = etags[name]
                conn.request(
                    "GET", f"/datasets/{dataset_id}/analyses/{name}",
                    headers=headers,
                )
                response = conn.getresponse()
                body = response.read()
                counts[worker] += 1
                if response.status == 200 and body == bodies[name]:
                    etags[name] = response.headers["ETag"]
                elif not (response.status == 304 and body == b""
                          and name in etags):
                    errors.append(f"{name}: {response.status} {body[:120]!r}")
                    return
        except (OSError, http.client.HTTPException) as exc:
            errors.append(f"client {worker}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(worker,))
        for worker in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sum(counts), errors


def test_concurrent_clients_get_the_documents(served):
    port, dataset_id, _cold, bodies = served
    levels = [(clients, False) for clients in CONCURRENCY]
    levels.append((CONCURRENCY[-1], True))
    for clients, conditional in levels:
        assert fetch(port, "/cache/clear", method="POST")[0] == 200
        for name in bodies:  # one warm pass: measure steady state
            assert fetch(port, f"/datasets/{dataset_id}/analyses/{name}")[0] == 200
        responses, errors = load(port, dataset_id, bodies, clients, conditional)
        assert not errors, (clients, conditional, errors[:5])
        assert responses >= clients, (clients, conditional)
