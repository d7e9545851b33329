"""``rootsim-serve``'s HTTP/1.1 subset, spoken over a raw socket.

``http.client`` hides framing (pipelining, interim ``100`` answers,
who closes the connection), so every request here is written byte for
byte and every response read back line by line.  The route checks pin
that the socket carries exactly :meth:`AnalysisService.handle`'s
:class:`~repro.serving.service.Response`: status, ``Content-Type``,
``ETag``, ``Content-Length`` and body.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from email.utils import formatdate, parsedate_to_datetime
from pathlib import Path
from typing import Dict, Tuple

import pytest

from repro.serving import AnalysisService, Catalog, run_server

ANALYSIS = "/datasets/mini/analyses/stability"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: What the server used to be built on; a serving process needs none.
HTTP_FRAMEWORK_MODULES = ("http.server", "http.client", "email.parser", "ssl")

_SERVE_ONE = """
import json, socket, sys, threading
from repro.serving.app import run_server
from repro.serving.catalog import Catalog
from repro.serving.service import AnalysisService

server = run_server(AnalysisService(Catalog.from_paths([sys.argv[1]])), port=0)
threading.Thread(target=server.serve_forever, daemon=True).start()
with socket.create_connection(server.server_address[:2]) as sock:
    sock.sendall(b"GET /catalog HTTP/1.1\\r\\nHost: x\\r\\nConnection: close\\r\\n\\r\\n")
    reply = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        reply += chunk
assert reply.startswith(b"HTTP/1.1 200 "), reply[:200]
print(json.dumps(sorted(set(sys.argv[2:]) & set(sys.modules))))
"""


@pytest.fixture(scope="module")
def dataset_dir(mini_pipeline, tmp_path_factory):
    return mini_pipeline.results().save(
        tmp_path_factory.mktemp("http") / "mini", passive=False
    )


@pytest.fixture(scope="module")
def served(dataset_dir):
    """(service, port) of a server running on a thread."""
    service = AnalysisService(Catalog.from_paths([dataset_dir]))
    server = run_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield service, server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


def request(
    method: str, target: str, *headers: str, version: str = "HTTP/1.1", body: bytes = b""
) -> bytes:
    lines = [f"{method} {target} {version}", "Host: 127.0.0.1", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class Raw:
    """One client connection, read as bytes."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.rfile = self.sock.makefile("rb")

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def response(self, body: bool = True) -> Tuple[int, Dict[str, str], bytes]:
        """(status, lower-cased headers, body) of the next response;
        ``body=False`` for a bodyless answer (to ``HEAD``, or a ``100``)."""
        line = self.rfile.readline()
        assert line.startswith(b"HTTP/1.1 "), line[:200]
        status = int(line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = self.rfile.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0")) if body else 0
        return status, headers, self.rfile.read(length)

    def at_eof(self) -> bool:
        """Whether the server closed its side (no bytes are pending)."""
        return self.rfile.read(1) == b""

    def idle(self, seconds: float) -> bool:
        """Whether the connection stays silent and open for *seconds*."""
        readable, _, _ = select.select([self.sock], [], [], seconds)
        return not readable

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()


@pytest.fixture
def raw(served):
    client = Raw(served[1])
    yield client
    client.close()


def assert_same(answer, expected) -> None:
    """The socket answer carries exactly the service's ``Response``."""
    status, headers, body = answer
    assert status == expected.status
    assert body == expected.body
    assert headers.get("content-length") == str(len(expected.body))
    assert headers.get("content-type") == expected.headers.get("Content-Type")
    assert headers.get("etag") == expected.headers.get("ETag")


def assert_refused(raw, status: int) -> None:
    """A protocol error: status line, canonical JSON error body,
    ``Connection: close``, then the server hangs up."""
    code, headers, body = raw.response()
    assert code == status, body[:200]
    assert headers["content-type"] == "application/json; charset=utf-8"
    assert headers["connection"] == "close"
    assert set(json.loads(body)) == {"error"}
    assert raw.at_eof()


class TestKeepAlive:
    def test_pipelined_gets_are_answered_in_order(self, served, raw):
        service, _ = served
        paths = ["/healthz", ANALYSIS, "/catalog", ANALYSIS]
        raw.send(b"".join(request("GET", path) for path in paths))
        for path in paths:
            assert_same(raw.response(), service.handle("GET", path))
        assert raw.idle(0.2)

    def test_connection_close_closes(self, raw):
        raw.send(request("GET", "/healthz", "Connection: close"))
        assert raw.response()[0] == 200
        assert raw.at_eof()

    def test_http10_closes(self, raw):
        raw.send(request("GET", "/healthz", version="HTTP/1.0"))
        assert raw.response()[0] == 200
        assert raw.at_eof()

    def test_http10_keep_alive_stays_open(self, raw):
        raw.send(request("GET", "/healthz", "Connection: keep-alive", version="HTTP/1.0"))
        assert raw.response()[0] == 200
        raw.send(request("GET", "/healthz"))
        assert raw.response()[0] == 200

    def test_idle_connection_is_not_closed(self, raw):
        raw.send(request("GET", "/healthz"))
        assert raw.response()[0] == 200
        assert raw.idle(1.5)
        raw.send(request("GET", "/healthz"))
        assert raw.response()[0] == 200

    def test_date_header_is_an_http_date(self, raw):
        raw.send(request("GET", "/healthz"))
        date = raw.response()[1]["date"]
        stamp = parsedate_to_datetime(date).timestamp()
        assert formatdate(stamp, usegmt=True) == date
        assert abs(stamp - time.time()) < 5

    def test_expect_100_continue(self, raw):
        raw.send(request(
            "POST", "/cache/clear", "Expect: 100-continue", "Content-Length: 0"
        ))
        assert raw.response(body=False)[0] == 100
        status, _, body = raw.response()
        assert status == 200
        assert body.startswith(b'{"cleared":')


class TestRoutesMatchTheService:
    @pytest.mark.parametrize(
        "target,query",
        [
            ("/catalog", {}),
            ("/healthz", {}),
            (ANALYSIS, {}),
            ("/datasets/mini/analyses/no-such-analysis", {}),
            ("/no/such/route", {}),
            (ANALYSIS + "?fingerprint=scenario:bad", {"fingerprint": "scenario:bad"}),
        ],
    )
    def test_get(self, served, raw, target, query):
        service, _ = served
        raw.send(request("GET", target))
        answer = raw.response()
        assert_same(answer, service.handle("GET", target.split("?")[0], query))

    def test_not_modified(self, served, raw):
        service, _ = served
        etag = service.handle("GET", ANALYSIS).headers["ETag"]
        raw.send(request("GET", ANALYSIS, f"If-None-Match: {etag}"))
        answer = raw.response()
        assert answer[0] == 304
        assert_same(answer, service.handle("GET", ANALYSIS, {}, {"if-none-match": etag}))

    def test_stats(self, served, raw):
        service, _ = served
        raw.send(request("GET", "/stats"))
        assert_same(raw.response(), service.handle("GET", "/stats"))

    def test_cache_clear(self, served, raw):
        service, _ = served
        service.handle("POST", "/cache/clear")
        service.handle("GET", ANALYSIS)
        raw.send(request("POST", "/cache/clear", "Content-Length: 0"))
        answer = raw.response()
        service.handle("GET", ANALYSIS)
        expected = service.handle("POST", "/cache/clear")
        assert expected.body == b'{"cleared":1}'
        assert_same(answer, expected)


class TestRequestBodies:
    def test_declared_body_is_drained(self, raw):
        raw.send(
            request("POST", "/cache/clear", "Content-Length: 5", body=b"hello")
            + request("GET", "/healthz")
        )
        assert raw.response()[0] == 200
        assert raw.response()[0] == 200
        assert raw.idle(0.2)

    def test_body_after_100_continue_is_drained(self, raw):
        raw.send(request(
            "POST", "/cache/clear", "Expect: 100-continue", "Content-Length: 5"
        ))
        assert raw.response(body=False)[0] == 100
        raw.send(b"hello" + request("GET", "/healthz"))
        assert raw.response()[0] == 200
        assert raw.response()[0] == 200

    def test_chunked_body_is_refused(self, raw):
        raw.send(request(
            "POST", "/cache/clear", "Transfer-Encoding: chunked",
            body=b"5\r\nhello\r\n0\r\n\r\n",
        ))
        assert_refused(raw, 411)


class TestProtocolErrors:
    def test_malformed_request_line_gets_400(self, raw):
        raw.send(b"GARBAGE\r\n")
        assert_refused(raw, 400)

    def test_unsupported_version_gets_505(self, raw):
        raw.send(request("GET", "/healthz", version="HTTP/2.0"))
        assert_refused(raw, 505)

    def test_long_request_line_gets_414(self, raw):
        # exactly what the server reads before refusing: no unread bytes
        # are left to turn its close into a reset
        raw.send(b"GET /" + b"a" * (65537 - 5))
        assert_refused(raw, 414)

    def test_too_many_header_lines_get_431(self, raw):
        lines = "".join(f"X-Filler-{i}: {i}\r\n" for i in range(101))
        raw.send(f"GET /healthz HTTP/1.1\r\n{lines}".encode())
        assert_refused(raw, 431)

    def test_unsupported_method_gets_501(self, raw):
        raw.send(request("PUT", "/catalog"))
        assert_refused(raw, 501)

    def test_head_gets_a_bodyless_501(self, raw):
        raw.send(request("HEAD", "/catalog"))
        status, headers, _ = raw.response(body=False)
        assert (status, headers["connection"]) == (501, "close")
        assert raw.at_eof()


def test_serving_process_loads_no_http_framework(dataset_dir):
    """Importing the server and answering ``/catalog`` loads none of the
    stdlib HTTP framework (checked in a fresh process: ``sys.modules``
    here already holds the test clients' imports)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SERVE_ONE, str(dataset_dir), *HTTP_FRAMEWORK_MODULES],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
