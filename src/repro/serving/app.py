"""The HTTP server and the ``rootsim-serve`` entry point.

Each connection gets one thread (``socketserver.ThreadingTCPServer``)
running a short HTTP/1.1 keep-alive loop: read the request line and
headers from the buffered socket file with bytes operations, hand
``(method, path, query, headers)`` to
:meth:`~repro.serving.service.AnalysisService.handle`, and write the
status line, headers and body with one ``sendall``.  The served bytes,
error answers included, are the service's bytes; routing, statuses and
caching all live there.

The HTTP subset served:

* ``GET`` and ``POST``; any other method is answered ``501``.
* Keep-alive and pipelining: an HTTP/1.1 connection stays open until
  the client sends ``Connection: close`` or hangs up; an HTTP/1.0 one
  closes after each answer unless it sends ``Connection: keep-alive``.
  There is no idle timeout.
* A request body must declare its ``Content-Length``; it is read and
  discarded.  ``Transfer-Encoding`` bodies are refused with ``411``.
* ``Expect: 100-continue`` gets an interim ``100 Continue``.
* Protocol errors — a malformed request line (``400``), an HTTP major
  version other than 1 (``505``), a request line over 64 KiB (``414``),
  a header line over 64 KiB or more than 100 header lines (``431``) —
  are answered with a status line, the service's canonical JSON
  ``{"error": ...}`` body and ``Connection: close``, then the
  connection is closed.
"""

from __future__ import annotations

import argparse
import socketserver
import sys
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.data.schema import DatasetError
from repro.serving.cache import ResultCache
from repro.serving.catalog import Catalog
from repro.serving.service import AnalysisService, Response, error_response

__all__ = ["run_server", "serve_main"]

MAX_LINE = 65536
MAX_HEADERS = 100

_REASONS = {
    100: "Continue",
    200: "OK",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    411: "Length Required",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    505: "HTTP Version Not Supported",
}
_STATUS_LINES = {
    status: f"HTTP/1.1 {status} {reason}\r\n".encode() for status, reason in _REASONS.items()
}
_BLANK = (b"\r\n", b"\n")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("", "Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")
# (unix second, its Date header line): formatted at most once per second
_date = (0, b"")


def _date_line() -> bytes:
    global _date
    now = int(time.time())
    second, line = _date
    if second != now:
        t = time.gmtime(now)
        line = (
            f"Date: {_DAYS[t.tm_wday]}, {t.tm_mday:02d} {_MONTHS[t.tm_mon]} "
            f"{t.tm_year} {t.tm_hour:02d}:{t.tm_min:02d}:{t.tm_sec:02d} GMT\r\n"
        ).encode()
        _date = (now, line)
    return line


class ProtocolError(Exception):
    """A request the HTTP layer refuses before the service sees it."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _request_line(line: bytes) -> Tuple[str, str, bool]:
    """``(method, target, is HTTP/1.1 or later)`` of a request line."""
    if len(line) > MAX_LINE:
        raise ProtocolError(414, f"request line longer than {MAX_LINE} bytes")
    words = line.split()
    if len(words) != 3:
        raise ProtocolError(400, f"malformed request line {line.rstrip()[:200]!r}")
    method, target, version = words
    major, dot, minor = version[5:].partition(b".")
    if not (
        version.startswith(b"HTTP/") and dot
        and major.isdigit() and minor.isdigit()
        and len(major) <= 10 and len(minor) <= 10
    ):
        raise ProtocolError(400, f"malformed HTTP version {version[:200]!r}")
    if int(major) != 1:
        raise ProtocolError(505, f"HTTP version {version.decode('latin-1')} is not supported")
    return method.decode("latin-1"), target.decode("latin-1"), int(minor) >= 1


def _read_headers(rfile) -> Dict[str, str]:
    """The header block, names lower-cased (the last repeat wins)."""
    headers: Dict[str, str] = {}
    count = 0
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if line in _BLANK:
            return headers
        if not line:
            raise ConnectionResetError("client closed mid-request")
        if len(line) > MAX_LINE:
            raise ProtocolError(431, f"header line longer than {MAX_LINE} bytes")
        count += 1
        if count > MAX_HEADERS:
            raise ProtocolError(431, f"more than {MAX_HEADERS} header lines")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or name[:1] in (" ", "\t"):  # no name, or obs-fold
            raise ProtocolError(400, f"malformed header line {line.rstrip()[:200]!r}")
        headers[name.strip().lower()] = value.strip()


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    """``(path, query)``; a repeated query parameter keeps its last value."""
    if target.startswith("//"):  # a path, never a scheme-relative URL
        target = "/" + target.lstrip("/")
    parsed = urlsplit(target)
    if not parsed.query:
        return parsed.path, {}
    return parsed.path, {key: values[-1] for key, values in parse_qs(parsed.query).items()}


def _persistence(connection: Optional[str], http11: bool) -> Tuple[bool, bytes]:
    """Whether the connection stays open after this answer, and the
    ``Connection`` header line saying so (none for HTTP/1.1 keep-alive)."""
    tokens = {token.strip() for token in connection.lower().split(",")} if connection else ()
    if "close" not in tokens:
        if http11:
            return True, b""
        if "keep-alive" in tokens:
            return True, b"Connection: keep-alive\r\n"
    return False, b"Connection: close\r\n"


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: answer requests until it closes."""

    # without TCP_NODELAY, Nagle + delayed ACK stalls every keep-alive
    # response ~40ms — two orders of magnitude over the warm-cache cost
    disable_nagle_algorithm = True

    def handle(self) -> None:
        try:
            while self._serve_one():
                pass
        except OSError:
            pass  # the client hung up mid-exchange

    def _serve_one(self) -> bool:
        """Answer one request; whether the connection stays open."""
        line = self.rfile.readline(MAX_LINE + 1)
        while line in _BLANK:  # blank lines before a request are ignored
            line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            return False
        method = ""
        try:
            method, target, http11 = _request_line(line)
            headers = _read_headers(self.rfile)
            self._drain_body(headers, http11)
            if method not in ("GET", "POST"):
                raise ProtocolError(501, f"unsupported method {method!r}")
        except ProtocolError as exc:
            self._send(error_response(exc.status, str(exc)), b"Connection: close\r\n",
                       with_body=method != "HEAD")
            return False
        path, query = _split_target(target)
        response = self.server.service.handle(method, path, query, headers)
        keep_alive, connection = _persistence(headers.get("connection"), http11)
        self._send(response, connection)
        return keep_alive

    def _drain_body(self, headers: Dict[str, str], http11: bool) -> None:
        """Read and discard a declared request body, so the next request
        on the connection starts where this one ends."""
        if "transfer-encoding" in headers:
            raise ProtocolError(
                411, "a request body must declare its Content-Length; "
                "Transfer-Encoding is not supported"
            )
        length = headers.get("content-length")
        if length is None:
            return
        if not (length.isascii() and length.isdigit()):
            raise ProtocolError(400, f"malformed Content-Length {length[:200]!r}")
        if http11 and headers.get("expect", "").lower() == "100-continue":
            self.connection.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
        remaining = int(length)
        while remaining:
            chunk = self.rfile.read(min(remaining, MAX_LINE))
            if not chunk:
                raise ConnectionResetError("client closed mid-body")
            remaining -= len(chunk)

    def _send(self, response: Response, connection: bytes, with_body: bool = True) -> None:
        """Status line, the service's headers, Date, Connection, length
        and body, in one write; a 304 announces ``Content-Length: 0``."""
        body = response.body
        status_line = _STATUS_LINES.get(response.status)
        if status_line is None:
            status_line = f"HTTP/1.1 {response.status} \r\n".encode()
        fields = "".join(f"{name}: {value}\r\n" for name, value in response.headers.items())
        self.connection.sendall(b"".join((
            status_line,
            fields.encode("latin-1"),
            _date_line(),
            connection,
            b"Content-Length: %d\r\n\r\n" % len(body),
            body if with_body else b"",
        )))


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: AnalysisService) -> None:
        self.service = service
        super().__init__(address, _Connection)


def run_server(
    service: AnalysisService, host: str = "127.0.0.1", port: int = 0
) -> socketserver.ThreadingTCPServer:
    """Bind the server; ``port=0`` picks an ephemeral port.

    Returns the bound server — the caller owns ``serve_forever()`` /
    ``shutdown()``, which lets tests and the bench run it on a thread.
    """
    return _Server((host, port), service)


def serve_main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rootsim-serve",
        description=(
            "Serve cached analysis results over saved rootsim datasets "
            "and live streaming checkpoints."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help=(
            "dataset/checkpoint directories to host, or directories "
            "whose children are scanned for them"
        ),
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8141,
        help="bind port (0 picks an ephemeral port, printed on startup)",
    )
    parser.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        help="result-cache entry bound",
    )
    parser.add_argument(
        "--cache-mb",
        type=float,
        default=256.0,
        help="result-cache byte bound, in MiB",
    )
    args = parser.parse_args(argv)

    try:
        catalog = Catalog.from_paths(args.paths)
    except (DatasetError, OSError) as exc:
        print(f"rootsim-serve: {exc}", file=sys.stderr)
        return 2
    cache = ResultCache(
        max_entries=args.cache_entries,
        max_bytes=int(args.cache_mb * 1024 * 1024),
    )
    service = AnalysisService(catalog, cache=cache)

    server = run_server(service, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(
        f"rootsim-serve: {len(catalog)} dataset(s) "
        f"[{', '.join(catalog.ids())}] on http://{host}:{port} (stdlib)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(serve_main())
