"""The HTTP server and the ``rootsim-serve`` entry point.

The server is the standard library's ``ThreadingHTTPServer``: zero
dependencies, one thread per connection, good for thousands of requests
per second against the warm cache.  Every request goes to
:meth:`~repro.serving.service.AnalysisService.handle`, so the served
bytes — error answers included — are the service's bytes.
"""

from __future__ import annotations

import argparse
import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import List, Optional
from urllib.parse import parse_qs, urlsplit

from repro.data.schema import DatasetError
from repro.serving.cache import ResultCache
from repro.serving.catalog import Catalog
from repro.serving.service import AnalysisService

__all__ = ["run_server", "serve_main"]


def _make_handler(service: AnalysisService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"  # keep-alive: the bench reuses connections
        # without TCP_NODELAY, Nagle + delayed ACK stalls every keep-alive
        # response ~40ms — two orders of magnitude over the warm-cache cost
        disable_nagle_algorithm = True
        server_version = "rootsim-serve"

        def _dispatch(self, method: str) -> None:
            parsed = urlsplit(self.path)
            query = {
                key: values[-1]
                for key, values in parse_qs(parsed.query).items()
            }
            headers = {key.lower(): value for key, value in self.headers.items()}
            response = service.handle(method, parsed.path, query, headers)
            self.send_response(response.status)
            for key, value in response.headers.items():
                self.send_header(key, value)
            # HTTP/1.1 keep-alive needs an explicit length, 304s included
            self.send_header("Content-Length", str(len(response.body)))
            self.end_headers()
            if response.body:
                self.wfile.write(response.body)

        def do_GET(self) -> None:
            self._dispatch("GET")

        def do_POST(self) -> None:
            self._dispatch("POST")

        def log_message(self, format: str, *args) -> None:
            pass  # per-request stderr chatter would drown the bench

    return Handler


def run_server(
    service: AnalysisService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Bind the server; ``port=0`` picks an ephemeral port.

    Returns the bound server — the caller owns ``serve_forever()`` /
    ``shutdown()``, which lets tests and the bench run it on a thread.
    """
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    server.daemon_threads = True
    return server


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
