"""HTTP stub emulating an external generative resolver, for tests and local development.

Speaks the wire protocol of RemoteResolver: POST /v1/resolve with
{"base", "v1", "v2", "input_token_limit", "output_token_limit"} returning
{"lines": [...], "truncated": bool}, over HTTP/1.1 connections kept open
between requests. The configured mode selects one of the canned behaviors
(echo-v1, echo-v2, empty, truncate, slow, garbage). The slow mode's default
delay, ``DEFAULT_SLOW_DELAY``, is stated in ``sbcr.resolvers`` and re-exported
here, so the CLI's parser reads it without loading this module's HTTP server.
"""

from __future__ import annotations

import contextlib
import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .resolvers import DEFAULT_SLOW_DELAY, DEFAULT_STUB_MODE, MAX_BODY_BYTES, check_stub, stub_response


class _StubHandler(BaseHTTPRequestHandler):
    server: "StubServer"
    protocol_version = "HTTP/1.1"  # keeps a connection open for the client's next request
    disable_nagle_algorithm = True  # else a reply's body waits on the client's delayed ACK of its head

    def log_message(self, format, *args):  # quiet by default
        if self.server.verbose:
            super().log_message(format, *args)

    def handle(self):
        try:
            super().handle()
        except ConnectionError as exc:  # the client gave up, at its deadline say, while a reply was due
            self.log_message("client hung up before the reply: %s", exc)

    def _send_json(self, code: int, payload: dict, close: bool = False) -> None:
        self._send(code, json.dumps(payload).encode("utf-8"), close)

    def _send(self, code: int, body: bytes, close: bool = False) -> None:
        """Reply; ``close`` ends the connection after it, as when the request's body is left unread."""
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):
        if self.path == "/stats":
            self._send_json(200, {"calls": self.server.calls, "mode": self.server.mode})
        else:
            self._send_json(404, {"error": f"no such route: {self.path}"})

    def do_POST(self):
        if self.path != "/v1/resolve":
            self._send_json(404, {"error": f"no such route: {self.path}"}, close=True)
            return
        with self.server.lock:
            self.server.calls += 1
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:  # read(-1) waits for the client to close; a huge read fails
            self._send_json(400, {"error": f"bad request: Content-Length is not an integer in [0, {MAX_BODY_BYTES}]"}, close=True)
            return
        self._send(*stub_response(self.server.mode, self.rfile.read(length), self.server.slow_delay))


class StubServer(ThreadingHTTPServer):
    """Threaded stub server; use start()/stop() from tests or serve_forever() from the CLI."""

    daemon_threads = True  # a sleeping slow-mode handler must not block shutdown

    def __init__(self, mode: str = DEFAULT_STUB_MODE, port: int = 0, slow_delay: float = DEFAULT_SLOW_DELAY, verbose: bool = False):
        check_stub(mode, slow_delay)  # before the socket is bound, so a bad argument leaks none
        super().__init__(("127.0.0.1", port), _StubHandler)
        self.mode = mode
        self.slow_delay = slow_delay
        self.verbose = verbose
        self.calls = 0
        self.lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._live: set[socket.socket] = set()  # the connections whose handlers have not returned

    @property
    def url(self) -> str:
        return f"http://{self.server_address[0]}:{self.server_address[1]}"

    def start(self) -> "StubServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def process_request(self, request, client_address):
        with self.lock:
            self._live.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self.lock:  # out of the set before it is closed, so stop() never shuts a closed socket's number
            self._live.discard(request)
        super().shutdown_request(request)

    def stop(self) -> None:
        """Stop serving, also on a stub never started; a kept-alive connection is shut down too,
        so its handler returns and it answers nothing."""
        if self._thread is not None:  # shutdown() waits for a serve_forever() that only start() runs
            self.shutdown()
            self._thread.join(timeout=5)
        with self.lock:
            for request in self._live:
                with contextlib.suppress(OSError):  # the client reset it meanwhile, say
                    request.shutdown(socket.SHUT_RDWR)
        self.server_close()
