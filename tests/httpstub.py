"""A loopback HTTP server that plays one scripted outcome per request.

The tests of the HTTP backends point them at it, so the client path they
check is the one a real endpoint sees.  An outcome is one of:

- ``(status, body)``: answer with that status; a ``bytes`` body is sent
  as it is, a ``str`` body as UTF-8, any other body as its JSON text;
- ``HANG_UP``: read the request and close the connection unanswered;
- ``RESET``: read the request and abort the connection (TCP RST);
- ``STALL``: read the request and answer nothing until the client leaves.

Request ``i`` plays outcome ``i``, and every request past the script
plays its last outcome.  The server also serves as a proxy: it records a
``CONNECT`` or an absolute-URL request like any other.  ``refused_url``
gives a URL that no server answers.
"""
from __future__ import annotations

import json
import socket
import struct
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from email.message import Message
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

HANG_UP, RESET, STALL = "hang up", "reset", "stall"


@contextmanager
def refused_url(path: str = "/v1"):
    """A loopback URL on a port that a socket holds bound without
    listening, so connecting to it is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}{path}"


@dataclass
class Request:
    method: str
    target: str
    headers: Message
    body: str
    connection: int  # the client's port: one number per TCP connection


class HttpStub:
    """Use as a context manager; ``url`` is its base URL.  Given a server
    ``ssl.SSLContext``, it speaks https, as ``localhost``."""

    def __init__(self, tls=None):
        self.outcomes: list = []
        self.requests: list[Request] = []
        self.close_idle = False  # close each connection after its answer, saying nothing in a header
        self.closed = threading.Semaphore(0)  # released each time the server closes a connection
        self.barrier: threading.Barrier | None = None  # requests wait here before they are answered
        self._lock = threading.Lock()
        self._server = _Server(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        port = self._server.server_address[1]
        self.url = f"http://127.0.0.1:{port}"
        if tls is not None:
            self._server.socket = tls.wrap_socket(self._server.socket, server_side=True)
            self.url = f"https://localhost:{port}"
        self._thread = threading.Thread(target=self._server.serve_forever, kwargs={"poll_interval": 0.05})

    def script(self, *outcomes) -> None:
        self.outcomes = list(outcomes)

    def __enter__(self) -> HttpStub:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._thread.join(timeout=10)
        for sock in list(self._server.open):  # wake every handler still waiting on a kept-alive connection
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._server.server_close()  # joins the handler threads

    def answer(self, handler: BaseHTTPRequestHandler) -> None:
        body = handler.rfile.read(int(handler.headers.get("Content-Length", 0)))
        with self._lock:
            outcome = self.outcomes[min(len(self.requests), len(self.outcomes) - 1)]
            self.requests.append(
                Request(handler.command, handler.path, handler.headers, body.decode(), handler.client_address[1])
            )
        if self.barrier is not None:
            self.barrier.wait(timeout=10)
        if outcome in (HANG_UP, RESET, STALL):
            handler.close_connection = True
            if outcome == RESET:
                handler.connection.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                handler.connection.close()
            elif outcome == STALL:
                try:
                    handler.connection.recv(1)  # returns once the client hangs up
                except OSError:
                    pass
            return
        status, payload = outcome
        if isinstance(payload, bytes):
            data = payload
        else:
            data = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
        handler.send_response(status)
        if 300 <= status < 400:
            handler.send_header("Location", "/elsewhere")
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)
        handler.close_connection = handler.close_connection or self.close_idle


class _Server(ThreadingHTTPServer):
    daemon_threads = False
    stub: HttpStub

    def __init__(self, *args):
        super().__init__(*args)
        self.open: set = set()

    def process_request(self, request, client_address):
        self.open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        self.open.discard(request)
        self.stub.closed.release()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive
    disable_nagle_algorithm = True  # else each kept-alive answer waits about 40 ms for the client's ACK
    timeout = 10  # no handler waits longer on a silent client

    def do_POST(self):
        self.stub.answer(self)

    do_CONNECT = do_POST

    @property
    def stub(self) -> HttpStub:
        return self.server.stub

    def log_message(self, format, *args):
        pass
