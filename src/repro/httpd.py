"""One HTTP front for the package's servers.

:class:`HttpFront` runs a stdlib :class:`http.server.ThreadingHTTPServer`
on a daemon thread and dispatches a route table ``{(method, path):
route}``.  The live metrics endpoint (:mod:`repro.explain.live`) and
the serving front door (:mod:`repro.serve.server`) each hand it their
routes and keep only their payload code; the front owns the rest:

* a route takes the request handler (``http.query`` is the query
  string, :meth:`read_body` the bounded body) and returns ``(status,
  content_type, body)`` plus an optional header dict
  (:func:`json_reply` builds the JSON case);
* an unknown path answers 404 ``not found``, a route that raises
  answers 500 ``{"error": ...}`` JSON, and a method no route names
  answers the stdlib's 501;
* :meth:`read_body` answers 400 for a non-integer or negative
  ``Content-Length`` and 413 above :data:`MAX_BODY`, before reading a
  byte of the body, so a bad header can never hold a handler thread;
* a connection gets :data:`TIMEOUT` seconds for its whole request,
  however the client spaces its bytes: a body still short then answers
  408, an unfinished request line or header closes the connection; a
  route's own run time and the reply write are outside the deadline;
* the server logs nothing.

Stdlib only: the lean serving process imports it without pulling in
the runtime or the explainer.
"""

from __future__ import annotations

import io
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

#: Largest request body a route may read (bytes).
MAX_BODY = 1 << 20

#: Seconds a connection gets to deliver its whole request.
TIMEOUT = 10.0

#: The Prometheus text exposition content type.
PROMETHEUS = "text/plain; version=0.0.4; charset=utf-8"


class HttpError(Exception):
    """Answer ``status`` with ``{"error": message}``."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


def json_reply(status: int, payload, headers: dict | None = None):
    return status, "application/json", json.dumps(payload).encode(), \
        headers or {}


class _DeadlineSocket(io.RawIOBase):
    """A connection's read side: each ``recv`` waits only for the time
    left before one deadline."""

    def __init__(self, sock, seconds: float):
        self._sock = sock
        self._deadline = time.monotonic() + seconds

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        left = self._deadline - time.monotonic()
        if left <= 0:
            raise TimeoutError("request deadline passed")
        self._sock.settimeout(left)
        return self._sock.recv_into(buffer)


class _Handler(BaseHTTPRequestHandler):
    #: ``{(method, path): route}``, set per front by :class:`HttpFront`.
    routes: dict
    #: Seconds for the whole request; the socket timeout of the reply.
    timeout = TIMEOUT

    def setup(self) -> None:
        super().setup()
        self.rfile.close()
        self.rfile = io.BufferedReader(
            _DeadlineSocket(self.connection, self.timeout))

    def log_message(self, *_args):  # noqa: D102 - quiet server
        pass

    def read_body(self) -> bytes:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise HttpError(400, f"malformed Content-Length: {raw!r}")
        if length > MAX_BODY:
            raise HttpError(413, f"request body of {length} bytes "
                                 f"exceeds {MAX_BODY}")
        try:
            return self.rfile.read(length)
        except TimeoutError:
            raise HttpError(408, f"request body of {length} bytes stalled "
                                 f"past {self.timeout} s") from None

    def _dispatch(self) -> None:
        path, _sep, self.query = self.path.partition("?")
        route = self.routes.get((self.command, path))
        try:
            reply = (404, "text/plain", b"not found\n") \
                if route is None else route(self)
        except HttpError as error:
            reply = json_reply(error.status, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - keep serving
            reply = json_reply(500, {"error": str(error)})
        status, content_type, body, *extra = reply
        self.connection.settimeout(self.timeout)
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for key, value in (extra[0] if extra else {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionError, TimeoutError):  # pragma: no cover
            pass  # client gone or not reading


class HttpFront:
    """A route table served from a daemon thread named
    ``thread_name``; ``port``/``url`` are ``None`` until
    :meth:`start`, and both :meth:`start` and :meth:`stop` are
    idempotent."""

    def __init__(self, routes: dict, address: tuple[str, int],
                 thread_name: str):
        self._handler = type("Handler", (_Handler,),
                             {"routes": dict(routes)})
        for method, _path in routes:
            setattr(self._handler, f"do_{method}", _Handler._dispatch)
        self._address = address
        self._thread_name = thread_name
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        if self._httpd is not None:
            return
        self._httpd = ThreadingHTTPServer(self._address, self._handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self._thread_name,
            daemon=True)
        self._thread.start()

    @property
    def port(self) -> int | None:
        """The bound port (resolves port-0 requests)."""
        if self._httpd is None:
            return None
        return self._httpd.server_address[1]

    @property
    def url(self) -> str | None:
        if self._httpd is None:
            return None
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def stop(self) -> None:
        httpd, self._httpd = self._httpd, None
        if httpd is None:
            return
        httpd.shutdown()
        httpd.server_close()
        self._thread.join(timeout=5)
        self._thread = None
