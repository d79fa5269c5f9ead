"""The one HTTP front: route dispatch, error replies, body bounds and
the start/stop lifecycle, driven directly rather than through the
metrics endpoint or the serving front door."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import httpd
from repro.httpd import MAX_BODY, HttpError, HttpFront, json_reply


def _echo(http):
    body = http.read_body()
    return json_reply(200, {"query": http.query, "length": len(body)},
                      {"X-Echo": "yes"})


def _raise_http_error(_http):
    raise HttpError(409, "already there")


def _raise_value_error(_http):
    raise ValueError("route exploded")


#: The socket timeout the stalled-client tests run the front with.
_STALL = 0.5


def _slow(_http):
    time.sleep(2 * _STALL)
    return 200, "text/plain", b"slow\n"


ROUTES = {
    ("GET", "/plain"): lambda _http: (200, "text/plain", b"hello\n"),
    ("GET", "/slow"): _slow,
    ("POST", "/echo"): _echo,
    ("GET", "/conflict"): _raise_http_error,
    ("GET", "/broken"): _raise_value_error,
}


@pytest.fixture
def front():
    front = HttpFront(ROUTES, ("127.0.0.1", 0), "test-httpd")
    front.start()
    try:
        yield front
    finally:
        front.stop()


def _request(url, method="GET", data=None):
    """``(status, headers, body bytes)``, error statuses included."""
    request = urllib.request.Request(url, data=data, method=method)
    try:
        with urllib.request.urlopen(request, timeout=5) as reply:
            return reply.status, reply.headers, reply.read()
    except urllib.error.HTTPError as error:
        return error.code, error.headers, error.read()


def _raw(front, head: bytes):
    """Send a hand-written request; ``(status, json body)``.  The 1 s
    timeout fails the test rather than hanging it if the front waits
    for a body that never comes."""
    with socket.create_connection(("127.0.0.1", front.port),
                                  timeout=1.0) as sock:
        sock.sendall(head)
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
    status_line, _sep, payload = reply.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), json.loads(payload)


def test_port_and_url_are_none_until_started_and_after_stop():
    front = HttpFront(ROUTES, ("127.0.0.1", 0), "test-httpd")
    assert front.port is None and front.url is None
    front.start()
    try:
        assert front.port > 0
        assert front.url == f"http://127.0.0.1:{front.port}"
    finally:
        front.stop()
    assert front.port is None and front.url is None


def test_start_and_stop_are_idempotent_and_thread_is_named():
    front = HttpFront(ROUTES, ("127.0.0.1", 0), "test-httpd-named")
    front.stop()  # never started: a no-op
    front.start()
    port = front.port
    front.start()  # already running: keeps the same server
    try:
        assert front.port == port
        named = [thread for thread in threading.enumerate()
                 if thread.name == "test-httpd-named"]
        assert len(named) == 1 and named[0].daemon
    finally:
        front.stop()
    front.stop()
    assert not any(thread.name == "test-httpd-named"
                   for thread in threading.enumerate())


def test_route_reply_carries_content_type_and_length(front):
    status, headers, body = _request(front.url + "/plain")
    assert status == 200
    assert headers["Content-Type"] == "text/plain"
    assert headers["Content-Length"] == str(len(body))
    assert body == b"hello\n"


def test_query_string_is_split_off_and_extra_headers_sent(front):
    status, headers, body = _request(front.url + "/echo?x=1&y=2",
                                     method="POST", data=b"abcd")
    assert status == 200
    assert headers["X-Echo"] == "yes"
    assert json.loads(body) == {"query": "x=1&y=2", "length": 4}


def test_unknown_path_is_404_and_wrong_method_is_501(front):
    status, _headers, body = _request(front.url + "/nowhere")
    assert (status, body) == (404, b"not found\n")
    # GET has routes, so /echo under GET is an unknown path ...
    assert _request(front.url + "/echo")[0] == 404
    # ... while PUT has none at all: the stdlib answers 501.
    assert _request(front.url + "/plain", method="PUT", data=b"")[0] == 501


def test_http_error_and_raising_route_answer_json(front):
    status, headers, body = _request(front.url + "/conflict")
    assert status == 409
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": "already there"}
    status, headers, body = _request(front.url + "/broken")
    assert status == 500
    assert headers["Content-Type"] == "application/json"
    assert json.loads(body) == {"error": "route exploded"}
    assert _request(front.url + "/plain")[0] == 200


@pytest.mark.parametrize("content_length", [b"-5", b"1.5", b"twelve"])
def test_malformed_content_length_is_400(front, content_length):
    status, reply = _raw(front, b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                                b"Content-Length: " + content_length
                                + b"\r\n\r\n")
    assert status == 400
    assert "malformed Content-Length" in reply["error"]


def test_body_at_the_bound_is_read_and_one_over_is_413(front):
    status, reply = _raw(front, b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                                b"Content-Length: "
                                + str(MAX_BODY + 1).encode()
                                + b"\r\n\r\n")
    assert status == 413
    assert str(MAX_BODY + 1) in reply["error"]
    status, _headers, body = _request(front.url + "/echo", method="POST",
                                      data=b"x" * MAX_BODY)
    assert status == 200
    assert json.loads(body)["length"] == MAX_BODY


def test_missing_content_length_reads_an_empty_body(front):
    status, reply = _raw(front, b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                                b"Connection: close\r\n\r\n")
    assert status == 200
    assert reply == {"query": "", "length": 0}


def test_handlers_time_out_after_the_module_constant():
    assert HttpFront(ROUTES, ("127.0.0.1", 0), "x")._handler.timeout \
        == httpd.TIMEOUT


@pytest.fixture
def stall_front(monkeypatch):
    """A front whose connections time out after :data:`_STALL` s
    instead of :data:`repro.httpd.TIMEOUT`."""
    monkeypatch.setattr(httpd._Handler, "timeout", _STALL)
    front = HttpFront(ROUTES, ("127.0.0.1", 0), "test-httpd-stall")
    front.start()
    try:
        yield front
    finally:
        front.stop()


def _stalled(front, head: bytes) -> tuple[bytes, float]:
    """Send ``head`` and go silent; ``(reply, seconds until the front
    closed the connection)``.  The socket's own timeout fails the test
    rather than hanging it if the front never lets go."""
    with socket.create_connection(("127.0.0.1", front.port),
                                  timeout=_STALL + 5) as sock:
        sock.sendall(head)
        begin = time.monotonic()
        reply = b""
        while chunk := sock.recv(65536):
            reply += chunk
        return reply, time.monotonic() - begin


def test_short_body_answers_408_after_the_timeout(stall_front):
    reply, waited = _stalled(stall_front,
                             b"POST /echo HTTP/1.1\r\nHost: x\r\n"
                             b"Content-Length: 100\r\n\r\n12 bytes sent")
    status_line, _sep, payload = reply.partition(b"\r\n\r\n")
    assert int(status_line.split()[1]) == 408
    assert "100 bytes stalled" in json.loads(payload)["error"]
    assert _STALL * 0.9 <= waited < _STALL + 2
    assert _request(stall_front.url + "/plain")[0] == 200


def test_unfinished_request_line_is_closed_after_the_timeout(stall_front):
    reply, waited = _stalled(stall_front, b"GET /x HT")
    assert reply == b""
    assert _STALL * 0.9 <= waited < _STALL + 2
    assert _request(stall_front.url + "/plain")[0] == 200


def test_route_slower_than_the_timeout_still_answers(stall_front):
    status, _headers, body = _request(stall_front.url + "/slow")
    assert (status, body) == (200, b"slow\n")
