"""The HTTP service over loopback: a server on port 0 in a thread."""

import contextlib
import errno
import http.client
import json
import socket
import threading
import time
import traceback

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fuzzytrust import service as service_module
from fuzzytrust.store import TrustRecord, TrustStore
from fuzzytrust.service import MAX_BODY_BYTES, SCHEMA, ServiceConfig, TrustService, create_http_server
from fuzzytrust.user import UserBehaviorCounters

ALL_UNAUTHORIZED = {"unauthorized": 160, "bogus": 0, "bad": 0, "total": 160}  # baseline trust 0.5


@contextlib.contextmanager
def _serving(tmp_path, **handler_attrs):
    """A served ``TrustService``; ``handler_attrs`` override the handler's
    class attributes.  An exception escaping a handler fails the test."""
    service = TrustService(ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0))
    httpd = create_http_server(service)
    if handler_attrs:
        httpd.RequestHandlerClass = type("Handler", (httpd.RequestHandlerClass,), handler_attrs)
    failures = httpd.failures = []
    httpd.handle_error = lambda request, address: failures.append(traceback.format_exc())
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    try:
        yield httpd
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)
        service.close()
    assert not thread.is_alive()
    assert not failures, failures[0]


@pytest.fixture
def server(tmp_path):
    with _serving(tmp_path) as httpd:
        yield httpd


def _post(server, path, body: bytes, headers=None):
    """(status, decoded JSON body) of one POST; a dropped connection raises."""
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.putrequest("POST", path)
        for name, value in (headers or {"Content-Length": str(len(body))}).items():
            conn.putheader(name, value)
        conn.endheaders()
        if body:
            conn.send(body)
        response = conn.getresponse()
        assert response.getheader("Content-Type") == "application/json"
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _decide_body(**extra) -> bytes:
    return json.dumps({"schema": SCHEMA, "user_id": "u1", "counters": ALL_UNAUTHORIZED, **extra}).encode()


class TestDecideThreshold:
    def test_configured_threshold_decides(self, server):
        status, body = _post(server, "/decide", _decide_body())
        assert status == 200
        assert body["trust"] == 0.5 and body["decision"] == "deny"

    def test_requester_threshold_is_refused(self, server):
        status, body = _post(server, "/decide", _decide_body(threshold=0))
        assert status == 400
        assert body["schema"] == SCHEMA and "threshold" in body["error"]
        assert body.get("decision") != "grant"

    def test_service_uses_its_config_threshold(self, tmp_path):
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl"), threshold=0.4))
        counters = UserBehaviorCounters("u1", uar=160, bor=0, bar=0, tr=160)
        assert service.decide("u1", counters=counters).decision == "grant"
        service.close()


class TestDecideUserId:
    @pytest.mark.parametrize("user_id", [5, True, 1.5, None, "", ["u1"], {"id": "u1"}])
    def test_user_id_that_is_not_a_string_gets_400(self, server, user_id):
        status, body = _post(server, "/decide", _decide_body(user_id=user_id))
        assert status == 400
        assert body["schema"] == SCHEMA and "user_id" in body["error"]
        assert len(server.RequestHandlerClass.service.store) == 0

    def test_service_refuses_a_user_id_that_is_not_a_string(self, tmp_path):
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        with pytest.raises(ValueError, match="user_id"):
            service.decide(5, UserBehaviorCounters(5, 0, 0, 0, 10))
        service.close()
        assert not (tmp_path / "s.jsonl").exists()


class TestUnexpectedErrors:
    def test_unexpected_error_gets_500_then_the_server_goes_on(self, server, monkeypatch):
        def full_disk(store, record):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(TrustStore, "put", full_disk)
        body = _decide_body()
        with _connect(server) as sock:
            response, data = _exchange(sock, _request("POST", "/decide", [("Content-Length", len(body))], body), "POST")
            assert _json(response, data, 500)["error"] == "internal error"
            assert response.getheader("Connection") == "close" and _closed(sock)
        assert "OSError" in server.failures.pop()  # reported through the server's handle_error
        with _connect(server) as sock:
            assert _exchange(sock, HEALTHZ)[0].status == 200


class TestMalformedBodies:
    @pytest.mark.parametrize("raw", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_non_object_json_gets_400(self, server, raw):
        status, body = _post(server, "/decide", raw)
        assert status == 400
        assert body["schema"] == SCHEMA and "object" in body["error"]

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"user_id": "u1", "counters": {"unauthorized": 1e999, "bogus": 0, "bad": 0, "total": 1}}',
            b"[" * 50_000,  # nested past the recursion limit
        ],
        ids=["overflow", "deep-nesting"],
    )
    def test_unreadable_body_gets_400(self, server, raw):
        status, body = _post(server, "/decide", raw)
        assert status == 400 and body["schema"] == SCHEMA

    @pytest.mark.parametrize(
        "counters",
        [
            {"unauthorized": 0.9, "bogus": True, "bad": "3", "total": 10.7},
            {**ALL_UNAUTHORIZED, "total": 160.0},
            {**ALL_UNAUTHORIZED, "bogus": False},
            {**ALL_UNAUTHORIZED, "bad": "0"},
            {**ALL_UNAUTHORIZED, "unauthorized": None},
        ],
        ids=["mixed", "float", "bool", "string", "null"],
    )
    def test_count_that_is_not_a_json_integer_gets_400(self, server, counters):
        status, body = _post(server, "/decide", _decide_body(counters=counters))
        assert status == 400
        assert body["schema"] == SCHEMA and "JSON integer" in body["error"]
        assert len(server.RequestHandlerClass.service.store) == 0

    @pytest.mark.parametrize(
        "counters, message",
        [
            ([160, 0, 0, 160], "counters must be a JSON object, got list"),
            ("160", "counters must be a JSON object, got str"),
            ({k: v for k, v in ALL_UNAUTHORIZED.items() if k != "total"}, "counters.total is missing"),
            ({}, "counters.unauthorized is missing"),
        ],
        ids=["list", "string", "no-total", "empty"],
    )
    def test_malformed_counters_get_400_naming_the_field(self, server, counters, message):
        status, body = _post(server, "/decide", _decide_body(counters=counters))
        assert (status, body) == (400, {"schema": SCHEMA, "error": f"bad request: {message}"})
        assert len(server.RequestHandlerClass.service.store) == 0

    def test_non_object_json_on_feedback_gets_400(self, server):
        status, body = _post(server, "/feedback/provider/p1", b"[1,2]")
        assert status == 400 and "error" in body

    def test_negative_content_length_gets_400(self, server):
        status, body = _post(server, "/decide", b"", headers={"Content-Length": "-1"})
        assert status == 400
        assert body["schema"] == SCHEMA and "Content-Length" in body["error"]


def _record(subject, kind, trust, classification):
    return TrustRecord(subject, kind, trust, classification, "fis", "2026-01-01T00:00:00+00:00")


class TestStoredState:
    def test_user_decision_keeps_provider_record(self, tmp_path):
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        service.store.put(_record("p1", "provider", 0.8, "trusted"))
        counters = UserBehaviorCounters("p1", uar=160, bor=0, bar=0, tr=160)
        assert service.decide("p1", counters=counters).decision == "deny"
        provider = service.provider_trust("p1")
        assert (provider["subject_kind"], provider["trust"]) == ("provider", 0.8)
        assert service.user_trust("p1")["trust"] == 0.5
        service.close()

    def test_ban_holds_under_fresh_counters(self, tmp_path):
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        service.store.put(_record("u1", "user", 0.9, "banned"))
        clean = UserBehaviorCounters("u1", uar=0, bor=0, bar=0, tr=100)
        fresh = service.decide("u1", counters=clean)
        assert (fresh.decision, fresh.trust) == ("deny", 1.0)
        assert service.decide("u1").decision == "deny"
        assert service.user_trust("u1")["classification"] == "banned"
        service.close()

    def test_fresh_decision_answers_the_stamp_it_stored(self, tmp_path, monkeypatch):
        stamps = (f"2026-01-01T00:00:{s:02d}+00:00" for s in range(60))
        monkeypatch.setattr(service_module, "utc_now_iso", lambda: next(stamps))
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        counters = UserBehaviorCounters("u1", uar=0, bor=0, bar=0, tr=100)
        try:
            assert service.decide("u1", counters=counters).evaluated_at == service.user_trust("u1")["evaluated_at"]
        finally:
            service.close()

    def test_stored_provider_ban_is_reported(self, tmp_path):
        # eval-provider --store keeps the cascade's trust beside a "banned" classification
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        service.store.put(_record("p1", "provider", 0.5, "banned"))
        provider = service.provider_trust("p1")
        assert (provider["banned"], provider["trust"], provider["classification"]) == (True, 0.0, "banned")
        assert provider["negative_feedback_ratio"] == 0.0
        assert service.store.get("provider", "p1").trust == 0.5  # the stored value stays intact
        service.close()


class TestProviderBan:
    @pytest.mark.parametrize(
        "classification, feedback", [("banned", "positive"), ("trusted", "negative")], ids=["stored", "feedback"]
    )
    def test_both_provider_routes_report_the_ban(self, server, classification, feedback):
        server.RequestHandlerClass.service.store.put(_record("p1", "provider", 0.8, classification))
        status, body = _post(server, "/feedback/provider/p1", json.dumps({"feedback": feedback}).encode())
        assert status == 200 and body["banned"] is True
        with _connect(server) as sock:
            response, data = _exchange(sock, _request("GET", "/trust/provider/p1"))
            reported = _json(response, data, 200)
            assert (reported["banned"], reported["trust"], reported["classification"]) == (True, 0.0, "banned")


# ---------------------------------------------------------------------------
# raw requests on kept-alive connections

HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"


def _connect(server) -> socket.socket:
    return socket.create_connection(server.server_address[:2], timeout=5)


def _request(method: str, path: str, headers=(), body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n" + "".join(f"{n}: {v}\r\n" for n, v in headers)
    return head.encode("utf-8") + b"\r\n" + body


def _exchange(sock, raw: bytes, method: str = "GET"):
    """Send ``raw``, if any, and read one response: (response, body), or None
    when the server closed the connection without answering."""
    if raw:
        sock.sendall(raw)
    response = http.client.HTTPResponse(sock, method=method)
    try:
        response.begin()
    except http.client.RemoteDisconnected:
        return None
    return response, response.read()


def _json(response, body, status) -> dict:
    assert response.status == status
    assert response.getheader("Content-Type") == "application/json"
    data = json.loads(body)
    assert data["schema"] == SCHEMA
    return data


def _closed(sock) -> bool:
    """Whether the server closed its end; waits for it up to the socket's timeout."""
    return sock.recv(1) == b""


class TestKeepAlive:
    def test_requests_share_one_connection(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=5)
        local_ends = set()
        for i in range(10):
            for method, path, body in (
                ("POST", "/decide", json.dumps({"user_id": f"u{i}", "counters": ALL_UNAUTHORIZED})),
                ("POST", "/feedback/provider/p1", json.dumps({"feedback": "positive"})),
                ("GET", "/healthz", None),
            ):
                conn.request(method, path, body=body)
                local_ends.add(conn.sock.getsockname())
                response = conn.getresponse()
                assert response.status == 200 and not response.will_close
                response.read()
        conn.close()
        assert len(local_ends) == 1

    @pytest.mark.parametrize("raw", [b"GET /healthz HTTP/1.0\r\n\r\n", b"GET /healthz\r\n\r\n"])
    def test_http10_request_is_answered_then_closed(self, server, raw):
        with _connect(server) as sock:
            response, body = _exchange(sock, raw)
            assert _json(response, body, 200)["status"] == "ok"
            assert response.will_close and _closed(sock)

    def test_get_body_is_read(self, server):
        with _connect(server) as sock:
            for _ in range(2):
                response, body = _exchange(sock, _request("GET", "/healthz", [("Content-Length", "9")], b"123456789"))
                assert _json(response, body, 200)["status"] == "ok" and not response.will_close
            response, body = _exchange(sock, HEALTHZ)
            assert _json(response, body, 200)["status"] == "ok"

    def test_expect_100_continue(self, server):
        body = _decide_body()
        with _connect(server) as sock:
            sock.sendall(_request("POST", "/decide", [("Content-Length", len(body)), ("Expect", "100-continue")]))
            assert sock.recv(64).startswith(b"HTTP/1.1 100 ")  # before the body is sent
            response, data = _exchange(sock, body, "POST")
            assert _json(response, data, 200)["decision"] == "deny"

    @pytest.mark.parametrize(
        "method, headers, body, status",
        [
            ("POST", [("Transfer-Encoding", "chunked")], b"2\r\n{}\r\n0\r\n\r\n", 400),
            ("GET", [("Transfer-Encoding", "chunked")], b"0\r\n\r\n", 400),
            ("POST", [("Content-Length", "-1")], b"", 400),
            ("POST", [("Content-Length", "+2")], b"{}", 400),
            ("POST", [("Content-Length", "2"), ("Content-Length", "3")], b"{}", 400),
            ("POST", [("Content-Length", MAX_BODY_BYTES + 1)], b"", 413),
            ("GET", [("Content-Length", "9" * 5000)], b"", 413),
        ],
        ids=["chunked-post", "chunked-get", "negative", "plus-sign", "two-lengths", "over-cap", "5000-digits"],
    )
    def test_unframed_body_is_refused_then_closed(self, server, method, headers, body, status):
        with _connect(server) as sock:
            response, data = _exchange(sock, _request(method, "/decide", headers, body), method)
            _json(response, data, status)
            assert response.will_close and _closed(sock)
        with _connect(server) as sock:
            assert _exchange(sock, HEALTHZ)[0].status == 200

    def test_body_cut_short_is_refused(self, server):
        with _connect(server) as sock:
            sock.sendall(_request("POST", "/decide", [("Content-Length", "10")], b"{}"))
            sock.shutdown(socket.SHUT_WR)
            response, data = _exchange(sock, b"", "POST")
            assert "2 of 10" in _json(response, data, 400)["error"]

    @pytest.mark.parametrize(
        "raw, status",
        [
            (b"GARBAGE\r\n\r\n", 400),
            (b"GET /healthz HTTP/x.y\r\n\r\n", 400),
            (b"GET /healthz extra HTTP/1.1\r\n\r\n", 400),
            (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
            (b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n", 431),
            (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: y\r\n" * 101 + b"\r\n", 431),
        ],
        ids=["no-version-word", "bad-version", "four-words", "long-line", "long-header", "many-headers"],
    )
    def test_protocol_errors_are_json(self, server, raw, status):
        with _connect(server) as sock:
            response, body = _exchange(sock, raw)
            assert _json(response, body, status)["error"]
            assert response.will_close

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "get"])
    def test_unknown_method_gets_405(self, server, method):
        with _connect(server) as sock:
            response, body = _exchange(sock, _request(method, "/decide", [("Content-Length", "2")], b"{}"), method)
            assert method in _json(response, body, 405)["error"]
            assert response.getheader("Allow") == "GET, POST"

    def test_head_gets_405_without_body(self, server):
        with _connect(server) as sock:
            response, body = _exchange(sock, _request("HEAD", "/healthz"), "HEAD")
            assert (response.status, body, response.getheader("Allow")) == (405, b"", "GET, POST")
            assert _closed(sock)


class TestPathIds:
    def test_ids_are_percent_decoded(self, server):
        store = server.RequestHandlerClass.service.store
        store.put(_record("a b", "user", 0.7, "trusted"))
        store.put(_record("p/1", "provider", 0.6, "trusted"))
        feedback = json.dumps({"feedback": "negative"}).encode()
        with _connect(server) as sock:
            response, body = _exchange(sock, _request("GET", "/trust/user/a%20b"))
            assert _json(response, body, 200)["subject_id"] == "a b"
            response, body = _exchange(sock, _request("GET", "/trust/provider/p%2F1"))
            assert _json(response, body, 200)["trust"] == 0.6
            raw = _request("POST", "/feedback/provider/p%2F1", [("Content-Length", len(feedback))], feedback)
            response, body = _exchange(sock, raw, "POST")
            assert _json(response, body, 200)["provider_id"] == "p/1"

    def test_query_string_is_not_part_of_the_path(self, server):
        store = server.RequestHandlerClass.service.store
        store.put(_record("u1", "user", 0.7, "trusted"))
        store.put(_record("a?b", "user", 0.6, "trusted"))
        with _connect(server) as sock:
            response, body = _exchange(sock, _request("GET", "/healthz?probe=1"))
            assert _json(response, body, 200)["status"] == "ok"
            response, body = _exchange(sock, _request("GET", "/trust/user/u1?fields=trust"))
            assert _json(response, body, 200)["subject_id"] == "u1"
            response, body = _exchange(sock, _request("GET", "/trust/user/a%3Fb"))
            assert _json(response, body, 200)["subject_id"] == "a?b"

    def test_undecodable_ids_keep_the_connection(self, server):
        with _connect(server) as sock:
            response, body = _exchange(sock, _request("GET", "/trust/user/%ff"))
            assert "bad request" in _json(response, body, 400)["error"]
            response, body = _exchange(sock, _request("POST", "/feedback/provider/%C3", [("Content-Length", "2")], b"{}"))
            _json(response, body, 400)
            response, body = _exchange(sock, _request("GET", "/trust/user/%zz"))  # not an escape: a literal id
            assert "'%zz'" in _json(response, body, 404)["error"]
            assert not response.will_close
            assert _exchange(sock, HEALTHZ)[0].status == 200


class TestIdleConnections:
    def test_idle_connections_do_not_block_a_new_client(self, server):
        idle = [_connect(server) for _ in range(4)]
        try:
            for sock in idle[:2]:  # kept alive after one request; the other two never send
                assert _exchange(sock, HEALTHZ)[0].status == 200
            with _connect(server) as sock:
                assert _exchange(sock, HEALTHZ)[0].status == 200
        finally:
            for sock in idle:
                sock.close()

    def test_idle_connection_is_closed_after_timeout(self, tmp_path):
        with _serving(tmp_path, timeout=0.2) as httpd, _connect(httpd) as sock:
            response, _ = _exchange(sock, HEALTHZ)
            assert response.status == 200 and not response.will_close
            began = time.monotonic()
            assert _closed(sock)
            assert time.monotonic() - began >= 0.15


# ---------------------------------------------------------------------------
# fuzzing one kept-alive connection

_TOKEN = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7E, blacklist_characters=":"), min_size=1, max_size=10)
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=30)
_FRAMING = {  # framing headers; "absent" sends no body
    "exact": None,
    "absent": [],
    "chunked": [("Transfer-Encoding", "chunked")],
    "negative": [("Content-Length", "-5")],
    "not a number": [("Content-Length", "12abc")],
    "oversized": [("Content-Length", MAX_BODY_BYTES + 1)],
}
_JSON_BODIES = st.dictionaries(
    st.sampled_from(["user_id", "counters", "feedback", "threshold"]),
    st.one_of(
        st.none(),
        st.integers(),
        st.floats(),
        st.text(max_size=8),
        st.sampled_from(["u1", "positive", "negative"]),
        st.dictionaries(st.sampled_from(["unauthorized", "bogus", "bad", "total"]), st.integers(-5, 200)),
    ),
).map(lambda payload: json.dumps(payload).encode())


@st.composite
def _fuzzed_requests(draw):
    method = draw(st.one_of(st.sampled_from(["GET", "POST", "PUT", "HEAD", "OPTIONS"]), _TOKEN))
    path = draw(
        st.one_of(
            st.sampled_from(["/healthz", "/decide", "/trust/user/u1", "/trust/provider/%ff", "/feedback/provider/p1"]),
            _LINE_TEXT.map(lambda text: "/" + text),
        )
    )
    headers = draw(
        st.lists(
            st.tuples(_TOKEN, _LINE_TEXT).filter(lambda h: h[0].lower() not in ("content-length", "transfer-encoding")),
            max_size=4,
        )
    )
    body = draw(st.one_of(st.binary(max_size=64), _JSON_BODIES))
    framing = draw(st.sampled_from(sorted(_FRAMING)))
    if framing == "absent":
        body = b""
    headers += _FRAMING[framing] if framing != "exact" else [("Content-Length", len(body))]
    return method, _request(method, path, headers, body)


class _Link:
    """One client connection, reopened only after the server closes it."""

    def __init__(self, server):
        self.server = server
        self.sock = _connect(server)

    def reopen(self) -> None:
        self.sock.close()
        self.sock = _connect(self.server)


@pytest.fixture
def link(server):
    link = _Link(server)
    yield link
    link.sock.close()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=_fuzzed_requests())
def test_fuzzed_request_leaves_the_connection_usable(link, request):
    """Each request gets a 2xx or 4xx JSON answer or a clean close, and a
    well-formed request right after it succeeds: on the same connection if
    the server kept it open, on a new one if it closed it."""
    method, raw = request
    answer = _exchange(link.sock, raw, method)
    if answer is not None:
        response, body = answer
        assert response.status // 100 in (2, 4)
        assert response.getheader("Content-Type") == "application/json"
        if method != "HEAD":
            assert json.loads(body)["schema"] == SCHEMA
    if answer is None or answer[0].will_close:
        link.reopen()
    answer = _exchange(link.sock, HEALTHZ)
    assert answer is not None and _json(*answer, 200)["status"] == "ok"
    if answer[0].will_close:  # the next request goes out on an open connection
        link.reopen()
