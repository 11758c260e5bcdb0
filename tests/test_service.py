"""The HTTP service over loopback: a server on port 0 in a thread."""

import http.client
import json
import threading

import pytest

from fuzzytrust.store import TrustRecord
from fuzzytrust.service import SCHEMA, ServiceConfig, TrustService, create_http_server
from fuzzytrust.user import UserBehaviorCounters

ALL_UNAUTHORIZED = {"unauthorized": 160, "bogus": 0, "bad": 0, "total": 160}  # baseline trust 0.5


@pytest.fixture
def server(tmp_path):
    service = TrustService(ServiceConfig(store_path=str(tmp_path / "store.jsonl"), port=0))
    httpd = create_http_server(service)
    thread = threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield httpd
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=5)
    service.close()


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


class TestMalformedBodies:
    @pytest.mark.parametrize("raw", [b"[1,2]", b'"x"', b"3", b"null"])
    def test_non_object_json_gets_400(self, server, raw):
        status, body = _post(server, "/decide", raw)
        assert status == 400
        assert body["schema"] == SCHEMA and "object" in body["error"]

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

    def test_stored_provider_ban_is_reported(self, tmp_path):
        # eval-provider --store keeps the cascade's trust beside a "banned" classification
        service = TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl")))
        service.store.put(_record("p1", "provider", 0.5, "banned"))
        provider = service.provider_trust("p1")
        assert (provider["banned"], provider["trust"], provider["classification"]) == (True, 0.0, "banned")
        assert provider["negative_feedback_ratio"] == 0.0
        assert service.store.get("provider", "p1").trust == 0.5  # the stored value stays intact
        service.close()
