"""Trust management service: trust queries, access decisions and
provider feedback over a small JSON-on-HTTP protocol.

Endpoints:
    GET  /healthz
    GET  /trust/user/{id}
    GET  /trust/provider/{id}
    POST /decide                     {"user_id": ..., "counters": {...}?}
    POST /feedback/provider/{id}     {"feedback": "positive" | "negative"}

Every body carries ``"schema": "tmm/1"``.  Decisions come from the
fitted fuzzy model when one is configured, else from the baseline
formula; with no fresh counters the latest stored record is served.
Users and providers are separate namespaces: the store is looked up by
(kind, id), so a user decision under a provider's id neither reads nor
hides the provider's record.
The decision threshold is the service's configuration: a /decide body
that carries ``threshold`` is refused with 400, as is a body that is not
a JSON object or whose ``user_id`` is not a non-empty string.
Routes match the path alone: a query string is not part of it (RFC 3986
§3.4), so ``/healthz?probe=1`` is ``/healthz``.  Path ids are
percent-decoded (``/trust/user/a%20b`` is user ``a b``, ``a%3Fb`` is
``a?b``); an id that does not decode as UTF-8 is refused with 400.
The service is the store's single writer: it reads the store and the
feedback ledger once, at start, so a record another process appends to
them later (a ban written by ``fuzzytrust eval-user --store``, say) does
not count until the service restarts.
Ban rule: a subject whose latest stored record is ``banned`` stays
banned in every record ``record_decision`` appends (the CLI's writes
too), and is denied with or without fresh counters.  A provider is
also banned while its negative-feedback share in the ledger exceeds
40%; both provider routes report that, /trust/provider with trust 0
while the stored values stay intact.

HTTP: the server speaks HTTP/1.1 and keeps each connection open for the
client's next request (RFC 9112 §9.3) unless the client asks to close or
speaks HTTP/1.0.  Responses go out with TCP_NODELAY set, each head and
body in one write: a response split over two small writes waits about
40 ms for the client's delayed ACK (RFC 896, RFC 1122 §4.2.3.2).

Framing: a request body is exactly ``Content-Length`` bytes (none if the
header is absent), read on every route, GET included, so the next request
on the connection starts where it should.  A body that cannot be framed
is answered, then the connection is closed:
    400  ``Transfer-Encoding`` (chunked bodies are not accepted), more than
         one ``Content-Length``, a value that is not a non-negative
         integer, or a body that ends early;
    413  a body over ``MAX_BODY_BYTES``.
The errors the HTTP layer itself finds are ``tmm/1`` JSON too, and also
close the connection: 400 for a malformed request line, 414 for an
oversized one, 431 for oversized or too many headers, and 405 (with
``Allow: GET, POST``) for any other method.  An exception that no route
expects (an ``OSError`` from the store, say) is answered 500, also
closing the connection, and its traceback goes to the server's
``handle_error``.

Connections: ``ThreadingHTTPServer`` serves each open connection on its
own thread, and nothing caps their number.  A connection that sends no
request for ``IDLE_TIMEOUT_S`` seconds, or stalls that long inside one, is
closed, which frees its thread; until then every idle kept-alive client
holds one thread.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from .errors import (
    FuzzyTrustError,
    ModelLoadFailureError,
    NoTrustAvailableError,
    NotFoundError,
)
from .provider import feedback_ban
from .store import JsonlLog, TrustRecord, TrustStore, utc_now_iso
from .user import (
    DEFAULT_THRESHOLD,
    UserBehaviorCounters,
    UserTrustModel,
    classify,
    evaluate_counters,
    load_user_model,
)

SCHEMA = "tmm/1"
LEDGER_VERSION = 1
MAX_BODY_BYTES = 1 << 16  # a /decide or /feedback body is under 200 bytes
IDLE_TIMEOUT_S = 15.0  # a kept-alive connection waits this long for its next request


@dataclass(frozen=True)
class ServiceConfig:
    """The service's whole configuration; the CLI builds it from flags."""

    store_path: str
    feedback_path: str | None = None  # defaults to <store>.feedback
    user_model_path: str | None = None
    threshold: float = DEFAULT_THRESHOLD
    host: str = "127.0.0.1"
    port: int = 8321

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:  # NaN fails too
            raise ValueError(f"threshold must lie in [0, 1], got {self.threshold}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must lie in 0..65535, got {self.port}")


@dataclass(frozen=True)
class DecisionResponse:
    decision: str  # "grant" | "deny"
    trust: float
    model: str  # "baseline" | "fis"
    evaluated_at: str

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "decision": self.decision,
            "trust": self.trust,
            "model": self.model,
            "evaluated_at": self.evaluated_at,
        }


def _stored_ban(store: TrustStore | None, kind: str, subject_id: str) -> bool:
    """Whether the subject's latest stored record is ``banned``."""
    try:
        return store is not None and store.get(kind, subject_id).classification == "banned"
    except NotFoundError:
        return False


def record_decision(store: TrustStore | None, kind: str, subject_id: str, trust: float, model: str,
                    threshold: float, banned: bool = False) -> TrustRecord:
    """One decision's record, appended to ``store`` unless None: ``classify``
    (its range check first), made ``banned`` by ``banned`` or a stored ban."""
    classification = classify(trust, threshold)
    if banned or _stored_ban(store, kind, subject_id):
        classification = "banned"
    record = TrustRecord(subject_id, kind, trust, classification, model, utc_now_iso())
    if store is not None:
        store.put(record)
    return record


def _feedback_slot(provider_id, feedback) -> int:  # tally index: 0 positive, 1 negative
    if not isinstance(provider_id, str) or not provider_id:
        raise ValueError(f"provider_id must be a non-empty str, got {provider_id!r}")
    if feedback not in ("positive", "negative"):
        raise ValueError(f"feedback must be positive or negative, got {feedback!r}")
    return int(feedback == "negative")


class FeedbackLedger:
    """Provider feedback in a ``JsonlLog`` with in-memory tallies.

    The ratio is a pure function of the feedback multiset, so replaying
    the log in any order gives the same tallies.
    """

    def __init__(self, path):
        self._lock = threading.Lock()
        self._tallies: dict[str, list[int]] = {}  # provider -> [positive, negative]
        self._log = JsonlLog(path, self._fold)

    def _fold(self, data: dict) -> None:
        if data["v"] != LEDGER_VERSION:
            raise ValueError(f"unsupported ledger version {data['v']!r}")
        slot = _feedback_slot(data["provider_id"], data["feedback"])
        self._tallies.setdefault(data["provider_id"], [0, 0])[slot] += 1

    def record(self, provider_id: str, feedback: str) -> float:
        """Validate, append, then tally: a failed write changes nothing."""
        slot = _feedback_slot(provider_id, feedback)
        with self._lock:
            self._log.append(
                {"v": LEDGER_VERSION, "provider_id": provider_id, "feedback": feedback, "at": utc_now_iso()}
            )
            self._tallies.setdefault(provider_id, [0, 0])[slot] += 1
        return self.negative_ratio(provider_id)

    def negative_ratio(self, provider_id: str) -> float:
        tally = self._tallies.get(provider_id)
        if not tally or sum(tally) == 0:
            return 0.0
        return tally[1] / (tally[0] + tally[1])

    def close(self) -> None:
        with self._lock:
            self._log.close()


class TrustService:
    """Protocol-independent core behind the HTTP layer, which tests and the
    benchmark also drive directly; the CLI writes through ``record_decision``."""

    def __init__(self, config: ServiceConfig):
        self.config = config
        self.store = TrustStore(config.store_path)
        feedback_path = config.feedback_path or str(config.store_path) + ".feedback"
        self.feedback = FeedbackLedger(feedback_path)
        self.user_model: UserTrustModel | None = None
        if config.user_model_path:
            try:
                self.user_model = load_user_model(config.user_model_path)
            except (OSError, ValueError, FuzzyTrustError) as exc:
                raise ModelLoadFailureError(
                    f"cannot load user model {config.user_model_path!r}: {exc}"
                ) from exc

    def close(self) -> None:
        """Close the store's and the ledger's append handles."""
        self.store.close()
        self.feedback.close()

    def decide(self, user_id: str, counters: UserBehaviorCounters | None = None) -> DecisionResponse:
        """Grant iff trust strictly exceeds the configured threshold and the
        subject is not banned; every decision appends one audit record."""
        if not isinstance(user_id, str) or not user_id:
            raise ValueError(f"user_id must be a non-empty string, got {user_id!r}")
        if counters is not None:
            trust, model = evaluate_counters(counters, self.user_model)
            evaluated_at = None  # the stamp of the record appended below
        else:
            try:
                stored = self.store.get("user", user_id)
            except NotFoundError:
                raise NoTrustAvailableError(f"no stored trust for {user_id!r} and no fresh counters") from None
            trust, model, evaluated_at = stored.trust, stored.model, stored.evaluated_at
        record = record_decision(self.store, "user", user_id, trust, model, self.config.threshold)
        decision = "grant" if record.classification == "trusted" else "deny"
        evaluated_at = evaluated_at or record.evaluated_at
        return DecisionResponse(decision=decision, trust=trust, model=model, evaluated_at=evaluated_at)

    def user_trust(self, user_id: str) -> dict:
        data = self.store.get("user", user_id).to_dict()  # NotFoundError propagates
        data["schema"] = SCHEMA
        return data

    def _provider_banned(self, provider_id: str, ratio: float) -> bool:
        """The provider ban rule: a stored ``banned`` record or ``feedback_ban``."""
        return _stored_ban(self.store, "provider", provider_id) or feedback_ban(ratio)

    def provider_trust(self, provider_id: str) -> dict:
        data = self.store.get("provider", provider_id).to_dict()
        ratio = self.feedback.negative_ratio(provider_id)
        data["schema"] = SCHEMA
        data["negative_feedback_ratio"] = ratio
        data["banned"] = self._provider_banned(provider_id, ratio)
        if data["banned"]:
            # the ban overrides the reported value but not the stored one
            data["trust"] = 0.0
            data["classification"] = "banned"
        return data

    def provider_feedback(self, provider_id: str, feedback: str) -> dict:
        ratio = self.feedback.record(provider_id, feedback)
        return {
            "schema": SCHEMA,
            "provider_id": provider_id,
            "negative_feedback_ratio": ratio,
            "banned": self._provider_banned(provider_id, ratio),
        }


def _counters_from_payload(user_id: str, payload: dict) -> UserBehaviorCounters:
    """Counters from a /decide body's ``counters`` object, which must hold all
    four counts.  Each count must be a JSON integer: a float, a bool or a
    string is refused, not truncated or coerced."""
    if not isinstance(payload, dict):
        raise ValueError(f"counters must be a JSON object, got {type(payload).__name__}")
    counts = {}
    for field, key in (("uar", "unauthorized"), ("bor", "bogus"), ("bar", "bad"), ("tr", "total")):
        if key not in payload:
            raise ValueError(f"counters.{key} is missing")
        value = payload[key]
        if type(value) is not int:
            raise ValueError(f"counters.{key} must be a JSON integer, got {value!r}")
        counts[field] = value
    return UserBehaviorCounters(user_id=user_id, **counts)


def _content_length(value: str) -> int:
    """A ``Content-Length`` value (1*DIGIT, RFC 9110 §8.6); one over the cap
    reads as ``MAX_BODY_BYTES + 1``.  ``ValueError`` for anything else."""
    value = value.strip(" \t")
    if not (value.isascii() and value.isdigit()):
        raise ValueError("Content-Length must be a non-negative integer")
    digits = value.lstrip("0")
    return int(digits or "0") if len(digits) <= len(str(MAX_BODY_BYTES)) else MAX_BODY_BYTES + 1


def _path_id(path: str, prefix: str) -> str:
    """The percent-decoded id after ``prefix``; ``ValueError`` if it is not UTF-8."""
    return unquote(path.removeprefix(prefix), errors="strict")


class _Handler(BaseHTTPRequestHandler):
    service: TrustService  # set on the subclass by create_http_server

    protocol_version = "HTTP/1.1"
    default_request_version = "HTTP/1.0"  # a request line without a version still gets a status line
    disable_nagle_algorithm = True
    wbufsize = -1  # buffered: handle_one_request's flush() sends head and body in one write
    timeout = IDLE_TIMEOUT_S

    def log_message(self, *args):  # quiet by default
        pass

    def _send(self, status: int, body: dict, **headers: str) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(data)

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"schema": SCHEMA, "error": message})

    def _internal_error(self) -> None:
        """The last-resort answer to an exception no branch expects (an
        ``OSError`` from a full disk, say): report it through the server's
        ``handle_error``, answer 500 and close the connection."""
        self.server.handle_error(self.request, self.client_address)
        self.close_connection = True
        self._error(HTTPStatus.INTERNAL_SERVER_ERROR, "internal error")

    def send_error(self, code, message=None, explain=None):
        """The errors ``BaseHTTPRequestHandler`` finds itself, as JSON.  The
        rest of such a request cannot be framed, so the connection closes."""
        headers = {}
        if code == HTTPStatus.NOT_IMPLEMENTED:  # the stdlib's answer to a method with no do_ handler
            code, message = HTTPStatus.METHOD_NOT_ALLOWED, f"method {self.command!r} not allowed"
            headers["Allow"] = "GET, POST"
        self.close_connection = True
        self._send(code, {"schema": SCHEMA, "error": message or HTTPStatus(code).phrase}, **headers)

    def handle_expect_100(self):
        answered = super().handle_expect_100()
        self.wfile.flush()  # the client may wait for "100 Continue" before it sends the body
        return answered

    def _read_body(self) -> bytes | None:
        """Exactly the declared body.  None once a body that cannot be
        framed has been answered; the connection then closes."""
        status, lengths = HTTPStatus.BAD_REQUEST, self.headers.get_all("Content-Length", [])
        try:
            if "Transfer-Encoding" in self.headers:
                raise ValueError("Transfer-Encoding is not supported; send a Content-Length")
            if len(lengths) > 1:
                raise ValueError("more than one Content-Length")
            length = _content_length(lengths[0]) if lengths else 0
            if length > MAX_BODY_BYTES:
                status = HTTPStatus.REQUEST_ENTITY_TOO_LARGE
                raise ValueError(f"Content-Length exceeds the {MAX_BODY_BYTES}-byte cap")
            body = self.rfile.read(length)
            if len(body) < length:
                raise ValueError(f"body ended after {len(body)} of {length} bytes")
            return body
        except ValueError as exc:
            self.close_connection = True
            self._error(status, str(exc))
            return None

    def do_GET(self):
        self._answer(self._get)

    def do_POST(self):
        self._answer(self._post)

    def _answer(self, route) -> None:
        """Read the body, then answer 200 with ``route(path, body)``; its
        exceptions map onto statuses here, for every route."""
        raw = self._read_body()
        if raw is None:
            return
        try:
            self._send(200, route(urlsplit(self.path).path.rstrip("/") or "/", raw))
        except (NotFoundError, NoTrustAvailableError) as exc:
            self._error(404, str(exc))
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            self._error(400, f"bad request: {exc}")
        except FuzzyTrustError as exc:
            self._error(400, str(exc))
        except Exception:
            self._internal_error()

    def _get(self, path: str, raw: bytes) -> dict:
        if path == "/healthz":
            return {"schema": SCHEMA, "status": "ok"}
        if path.startswith("/trust/user/"):
            return self.service.user_trust(_path_id(path, "/trust/user/"))
        if path.startswith("/trust/provider/"):
            return self.service.provider_trust(_path_id(path, "/trust/provider/"))
        raise NotFoundError(f"unknown path {path}")

    def _post(self, path: str, raw: bytes) -> dict:
        try:
            payload = json.loads(raw) if raw else {}
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(f"body must be a JSON object, got {type(payload).__name__}")
        if path == "/decide":
            if "threshold" in payload:
                raise ValueError("the decision threshold is set by the service, not the request")
            user_id = payload.get("user_id", "")
            counters = None
            if payload.get("counters") is not None:
                counters = _counters_from_payload(user_id, payload["counters"])
            return self.service.decide(user_id, counters=counters).to_dict()
        if path.startswith("/feedback/provider/"):
            return self.service.provider_feedback(_path_id(path, "/feedback/provider/"), payload.get("feedback", ""))
        raise NotFoundError(f"unknown path {path}")


def create_http_server(service: TrustService) -> ThreadingHTTPServer:
    """Bound but not yet serving; call ``serve_forever`` (or wrap in a
    thread for tests).  Port 0 picks a free port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    try:
        return ThreadingHTTPServer((service.config.host, service.config.port), handler)
    except OSError as exc:
        raise FuzzyTrustError(
            f"cannot bind {service.config.host}:{service.config.port}: {exc}"
        ) from exc


def serve(config: ServiceConfig) -> None:
    """Run the service until interrupted."""
    service = TrustService(config)
    server = create_http_server(service)
    host, port = server.server_address[:2]
    print(f"fuzzytrust service listening on http://{host}:{port}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
