"""Trust management service: trust queries, access decisions and
provider feedback over a small JSON-on-HTTP protocol.

Endpoints:
    GET  /healthz
    GET  /trust/user/{id}
    GET  /trust/provider/{id}
    POST /decide                     {"user_id": ..., "counters": {...}?}
    POST /feedback/provider/{id}     {"feedback": "positive" | "negative"}

Every body carries ``"schema": "tmm/1"`` as its first key, written by the
HTTP layer alone.  Decisions come from the fitted fuzzy model when one is
configured, else from the baseline formula; with no fresh counters the
latest stored record is served.
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
feedback ledger (``<store>.feedback``, checkpointed in
``<store>.feedback.snapshot``) once, at start, so a record another
process appends to them later (a ban written by ``fuzzytrust eval-user
--store``, say) does not count until the service restarts.
Ban rule: a subject whose latest stored record is ``banned`` stays
banned in every record ``record_decision`` appends (the CLI's writes
too), and is denied with or without fresh counters.  A provider is
also banned while its negative-feedback share in the ledger exceeds
40%; both provider routes report that, /trust/provider with trust 0
while the stored values stay intact.

HTTP: the server speaks HTTP/1.1 through its own parser, which takes a
request line and field lines of up to ``MAX_LINE_BYTES`` (65 536) bytes and
up to ``MAX_FIELDS`` (100) field lines; a repeated field reads as its values
joined by ", " (RFC 9110 §5.3).  One empty line before a request line is
ignored (RFC 9112 §2.2); a second one closes the connection unanswered.  A
connection stays open for the client's next request (RFC 9112 §9.3) unless
the request is HTTP/1.0 (as is a GET line with no version) or its
``Connection`` field holds a ``close`` token, in any case (RFC 9110 §7.6.1).  Responses carry a ``Date`` field but no
``Server`` field, which would tell every client the Python version (RFC 9110
§10.2.4).  They go out with TCP_NODELAY set, each head and body in one
write: a response split over two small writes waits about 40 ms for the
client's delayed ACK (RFC 896, RFC 1122 §4.2.3.2).

Framing: a request body is exactly ``Content-Length`` bytes (none if the
header is absent), read on every route, GET included, so the next request
on the connection starts where it should; ``Expect: 100-continue`` is
answered once the body is known to be framed.  A body that cannot be
framed is answered, then the connection is closed:
    400  ``Transfer-Encoding`` (chunked bodies are not accepted), more than
         one ``Content-Length``, a value that is not a non-negative
         integer, or a body that ends early;
    413  a body over ``MAX_BODY_BYTES``.
The errors the parser finds are ``tmm/1`` JSON too, and also close the
connection: 400 for a malformed request line or field line (one with no
colon, with whitespace before its colon, or an obs-fold line: RFC 9112
§5.1, §5.2), 405 (with ``Allow: GET, POST``) for a method other than GET
and POST, 414 and 431 for a request line and a field line over
``MAX_LINE_BYTES``, 431 for more than ``MAX_FIELDS`` fields, and 505 for
HTTP/2.0 and later.  An exception that no route expects (an ``OSError``
from the store, say) is answered 500, also closing the connection, and its
traceback goes to the server's ``handle_error``.

Connections: a ``socketserver.ThreadingTCPServer`` serves each open
connection on its own thread, and nothing caps their number.  A
connection that sends no request for ``IDLE_TIMEOUT_S`` seconds, or stalls
that long inside one, is closed, which frees its thread; until then every
idle kept-alive client holds one thread.  A client that resets its
connection is dropped the same way, with no report to ``handle_error``.
The server owns the service it serves: ``server_close()`` closes the
socket, then the service's store and ledger, which checkpoints them.
``serve`` does so on SIGTERM (``kill``, systemd, ``docker stop``) as on Ctrl-C.
"""

from __future__ import annotations

import functools
import json
import re
import signal
import socketserver
import time
from contextlib import suppress
from dataclasses import dataclass
from http import HTTPStatus
from urllib.parse import unquote, urlsplit

from .errors import (
    FuzzyTrustError,
    ModelLoadFailureError,
    NoTrustAvailableError,
    NotFoundError,
)
from .provider import feedback_ban
from .store import FoldedLog, TrustRecord, TrustStore, _count, utc_now_iso
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
MAX_LINE_BYTES = 1 << 16  # the request line, and each header field line
MAX_FIELDS = 100  # header field lines in one request

_VERSION = re.compile(rb"HTTP/[0-9]\.[0-9]")  # RFC 9112 §2.3
# a field line (RFC 9112 §5): a token name, its colon, then the value with its OWS
_FIELD = re.compile(rb"([-!#$%&'*+.^_`|~0-9A-Za-z]+):([^\r\n]*)\r?\n")


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


class FeedbackLedger(FoldedLog):
    """Provider feedback in a ``FoldedLog`` with in-memory tallies, kept by
    its ``FoldedLog`` hooks ``_fold``, ``_seed`` and ``_row``.

    The ratio is a pure function of the feedback multiset, so replaying
    the log in any order gives the same tallies.
    """

    SNAPSHOT = ("ledger-snapshot", 3)

    def __init__(self, path):
        self._tallies: dict[str, list[int]] = {}  # provider -> [positive, negative]
        self._maps = [self._tallies]
        super().__init__(path)

    def _fold(self, data: dict) -> None:
        if data["v"] != LEDGER_VERSION:
            raise ValueError(f"unsupported ledger version {data['v']!r}")
        slot = _feedback_slot(data["provider_id"], data["feedback"])
        self._tallies.setdefault(data["provider_id"], [0, 0])[slot] += 1

    def _seed(self, row) -> None:
        provider_id, positive, negative = row
        _feedback_slot(provider_id, "positive")  # the id check a logged line gets
        self._tallies[provider_id] = [_count(positive), _count(negative)]

    @staticmethod
    def _row(provider_id: str, tally: list[int]) -> list:
        return [provider_id, *tally]

    def record(self, provider_id: str, feedback: str) -> float:
        """Validate, append, then fold: a failed write changes nothing."""
        _feedback_slot(provider_id, feedback)
        entry = {"v": LEDGER_VERSION, "provider_id": provider_id, "feedback": feedback, "at": utc_now_iso()}
        self._append(entry, self._fold, entry)
        return self.negative_ratio(provider_id)

    def negative_ratio(self, provider_id: str) -> float:
        tally = self._tallies.get(provider_id)
        if not tally or sum(tally) == 0:
            return 0.0
        return tally[1] / (tally[0] + tally[1])


class TrustService:
    """Protocol-independent core behind the HTTP layer, which tests and the
    benchmark also drive directly; the CLI writes through ``record_decision``.
    Its methods return plain dicts: the ``tmm/1`` envelope is written by
    ``_Handler._send`` alone."""

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

    def decide(self, user_id: str, counters: UserBehaviorCounters | None = None) -> dict:
        """``{decision, trust, model, evaluated_at}``: grant iff trust strictly
        exceeds the configured threshold and the subject is not banned; every
        decision appends one audit record."""
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
        return {"decision": decision, "trust": trust, "model": model,
                "evaluated_at": evaluated_at or record.evaluated_at}

    def user_trust(self, user_id: str) -> dict:
        return self.store.get("user", user_id).to_dict()  # NotFoundError propagates

    def _provider_banned(self, provider_id: str, ratio: float) -> bool:
        """The provider ban rule: a stored ``banned`` record or ``feedback_ban``."""
        return _stored_ban(self.store, "provider", provider_id) or feedback_ban(ratio)

    def provider_trust(self, provider_id: str) -> dict:
        data = self.store.get("provider", provider_id).to_dict()
        ratio = self.feedback.negative_ratio(provider_id)
        data["negative_feedback_ratio"] = ratio
        data["banned"] = self._provider_banned(provider_id, ratio)
        if data["banned"]:
            # the ban overrides the reported value but not the stored one
            data["trust"] = 0.0
            data["classification"] = "banned"
        return data

    def provider_feedback(self, provider_id: str, feedback: str) -> dict:
        ratio = self.feedback.record(provider_id, feedback)
        return {"provider_id": provider_id, "negative_feedback_ratio": ratio,
                "banned": self._provider_banned(provider_id, ratio)}


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


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` field value for a Unix time in seconds (RFC 9110 §5.6.7)."""
    return time.strftime("%a, %d %b %Y %H:%M:%S GMT", time.gmtime(second))


class _Handler(socketserver.StreamRequestHandler):
    """One connection: its requests are parsed and answered in turn until
    one of them, the client or the idle timeout closes it."""

    service: TrustService  # set on the subclass by create_http_server

    disable_nagle_algorithm = True
    timeout = IDLE_TIMEOUT_S

    def handle(self) -> None:
        self.close_connection = False
        try:
            while not self.close_connection:
                self._handle_one()
        except (TimeoutError, ConnectionError):  # idle or stalled, or the client went away: drop it
            pass

    def _handle_one(self) -> None:
        """Parse one request's line and header fields, then answer it.  The
        fields go into ``headers``, keyed by lower-cased name."""
        self.command, self.close_connection = "", True  # until the head has been read
        line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if line in (b"\r\n", b"\n"):  # one empty line before a request line is ignored (RFC 9112 §2.2)
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
        if len(line) > MAX_LINE_BYTES:
            return self._refuse(HTTPStatus.REQUEST_URI_TOO_LONG, "request line too long")
        words = line.split()
        if not words:  # the client closed the connection, or sent another blank line
            return
        if len(words) == 2 and words[0] == b"GET":  # HTTP/0.9's form, answered as HTTP/1.0
            words.append(b"HTTP/1.0")
        if len(words) != 3 or not _VERSION.fullmatch(words[2]):
            return self._refuse(HTTPStatus.BAD_REQUEST, "malformed request line")
        if words[2] >= b"HTTP/2":
            return self._refuse(HTTPStatus.HTTP_VERSION_NOT_SUPPORTED, "only HTTP/1.x is served")
        headers: dict[str, str] = {}
        for _ in range(MAX_FIELDS + 1):
            line = self.rfile.readline(MAX_LINE_BYTES + 1)
            if line in (b"\r\n", b"\n"):
                break
            if len(line) > MAX_LINE_BYTES:
                return self._refuse(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "header field line too long")
            field = _FIELD.fullmatch(line)
            if field is None:
                return self._refuse(HTTPStatus.BAD_REQUEST, "malformed header field line")
            name, value = field[1].decode().lower(), field[2].strip(b" \t").decode("latin-1")
            headers[name] = f"{headers[name]}, {value}" if name in headers else value
        else:
            return self._refuse(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, f"more than {MAX_FIELDS} header fields")
        self.command, path, self.request_version = words[0].decode("latin-1"), words[1].decode("latin-1"), words[2]
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path  # "//x" is a path, not a host
        self.headers = headers
        tokens = {token.strip().lower() for token in headers.get("connection", "").split(",")}
        self.close_connection = self.request_version < b"HTTP/1.1" or "close" in tokens
        route = {"GET": self._get, "POST": self._post}.get(self.command)
        if route is None:
            return self._refuse(HTTPStatus.METHOD_NOT_ALLOWED, f"method {self.command!r} not allowed",
                                Allow="GET, POST")
        self._answer(route)

    def _send(self, status: int, body: dict, **headers: str) -> None:
        """The one place a response body is written, as ``{"schema": "tmm/1",
        **body}``: every route, error and protocol failure goes through here."""
        data = json.dumps({"schema": SCHEMA, **body}).encode("utf-8")
        if self.close_connection:
            headers["Connection"] = "close"
        head = (f"HTTP/1.1 {status} {HTTPStatus(status).phrase}\r\nDate: {_http_date(int(time.time()))}\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
                + "".join(f"{name}: {value}\r\n" for name, value in headers.items()) + "\r\n")
        self.wfile.write(head.encode("latin-1") + (b"" if self.command == "HEAD" else data))

    def _refuse(self, status: int, message: str, **headers: str) -> None:
        """Answer an error after which the connection cannot be read on, and close it."""
        self.close_connection = True
        self._send(status, {"error": message}, **headers)

    def _internal_error(self) -> None:
        """The last-resort answer to an exception no branch expects (an
        ``OSError`` from a full disk, say): report it through the server's
        ``handle_error``, answer 500 and close the connection."""
        self.server.handle_error(self.request, self.client_address)
        self._refuse(HTTPStatus.INTERNAL_SERVER_ERROR, "internal error")

    def _read_body(self) -> bytes | None:
        """Exactly the declared body.  None once a body that cannot be
        framed has been answered; the connection then closes."""
        status, length = HTTPStatus.BAD_REQUEST, self.headers.get("content-length", "0")
        try:
            if "transfer-encoding" in self.headers:
                raise ValueError("Transfer-Encoding is not supported; send a Content-Length")
            if "," in length:
                raise ValueError("more than one Content-Length")
            size = _content_length(length)
            if size > MAX_BODY_BYTES:
                status = HTTPStatus.REQUEST_ENTITY_TOO_LARGE
                raise ValueError(f"Content-Length exceeds the {MAX_BODY_BYTES}-byte cap")
            if self.headers.get("expect", "").lower() == "100-continue" and self.request_version >= b"HTTP/1.1":
                self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")  # the client may wait for it to send the body
            body = self.rfile.read(size)
            if len(body) < size:
                raise ValueError(f"body ended after {len(body)} of {size} bytes")
            return body
        except ValueError as exc:
            self._refuse(status, str(exc))
            return None

    def _answer(self, route) -> None:
        """Read the body, then answer 200 with ``route(path, body)``; its
        exceptions map onto statuses here, for every route.  The answer is
        written outside the ``try``: a client gone by then is no route error."""
        raw = self._read_body()
        if raw is None:
            return
        try:
            status, body = 200, route(urlsplit(self.path).path.rstrip("/") or "/", raw)
        except (NotFoundError, NoTrustAvailableError) as exc:
            status, body = 404, {"error": str(exc)}
        except (ValueError, KeyError, TypeError, OverflowError) as exc:
            status, body = 400, {"error": f"bad request: {exc}"}
        except FuzzyTrustError as exc:
            status, body = 400, {"error": str(exc)}
        except Exception:
            return self._internal_error()
        self._send(status, body)

    def _get(self, path: str, raw: bytes) -> dict:
        if path == "/healthz":
            return {"status": "ok"}
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
            return self.service.decide(user_id, counters=counters)
        if path.startswith("/feedback/provider/"):
            return self.service.provider_feedback(_path_id(path, "/feedback/provider/"), payload.get("feedback", ""))
        raise NotFoundError(f"unknown path {path}")


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True  # a kept-alive connection does not hold up shutdown
    allow_reuse_address = True

    def server_close(self) -> None:
        """Close the socket, then the service the handlers serve."""
        super().server_close()
        self.RequestHandlerClass.service.close()


def create_http_server(service: TrustService) -> socketserver.ThreadingTCPServer:
    """Bound but not yet serving; call ``serve_forever`` (or wrap in a
    thread for tests), and ``server_close`` to close the socket and the
    service.  Port 0 picks a free port."""
    handler = type("BoundHandler", (_Handler,), {"service": service})
    try:
        return _Server((service.config.host, service.config.port), handler)
    except OSError as exc:
        raise FuzzyTrustError(
            f"cannot bind {service.config.host}:{service.config.port}: {exc}"
        ) from exc


def serve(config: ServiceConfig) -> None:
    """Run the service until SIGINT or SIGTERM, then close it."""
    server = create_http_server(TrustService(config))
    with server, suppress(KeyboardInterrupt):  # leaving the block calls server_close()
        signal.signal(signal.SIGTERM, signal.default_int_handler)  # raises KeyboardInterrupt, as Ctrl-C does
        host, port = server.server_address[:2]
        print(f"fuzzytrust service listening on http://{host}:{port}", flush=True)  # a pipe would hold it back
        server.serve_forever()
