"""Persistence: the only code that opens the append-only logs and the
versioned JSON documents.

- Trust store: one ``TrustRecord`` per line, ``"v": 1``.  Feedback
  ledger (``service.FeedbackLedger``): one ``{"v": 1, "provider_id",
  "feedback", "at"}`` per line.  Both are ``JsonlLog``s.
- Documents: ``{"format", "version": 1, ...}``, one per file, written by
  ``save_artifact``: ``fis``, ``cluster-model`` and ``user-trust-model``
  (read back by ``load_artifact``, checked by ``check_format``) and
  ``evaluation-report``.

Durability: every appended line is flushed and nothing is fsynced, so a
line survives a crash of the process, not necessarily of the host.  An
unreadable line is reported with its file and line on the next open.  If
the last line lost its newline (a write cut short), the first append
starts on a fresh line, so the next open still reads every record.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import NotFoundError, StoreCorruptError

RECORD_VERSION = 1

SUBJECT_KINDS = ("user", "provider")
CLASSIFICATIONS = ("trusted", "untrusted", "banned")
MODELS = ("baseline", "fis")


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class JsonlLog:
    """An append-only file of JSON objects, one per line.

    Opening streams the file through ``fold`` line by line; a line that
    is not JSON or that ``fold`` rejects with ``ValueError``, ``KeyError``
    or ``TypeError`` raises ``StoreCorruptError``.  ``append`` opens one
    handle on first use and flushes each line; its owner serialises calls.
    """

    def __init__(self, path, fold):
        self.path = Path(path)
        self._fh = None
        self._count = 0
        self._unterminated = False  # the file's last line lacks its newline
        if not self.path.exists():
            return
        raw = "\n"  # an empty file counts as terminated
        with open(self.path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    fold(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise StoreCorruptError(self.path, lineno, str(exc)) from exc
                self._count += 1
        self._unterminated = not raw.endswith("\n")

    def append(self, data: dict) -> None:
        line = json.dumps(data) + "\n"
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        if self._unterminated:  # a write cut short: start on a fresh line
            line = "\n" + line
        self._fh.write(line)
        self._fh.flush()
        self._unterminated = False
        self._count += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __len__(self) -> int:
        """Lines replayed plus lines appended."""
        return self._count


@dataclass(frozen=True)
class TrustRecord:
    subject_id: str
    subject_kind: str
    trust: float
    classification: str
    model: str
    evaluated_at: str  # ISO-8601

    def __post_init__(self):
        if not self.subject_id:
            raise ValueError("subject_id must be non-empty")
        if self.subject_kind not in SUBJECT_KINDS:
            raise ValueError(f"subject_kind must be one of {SUBJECT_KINDS}, got {self.subject_kind!r}")
        if self.classification not in CLASSIFICATIONS:
            raise ValueError(f"classification must be one of {CLASSIFICATIONS}, got {self.classification!r}")
        if self.model not in MODELS:
            raise ValueError(f"model must be one of {MODELS}, got {self.model!r}")
        if not (0.0 <= self.trust <= 1.0):
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")

    def to_dict(self) -> dict:
        return {
            "v": RECORD_VERSION,
            "subject_id": self.subject_id,
            "subject_kind": self.subject_kind,
            "trust": self.trust,
            "classification": self.classification,
            "model": self.model,
            "evaluated_at": self.evaluated_at,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrustRecord":
        if data["v"] != RECORD_VERSION:
            raise ValueError(f"unsupported record version {data['v']!r}")
        return cls(
            subject_id=data["subject_id"],
            subject_kind=data["subject_kind"],
            trust=float(data["trust"]),
            classification=data["classification"],
            model=data["model"],
            evaluated_at=data["evaluated_at"],
        )


def _instant(evaluated_at: str) -> datetime:
    """The instant an ISO-8601 stamp names; a stamp without an offset is UTC."""
    instant = datetime.fromisoformat(evaluated_at)
    return instant if instant.tzinfo is not None else instant.replace(tzinfo=timezone.utc)


class TrustStore:
    """Trust records in a ``JsonlLog``, indexed in memory by the latest
    record per (subject kind, subject id).  "Latest" is the latest
    ``evaluated_at`` instant, whatever its UTC offset; of equal instants
    the one appended last.  Opening replays the whole file and reports the
    first corrupt line, if any, an unparsable ``evaluated_at`` included."""

    def __init__(self, path):
        self._lock = threading.Lock()
        # kind -> id -> (instant, record): on replay a nested lookup is cheaper
        # than a tuple key per line, and each stamp is parsed once
        self._latest: dict[str, dict[str, tuple[datetime, TrustRecord]]] = {kind: {} for kind in SUBJECT_KINDS}
        latest, from_dict = self._latest, TrustRecord.from_dict

        def index(record: TrustRecord, instant: datetime) -> None:
            by_id = latest[record.subject_kind]
            current = by_id.get(record.subject_id)
            if current is None or instant >= current[0]:
                by_id[record.subject_id] = (instant, record)

        def replay(data: dict) -> None:
            record = from_dict(data)
            index(record, _instant(record.evaluated_at))

        self._index = index
        self._log = JsonlLog(path, replay)

    def put(self, record: TrustRecord) -> None:
        """Parse, append, then index: a record that would not replay is
        never written, and a failed write leaves the index unchanged."""
        instant = _instant(record.evaluated_at)
        with self._lock:
            self._log.append(record.to_dict())
            self._index(record, instant)

    def get(self, kind: str, subject_id: str) -> TrustRecord:
        with self._lock:
            entry = self._latest.get(kind, {}).get(subject_id)
        if entry is None:
            raise NotFoundError(f"no trust record for {kind} {subject_id!r}")
        return entry[1]

    def close(self) -> None:
        with self._lock:
            self._log.close()

    def __len__(self) -> int:
        """Total records appended (not unique subjects)."""
        return len(self._log)


def check_format(data, fmt: str, version: int = 1) -> None:
    """Raise ``ValueError`` unless ``data`` is a ``fmt`` document of ``version``."""
    if not isinstance(data, Mapping) or data.get("format") != fmt:
        raise ValueError(f"not a {fmt} document")
    if data.get("version") != version:
        raise ValueError(f"unsupported {fmt} version {data.get('version')!r}, expected {version}")


def save_artifact(obj, path) -> None:
    """Write ``obj.to_dict()`` to ``path`` as indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj.to_dict(), fh, indent=2)
        fh.write("\n")


def load_artifact(cls, path):
    """``cls.from_dict`` of the JSON document at ``path``.  A document that
    does not parse or that ``from_dict`` rejects raises ``ValueError``
    naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return cls.from_dict(json.load(fh))
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"{path}: {type(exc).__name__}: {exc}") from exc
