"""Persistence: the only code that opens the append-only logs and the
versioned JSON documents.

- Trust store: one ``TrustRecord`` per line, ``"v": 1``.  Feedback
  ledger (``service.FeedbackLedger``): one ``{"v": 1, "provider_id",
  "feedback", "at"}`` per line.  Both are ``JsonlLog``s.
- Documents: ``{"format", "version": 1, ...}``, one per file, written by
  ``save_artifact``: ``fis``, ``cluster-model`` and ``user-trust-model``
  (read back by ``load_artifact``, checked by ``check_format``) and
  ``evaluation-report``.
- Trust-store snapshot ``store-snapshot/1``: ``<store>.snapshot`` lets an
  open skip the part of the log it covers.  Its first line is
  ``{"format": "store-snapshot", "version": 1, "log_bytes", "log_sha256",
  "lines", "records", "subjects"}``: the length of a newline-terminated
  prefix of the log, the hex SHA-256 of that prefix, the lines and the
  non-blank lines in it, and the number of lines that follow.  Each
  following line is the latest record of one (kind, id) in that prefix,
  in the store's record format.  Both are streamed, never held whole.
  An open trusts the snapshot only if every line parses, the format and
  version match, the counts agree, the records are valid and distinct,
  the prefix is no longer than the log and still hashes to that digest.
  Then the index starts from the snapshot and only the log's tail is
  replayed; otherwise the whole log is, and a corrupt line is reported
  as ever.  After an open whose replay grew the newline-terminated
  prefix, the snapshot is rewritten: a temporary file in the same
  directory, then ``os.replace``.  A failed write is ignored.  The log
  stays the source of truth: it is never rewritten, and deleting the
  snapshot costs only a full replay.

Durability: every appended line is flushed and nothing is fsynced, so a
line survives a crash of the process, not necessarily of the host.  An
unreadable line is reported with its file and line on the next open.  If
the last line lost its newline (a write cut short), the first append
starts on a fresh line, so the next open still reads every record.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import stat
import tempfile
import threading
from collections.abc import Mapping
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

from .errors import NotFoundError, StoreCorruptError

RECORD_VERSION = 1
SNAPSHOT_FORMAT = "store-snapshot"
SNAPSHOT_VERSION = 1
SNAPSHOT_SUFFIX = ".snapshot"
HASH_CHUNK_BYTES = 1 << 16

SUBJECT_KINDS = ("user", "provider")
CLASSIFICATIONS = ("trusted", "untrusted", "banned")
MODELS = ("baseline", "fis")


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class LogPosition(NamedTuple):
    """A point in a ``JsonlLog`` just past a newline (or at its start): the
    bytes before it, the lines among them and the records (non-blank lines)."""

    offset: int = 0
    lines: int = 0
    records: int = 0


class JsonlLog:
    """An append-only file of JSON objects, one per line.

    Opening streams the file from ``start`` through ``fold`` line by line;
    a line that is not JSON or that ``fold`` rejects with ``ValueError``,
    ``KeyError`` or ``TypeError`` raises ``StoreCorruptError`` with its
    line number in the whole file.  ``end`` is then the position after the
    last line, or None if that line lacks its newline.  ``append`` opens
    one handle on first use and flushes each line; its owner serialises
    calls.
    """

    def __init__(self, path, fold, start: LogPosition = LogPosition()):
        self.path = Path(path)
        self._fh = None
        self._count = start.records
        self._unterminated = False  # the file's last line lacks its newline
        self.end: LogPosition | None = start
        if not self.path.exists():
            return
        lineno, raw = start.lines, "\n"  # an empty tail counts as terminated
        with open(self.path, "rb") as binary:
            binary.seek(start.offset)
            # lines end at "\n" only, as they do for byte offsets
            fh = io.TextIOWrapper(binary, encoding="utf-8", newline="\n")
            for lineno, raw in enumerate(fh, start=start.lines + 1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    fold(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:
                    raise StoreCorruptError(self.path, lineno, str(exc)) from exc
                self._count += 1
            self._unterminated = not raw.endswith("\n")
            # the text layer has consumed every byte up to the end of the file
            self.end = None if self._unterminated else LogPosition(binary.tell(), lineno, self._count)

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
        if not isinstance(self.subject_id, str) or not self.subject_id:
            raise ValueError(f"subject_id must be a non-empty str, got {self.subject_id!r}")
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


def _sha256(path: Path, start: int, stop: int, digest=None):
    """``digest`` (a new SHA-256 if None) updated with bytes ``[start, stop)``
    of ``path``, read in chunks of at most ``HASH_CHUNK_BYTES``.
    ``ValueError`` if the file ends before ``stop``."""
    digest = digest or hashlib.sha256()
    with open(path, "rb", buffering=0) as fh:
        fh.seek(start)
        while start < stop:
            chunk = fh.read(min(HASH_CHUNK_BYTES, stop - start))
            if not chunk:
                raise ValueError(f"{path} ends at byte {start}, before {stop}")
            digest.update(chunk)
            start += len(chunk)
    return digest


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


class TrustStore:
    """Trust records in a ``JsonlLog``, indexed in memory by the latest
    record per (subject kind, subject id).  "Latest" is the latest
    ``evaluated_at`` instant, whatever its UTC offset; of equal instants
    the one appended last.  Opening replays the log after the prefix a
    valid snapshot covers (all of it without one) and reports the first
    corrupt line replayed, if any, an unparsable ``evaluated_at`` included."""

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
        path = Path(path)
        self._snapshot_path = path.with_name(path.name + SNAPSHOT_SUFFIX)
        start, digest = self._seed_from_snapshot(path)
        self._log = JsonlLog(path, replay, start)
        end = self._log.end
        if end is not None and end.offset > start.offset:
            self._write_snapshot(path, start, digest, end)

    def _seed_from_snapshot(self, path: Path) -> tuple[LogPosition, object]:
        """Index the records of a snapshot that passes every check and return
        the log position it covers with that prefix's running digest; else
        leave the index empty and return the log's start and None."""
        header = {}

        def seed(data: dict) -> None:
            if header:
                record = TrustRecord.from_dict(data)
                self._index(record, _instant(record.evaluated_at))
                return
            check_format(data, SNAPSHOT_FORMAT, SNAPSHOT_VERSION)
            covered = LogPosition(_count(data["log_bytes"]), _count(data["lines"]), _count(data["records"]))
            digest = _sha256(path, 0, covered.offset)  # ValueError if the log is shorter
            if digest.hexdigest() != data["log_sha256"]:
                raise ValueError("the log prefix has changed")
            header.update(covered=covered, digest=digest, subjects=_count(data["subjects"]))

        try:
            snapshot = JsonlLog(self._snapshot_path, seed)
            if not header:
                raise ValueError("no snapshot")
            covered, indexed = header["covered"], sum(map(len, self._latest.values()))
            if not len(snapshot) - 1 == indexed == header["subjects"] <= covered.records <= covered.lines:
                raise ValueError("the snapshot's counts disagree")
            return covered, header["digest"]
        except (OSError, ValueError, StoreCorruptError, RecursionError):
            for by_id in self._latest.values():
                by_id.clear()
            return LogPosition(), None

    def _write_snapshot(self, path: Path, start: LogPosition, digest, end: LogPosition) -> None:
        """Replace the snapshot with one covering the log up to ``end``;
        ``digest`` has hashed the log up to ``start``.  A failed write leaves
        the store as it is; the next open then ignores or keeps the old
        snapshot."""
        target = self._snapshot_path
        tmp = None
        try:
            header = {
                "format": SNAPSHOT_FORMAT,
                "version": SNAPSHOT_VERSION,
                "log_bytes": end.offset,
                "log_sha256": _sha256(path, start.offset, end.offset, digest).hexdigest(),
                "lines": end.lines,
                "records": end.records,
                "subjects": sum(map(len, self._latest.values())),
            }
            fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
            with open(fd, "w", encoding="utf-8") as fh:
                os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))  # readable by whoever may read the log
                fh.write(json.dumps(header) + "\n")
                for by_id in self._latest.values():
                    for _, record in by_id.values():
                        fh.write(json.dumps(record.to_dict()) + "\n")
            os.replace(tmp, target)
        except (OSError, ValueError):
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

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
