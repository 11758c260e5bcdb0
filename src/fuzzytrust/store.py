"""Persistence: the only code that opens the append-only logs and the
versioned JSON documents.

- Logs: the trust store (``TrustStore``), one ``TrustRecord`` per line,
  ``"v": 1``, and the feedback ledger (``service.FeedbackLedger``), one
  ``{"v": 1, "provider_id", "feedback", "at"}`` per line.  Both are
  ``FoldedLog``s: that class alone opens, replays, seals and appends to a
  log, and each subclass adds only its state and its fold, seed and row
  hooks.
- Documents: ``{"format", "version": 1, ...}``, one per file, written by
  ``save_artifact``: ``fis`` and ``user-trust-model`` (read back by
  ``load_artifact``, checked by ``check_format``) and
  ``evaluation-report``.
- Segments: a log is its sealed segments ``<log>.000001``, ``<log>.000002``,
  ... and then the active file ``<log>``, read in that order.  An append
  that would start at or past ``SEGMENT_BYTES`` first seals the active file,
  on a line boundary (after a write cut short the newline goes in first):
  ``os.link`` to the next free number, then ``os.unlink``, so a seal never
  replaces a segment that another writer sealed under the same number.  The
  writer that sealed a segment never writes to it again.  A one-file log
  from before segments is an active file and opens as it is.  A gap in the
  numbering raises ``StoreCorruptError`` naming the missing file; a corrupt
  line is named by its segment file and its line within that file.  A
  process killed between the link and the unlink leaves the active name on
  the highest segment's file; the next open removes that name, so the file
  is read once.
- Snapshots: ``<log>.snapshot`` checkpoints the state a ``FoldedLog``
  folds its log into, so an open skips the part of the log it covers.  Its
  first line is ``{"format", "version", "sealed", "log_bytes",
  "log_sha256", "lines", "records", "subjects"}``.  ``sealed`` holds
  ``[bytes, mtime_ns, sha256, lines]`` for each sealed segment in order:
  its length, ``st_mtime_ns``, hex SHA-256 and lines, taken when it sealed
  from the digest its appends kept, so a seal reads nothing back.  Then
  come the length of a newline-terminated prefix of the active file, the
  hex SHA-256 of that prefix, the lines in it, the non-blank lines of the
  whole log up to it, and the number of rows below.  Each following line
  is a JSON array of at most ``SNAPSHOT_ROWS_PER_LINE`` rows, one per
  subject: in the trust store's ``store-snapshot/4``, ``[subject_kind,
  subject_id, trust, classification, model, evaluated_at]`` of the latest
  record per (kind, id), users before providers; in the ledger's
  ``ledger-snapshot/3``, ``[provider_id, positive, negative]``.  The last
  line, the trailer, is ``{"sha256"}``: the hex SHA-256 of every byte above
  it, header and rows.  Both directions stream the file a line at a time,
  never whole.  An open trusts a snapshot only if every line parses and
  keeps to the cap, the format and version match, every row is valid and
  of a distinct subject, the trailer is present, last and matches, the
  rows number ``subjects``, ``subjects <= records <= lines`` (counting the
  sealed segments' lines), every sealed segment it lists is on disk, and
  the prefix still hashes to its digest.  A sealed segment is checked by
  one ``stat``: it holds if its length and ``st_mtime_ns`` match; if only
  its ``st_mtime_ns`` differs (a copy, say), it is re-hashed against its
  recorded digest.  The prefix is hashed where it now lives: in the active
  file, or, if the log sealed after the snapshot was written, in the first
  segment the snapshot does not list.  Then the state starts from the
  snapshot and only what follows the prefix is replayed; otherwise every
  segment is, and a corrupt line is reported as ever.  So a file of an
  older version (``store-snapshot/1`` to ``/3``, ``ledger-snapshot/1`` or
  ``/2``) is ignored once and then replaced.  An open no longer catches
  one edit: one to a sealed segment that keeps both its length and its
  ``st_mtime_ns``; ``changed_segments`` re-hashes every segment in full and
  names it.  The digests catch a damaged or hand-edited file, not a forged
  one: SHA-256 is not a MAC, so an edit that also recomputes the trailer
  (and the log digests, if it edits the log) passes.  The snapshot is
  rewritten at two points: at open, after a replay that moved what it
  would record, and at ``close()``, when this object appended since its
  last checkpoint and the active file is as long as this object wrote it
  (no other writer appended since).  The replay hashes each line as it
  folds it, so the tail is read once, and each append adds its bytes to
  that digest, so a close reads nothing back.
  ``fuzzytrust serve`` closes on SIGINT and SIGTERM; a process killed
  before ``close()`` leaves the old snapshot, and its appends are a tail
  that the next open replays and checkpoints.  Each rewrite goes to a
  temporary file in the same directory, then ``os.replace``; a failed write
  removes that file and keeps the old snapshot, and the next rewrite
  removes one that a killed writer left.  The log stays the source of
  truth: it is never rewritten, and deleting the snapshot costs only a full
  replay.

Single writer: a ``FoldedLog`` reads its log once, when it opens, and
then sees only the records appended through itself.  Records another
process (or another ``FoldedLog`` on the same file) appends later stay
invisible to it until it is reopened.  Two writers on one log lose no
record and never replace each other's segments.  A writer that finds the
log changed under it at a seal stops checkpointing until it is reopened.
A writer whose handle is still on a file that another writer has sealed
appends to that segment until its own next seal; the segment then matches
no snapshot, and the next open replays every segment.

Durability: every appended line is flushed and nothing is fsynced, so a
line survives a crash of the process, not necessarily of the host.  An
unreadable line is reported with its file and line on the next open.  If
the last line lost its newline (a write cut short), the first append
starts on a fresh line, so the next open still reads every record.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import stat
import tempfile
import threading
from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from .errors import NotFoundError, StoreCorruptError

RECORD_VERSION = 1
SNAPSHOT_SUFFIX = ".snapshot"
HASH_CHUNK_BYTES = 1 << 16
SNAPSHOT_ROWS_PER_LINE = 256  # bounds what one snapshot line holds in memory, read or written
# SHA-256 runs at about 1.4 GB/s on one core of a 2-vCPU Xeon guest, so an
# open that hashes a full active segment spends ~3 ms, a tenth of a
# one-file open of the 18 MB benchmark store
SEGMENT_BYTES = 4 << 20

SUBJECT_KINDS = ("user", "provider")
CLASSIFICATIONS = ("trusted", "untrusted", "banned")
MODELS = ("baseline", "fis")


def utc_now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


class LogPosition(NamedTuple):
    """A point in one file of a log just past a newline (or at its start):
    the bytes before it and the lines among them, and the records
    (non-blank lines) of the whole log up to it."""

    offset: int = 0
    lines: int = 0
    records: int = 0


class Segment(NamedTuple):
    """A sealed segment as a snapshot records it: its length,
    ``st_mtime_ns``, the hex SHA-256 of its bytes and its lines."""

    size: int
    mtime_ns: int
    sha256: str
    lines: int


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
        if not (0.0 <= _real(self.trust) <= 1.0):
            raise ValueError(f"trust must lie in [0, 1], got {self.trust}")
        if not isinstance(self.evaluated_at, str):  # the type only: a second parse would slow every replay
            raise ValueError(f"evaluated_at must be an ISO-8601 str, got {self.evaluated_at!r}")

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
            trust=_real(data["trust"]),
            classification=data["classification"],
            model=data["model"],
            evaluated_at=data["evaluated_at"],
        )


def _real(trust) -> float:
    """``trust`` as a float if it is an int or a float, not a bool; else
    ``ValueError``."""
    if isinstance(trust, bool) or not isinstance(trust, (int, float)):
        raise ValueError(f"trust must be a real number, got {trust!r}")
    return float(trust)


def _instant(evaluated_at: str) -> datetime:
    """The instant an ISO-8601 stamp names; a stamp without an offset is UTC."""
    instant = datetime.fromisoformat(evaluated_at)
    return instant if instant.tzinfo is not None else instant.replace(tzinfo=timezone.utc)


def _sha256(path: Path, stop: int):
    """A SHA-256 of the first ``stop`` bytes of ``path``, read in chunks of
    at most ``HASH_CHUNK_BYTES``.  ``ValueError`` if the file is shorter."""
    digest, done = hashlib.sha256(), 0
    if stop == 0:  # the file need not exist
        return digest
    with open(path, "rb", buffering=0) as fh:
        while done < stop:
            chunk = fh.read(min(HASH_CHUNK_BYTES, stop - done))
            if not chunk:
                raise ValueError(f"{path} ends at byte {done}, before {stop}")
            digest.update(chunk)
            done += len(chunk)
    return digest


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r}")
    return value


def _segment_path(path: Path, number: int) -> Path:
    return path.with_name(f"{path.name}.{number:06d}")


def _sealed_paths(path: Path) -> list[Path]:
    """The sealed segments of the log at ``path``, in order.
    ``StoreCorruptError`` names the first missing one if the numbers have a gap."""
    prefix = path.name + "."
    try:
        names = os.listdir(path.parent)
    except FileNotFoundError:
        return []
    numbers = sorted(
        int(rest)
        for rest in (name[len(prefix) :] for name in names if name.startswith(prefix))
        if rest.isascii() and rest.isdigit() and rest == f"{int(rest):06d}" and int(rest) > 0
    )
    for expected, number in enumerate(numbers, start=1):
        if number != expected:
            last = _segment_path(path, numbers[-1]).name
            raise StoreCorruptError(_segment_path(path, expected), None, f"missing; the log's segments run to {last}")
    return [_segment_path(path, number) for number in numbers]


def _sealed_entries(header) -> list[Segment]:
    """The ``sealed`` list of a snapshot header as ``Segment``s; else
    ``ValueError``, ``KeyError`` or ``TypeError``."""
    sealed = []
    for size, mtime_ns, sha256, lines in header["sealed"]:
        if not isinstance(sha256, str):
            raise ValueError(f"expected a hex digest, got {sha256!r}")
        sealed.append(Segment(_count(size), _count(mtime_ns), sha256, _count(lines)))
    return sealed


def _check_sealed(file: Path, segment: Segment) -> Segment:
    """``segment`` as ``file`` holds it now, by one ``stat``: as it is if the
    length and ``st_mtime_ns`` match; with the new ``st_mtime_ns`` if only that
    differs and the bytes still hash to its digest; else ``ValueError``."""
    st = file.stat()
    if st.st_size != segment.size:
        raise ValueError(f"{file} is not as long as when it was sealed")
    if st.st_mtime_ns != segment.mtime_ns:
        if _sha256(file, segment.size).hexdigest() != segment.sha256:
            raise ValueError(f"{file} has changed since it was sealed")
        return segment._replace(mtime_ns=st.st_mtime_ns)
    return segment


def changed_segments(path) -> list[Path]:
    """The files of the log at ``path`` that no longer hash to what its
    snapshot records: each sealed segment the snapshot lists, re-hashed in
    full, and the file that holds the snapshot's active prefix.  Unlike an
    open, this finds an edit that keeps a sealed segment's length and
    ``st_mtime_ns``.  Raises as ``json`` does if the header does not parse."""
    path = Path(path)
    with open(path.with_name(path.name + SNAPSHOT_SUFFIX), "rb") as fh:
        header = json.loads(fh.readline())
    sealed = _sealed_entries(header)
    changed = []
    for number, segment in enumerate(sealed, start=1):
        file = _segment_path(path, number)
        with suppress(OSError, ValueError):
            if file.stat().st_size == segment.size and _sha256(file, segment.size).hexdigest() == segment.sha256:
                continue
        changed.append(file)
    after = _segment_path(path, len(sealed) + 1)
    prefix = after if after.exists() else path
    with suppress(OSError, ValueError):
        if _sha256(prefix, header["log_bytes"]).hexdigest() == header["log_sha256"]:
            return changed
    return changed + [prefix]


class FoldedLog:
    """An append-only log of JSON objects, one per line, kept as numbered
    segments, folded into in-memory state and checkpointed as the module
    docstring says.

    A subclass sets ``SNAPSHOT = (format, version)``, keeps its state in the
    dicts ``_maps`` (set before ``__init__``) and defines three hooks:
    ``_fold(data)`` folds one log line into that state, ``_seed(row)`` one
    snapshot row, and ``_row(key, value)`` makes the snapshot row of one
    entry.  Opening replays the log line by line from the end of a trusted
    snapshot's prefix, else every segment from its start; a line that is not
    UTF-8 JSON, or that ``_fold`` rejects with ``ValueError``, ``KeyError``
    or ``TypeError``, raises ``StoreCorruptError`` with its file and its line
    in that file.  ``_append`` opens one handle on the active file on first
    use, seals that file first once it holds ``SEGMENT_BYTES``, and flushes
    each line; ``close`` closes the handle and checkpoints, and a second
    ``close`` does nothing.
    """

    def __init__(self, path):
        self._path = Path(path)
        self._snapshot_path = self._path.with_name(self._path.name + SNAPSHOT_SUFFIX)
        self._lock = threading.Lock()
        self._fh = None
        self._unterminated = False  # the active file's last line lacks its newline
        paths = _sealed_paths(self._path)
        if paths and self._path.exists() and os.path.samefile(self._path, paths[-1]):
            os.unlink(self._path)  # a seal killed between its link and its unlink: finish it
        recorded, self._sealed, start, digest = self._seed_from_snapshot(paths)
        covered = (recorded, start)
        self._count = start.records
        for file in paths[len(self._sealed) :]:  # those the snapshot does not list; the first holds its prefix
            end = self._replay(file, start, digest)
            self._sealed.append(Segment(end.offset, file.stat().st_mtime_ns, digest.hexdigest(), end.lines))
            start, digest = LogPosition(records=self._count), hashlib.sha256()
        end = self._replay(self._path, start, digest)
        # the active file as this object knows it: how long, where it stood at
        # open or at the last seal, and the digest of its bytes, to which
        # ``_write`` adds each line, so ``close`` knows the log's end without a
        # read; no digest after a cut-short line, or once another writer changed the log
        self._size, self._start = end.offset, end
        self._digest = None if self._unterminated else digest
        if self._digest is not None and (self._sealed, end) != covered:
            self._write_snapshot(end, digest)
        self._checkpointed = self._count  # records at the last checkpoint

    def _seed_from_snapshot(self, paths: list[Path]) -> tuple[list[Segment], list[Segment], LogPosition, object]:
        """Seed the state from a snapshot that passes every check and return
        the sealed segments it records, the same as they are now (a re-hashed
        one with its new ``st_mtime_ns``), the position of its prefix and that
        prefix's running digest; else leave the state empty and return no
        segments, the log's start and a new digest.  ``paths`` are the sealed
        segments on disk."""
        header = trailer = None
        rows, body = 0, hashlib.sha256()  # body: every byte above the trailer
        try:
            with open(self._snapshot_path, "rb") as fh:
                for raw in fh:
                    if trailer is not None:
                        raise ValueError("a line after the snapshot's trailer")
                    data = json.loads(raw)
                    if header is None:
                        check_format(data, *self.SNAPSHOT)
                        header = data
                    elif isinstance(data, dict) and data.keys() == {"sha256"}:
                        if data["sha256"] != body.hexdigest():
                            raise ValueError("the snapshot's rows have changed")
                        trailer = data
                        continue
                    else:
                        if len(data) > SNAPSHOT_ROWS_PER_LINE:
                            raise ValueError(f"a snapshot line holds more than {SNAPSHOT_ROWS_PER_LINE} rows")
                        for row in data:
                            self._seed(row)
                        rows += len(data)
                    body.update(raw)
            if trailer is None:
                raise ValueError("the snapshot has no trailer")
            sealed = _sealed_entries(header)
            covered = LogPosition(_count(header["log_bytes"]), _count(header["lines"]), _count(header["records"]))
            lines = covered.lines + sum(segment.lines for segment in sealed)
            if not rows == sum(map(len, self._maps)) == _count(header["subjects"]) <= covered.records <= lines:
                raise ValueError("the snapshot's counts disagree")
            if len(sealed) > len(paths):
                raise ValueError("a sealed segment is missing")
            checked = [_check_sealed(file, segment) for file, segment in zip(paths, sealed)]
            # the prefix is in the active file, or in the first segment sealed since
            prefix = paths[len(sealed)] if len(paths) > len(sealed) else self._path
            digest = _sha256(prefix, covered.offset)  # ValueError if the file is shorter
            if digest.hexdigest() != header["log_sha256"]:
                raise ValueError("the log prefix has changed")
            return sealed, checked, covered, digest
        except (OSError, ValueError, KeyError, TypeError, RecursionError):
            for state in self._maps:
                state.clear()
            return [], [], LogPosition(), hashlib.sha256()

    def _replay(self, file: Path, start: LogPosition, digest) -> LogPosition:
        """Fold ``file`` from ``start`` on, adding each line's bytes to
        ``digest``, which has hashed the file up to ``start``, and note
        whether its last line lacks its newline.  Return the position at its
        end, or ``start`` if there is no such file."""
        try:
            fh = open(file, "rb")
        except FileNotFoundError:
            self._unterminated = False
            return start
        fold, lineno, raw = self._fold, start.lines, b"\n"  # an empty tail counts as terminated
        with fh:
            fh.seek(start.offset)
            for lineno, raw in enumerate(fh, start=start.lines + 1):  # lines end at b"\n" only
                digest.update(raw)
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    fold(json.loads(line))
                except (ValueError, KeyError, TypeError) as exc:  # UnicodeDecodeError is a ValueError
                    raise StoreCorruptError(file, lineno, str(exc)) from exc
                self._count += 1
            self._unterminated = not raw.endswith(b"\n")
            return LogPosition(fh.tell(), lineno, self._count)

    def _write_snapshot(self, end: LogPosition, digest) -> None:
        """Replace the snapshot with one covering the sealed segments and the
        active file up to ``end``, whose bytes ``digest`` has hashed.  It
        first removes every temporary file (``<snapshot>.*.tmp``) that a
        writer killed mid-write left behind.  A failed write leaves the state
        as it is; the next open then ignores or keeps the old snapshot.  Two
        processes that rewrite one snapshot at once each write their own
        temporary file, and the last ``os.replace`` wins; if one removes the
        other's file as stale, that write fails."""
        target = self._snapshot_path
        tmp = None
        try:
            for stale in target.parent.glob(glob.escape(target.name) + ".*.tmp"):
                stale.unlink(missing_ok=True)
            header = {
                "format": self.SNAPSHOT[0],
                "version": self.SNAPSHOT[1],
                "sealed": [list(segment) for segment in self._sealed],
                "log_bytes": end.offset,
                "log_sha256": digest.hexdigest(),
                "lines": end.lines,
                "records": end.records,
                "subjects": sum(map(len, self._maps)),
            }
            # readable by whoever may read the log: the active file, or the last segment if there is none
            source = self._path if self._path.exists() else _segment_path(self._path, len(self._sealed))
            fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
            with open(fd, "wb") as fh:
                os.chmod(tmp, stat.S_IMODE(source.stat().st_mode))
                body = hashlib.sha256()

                def write(data) -> None:
                    line = (json.dumps(data) + "\n").encode("utf-8")
                    body.update(line)
                    fh.write(line)

                write(header)
                rows = (self._row(key, value) for state in self._maps for key, value in state.items())
                while chunk := list(islice(rows, SNAPSHOT_ROWS_PER_LINE)):
                    write(chunk)
                fh.write((json.dumps({"sha256": body.hexdigest()}) + "\n").encode("utf-8"))
            os.replace(tmp, target)
        except (OSError, ValueError):
            if tmp is not None:
                with suppress(OSError):
                    os.unlink(tmp)

    def _open(self) -> None:
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self._path, "ab")

    def _seal(self) -> None:
        """Seal the active file, on a line boundary, as the next free segment;
        the next write starts a new active file.  If another writer sealed
        this file first, took the next number or appended to this file, stop
        checkpointing: a recorded segment must hold exactly the bytes that
        this object's digest covers."""
        if self._fh is None:
            self._open()
        if self._unterminated:
            self._fh.write(b"\n")
            self._fh.flush()
            self._unterminated = False
            self._size += 1
        st = os.fstat(self._fh.fileno())
        self._fh.close()
        self._fh = None
        try:
            if os.path.samestat(os.stat(self._path), st):  # else another writer sealed this file first
                self._link()
                os.unlink(self._path)
            else:
                self._digest = None
        except FileNotFoundError:  # ... or is sealing it now
            self._digest = None
        if self._digest is not None and st.st_size == self._size:
            lines = self._start.lines + self._count - self._start.records  # each append is one line
            self._sealed.append(Segment(st.st_size, st.st_mtime_ns, self._digest.hexdigest(), lines))
            self._digest = hashlib.sha256()
        else:
            self._digest = None
        self._size, self._start = 0, LogPosition(records=self._count)

    def _link(self) -> None:
        """Link the active file to the lowest free segment number from the
        next one on; never over a segment that exists.  If another writer
        holds a number for this same file, leave the file linked there."""
        number = len(self._sealed) + 1
        while True:
            target = _segment_path(self._path, number)
            try:
                os.link(self._path, target)
                return
            except FileExistsError:
                self._digest = None  # a segment this object has not folded
                if os.path.samefile(target, self._path):
                    return
                number += 1

    def _write(self, data: dict) -> None:
        """Write ``data`` as one line, flush it and add its bytes to the
        running digest; seal the active file first once it holds the cap, and
        after a write cut short, start on a fresh line."""
        line = (json.dumps(data) + "\n").encode("utf-8")
        if self._size >= SEGMENT_BYTES:
            self._seal()
        if self._fh is None:
            self._open()
        if self._unterminated:
            line = b"\n" + line
        self._fh.write(line)
        self._fh.flush()
        self._unterminated = False
        self._count += 1
        self._size += len(line)
        if self._digest is not None:
            self._digest.update(line)

    def _append(self, data: dict, apply, *args) -> None:
        """Append ``data``, then ``apply(*args)``: a failed write changes nothing."""
        with self._lock:
            self._write(data)
            apply(*args)

    def close(self) -> None:
        """Close the append handle, then checkpoint as the module docstring says."""
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if self._digest is None or self._count == self._checkpointed:
                return
            self._checkpointed = self._count
            end = LogPosition(self._size, self._start.lines + self._count - self._start.records, self._count)
            with suppress(OSError):
                if self._path.stat().st_size == end.offset:  # else another writer appended: leave it to the next open
                    self._write_snapshot(end, self._digest)

    def __len__(self) -> int:
        """Records replayed plus records appended (not unique subjects)."""
        return self._count


class TrustStore(FoldedLog):
    """Trust records in a ``FoldedLog``, indexed in memory by the latest
    record per (subject kind, subject id).  "Latest" is the latest
    ``evaluated_at`` instant, whatever its UTC offset; of equal instants
    the one appended last.  An unparsable ``evaluated_at`` is a corrupt line."""

    SNAPSHOT = ("store-snapshot", 4)

    def __init__(self, path):
        # kind -> id -> (instant, record): on replay a nested lookup is cheaper
        # than a tuple key per line, and each stamp is parsed once
        self._latest: dict[str, dict[str, tuple[datetime, TrustRecord]]] = {kind: {} for kind in SUBJECT_KINDS}
        self._maps = list(self._latest.values())
        super().__init__(path)

    def _index(self, record: TrustRecord, instant: datetime) -> None:
        by_id = self._latest[record.subject_kind]
        current = by_id.get(record.subject_id)
        if current is None or instant >= current[0]:
            by_id[record.subject_id] = (instant, record)

    def _fold(self, data: dict) -> None:
        record = TrustRecord.from_dict(data)
        self._index(record, _instant(record.evaluated_at))

    def _seed(self, row) -> None:
        kind, subject_id, trust, classification, model, evaluated_at = row
        self._index(TrustRecord(subject_id, kind, trust, classification, model, evaluated_at), _instant(evaluated_at))

    @staticmethod
    def _row(subject_id: str, entry: tuple[datetime, TrustRecord]) -> list:
        r = entry[1]  # an int trust put in this process is written as the float a replay reads
        return [r.subject_kind, r.subject_id, float(r.trust), r.classification, r.model, r.evaluated_at]

    def put(self, record: TrustRecord) -> None:
        """Parse, append, then index: a record that would not replay is
        never written, and a failed write leaves the index unchanged."""
        self._append(record.to_dict(), self._index, record, _instant(record.evaluated_at))

    def get(self, kind: str, subject_id: str) -> TrustRecord:
        with self._lock:
            entry = self._latest.get(kind, {}).get(subject_id)
        if entry is None:
            raise NotFoundError(f"no trust record for {kind} {subject_id!r}")
        return entry[1]


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
