"""Sealed log segments: a ``FoldedLog`` past ``SEGMENT_BYTES`` seals its
active file as ``<log>.000001``, ``.000002``, ... and an open checks each
sealed segment by one ``stat`` and hashes only the active file.  Each log
has one writer, held by its lock: a second open, in this process or
another, is refused.

Every test shrinks the cap so that a few records fill a segment.  A reopen
is compared with a full scan (byte copies of every segment, no snapshot)
and, where the records are known, with an independent fold of them."""

import json
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from fuzzytrust import store as store_module
from fuzzytrust.errors import LogHeldError, StoreCorruptError
from fuzzytrust.service import FeedbackLedger
from fuzzytrust.store import LogPosition, TrustRecord, TrustStore

pytestmark = pytest.mark.usefixtures("close_logs")  # conftest: no test leaves a log open

SRC = Path(__file__).resolve().parent.parent / "src"
CAP = 1000  # about six store records, or eleven ledger entries, a segment
EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)


def _record(i: int) -> TrustRecord:
    """The ``i``-th store record: five users in turn, one second apart."""
    trust = i % 10 / 10
    at = (EPOCH + timedelta(seconds=i)).isoformat()
    return TrustRecord(f"u{i % 5}", "user", trust, "trusted" if trust > 0.5 else "untrusted", "fis", at)


def _feedback(i: int) -> tuple[str, str]:
    """The ``i``-th ledger entry."""
    return f"p{i % 3}", ("positive", "negative")[i // 3 % 2]


KINDS = {
    "store": (TrustStore, lambda store, i: store.put(_record(i))),
    "ledger": (FeedbackLedger, lambda ledger, i: ledger.record(*_feedback(i))),
}


def _state(log) -> tuple:
    """What a log folded: its record count and its in-memory state."""
    if isinstance(log, TrustStore):
        return len(log), {kind: {key: entry[1] for key, entry in ids.items()} for kind, ids in log._latest.items()}
    return len(log), {provider: list(tally) for provider, tally in log._tallies.items()}


def _expected(kind: str, n: int) -> tuple:
    """``_state`` of a log of the first ``n`` records, folded here: the
    latest record per user (their stamps all differ), or each provider's
    [positive, negative] count."""
    if kind == "store":
        latest = {}
        for i in range(n):
            latest[_record(i).subject_id] = _record(i)
        return n, {"user": latest, "provider": {}}
    counts = Counter(_feedback(i) for i in range(n))
    providers = sorted({provider for provider, _ in counts})
    return n, {p: [counts[(p, "positive")], counts[(p, "negative")]] for p in providers}


def _segments(path: Path) -> list[Path]:
    return sorted(path.parent.glob(path.name + ".[0-9]*"))


def _snapshot(path: Path) -> Path:
    return path.with_name(path.name + ".snapshot")


def _header(path: Path) -> dict:
    return json.loads(_snapshot(path).read_text().splitlines()[0])


def _full_scan(path: Path, opener) -> tuple:
    """``_state`` of ``opener`` over byte copies of every segment and the
    active file of the log at ``path``, in a new directory, with no snapshot."""
    scan = path.parent / "scan"
    shutil.rmtree(scan, ignore_errors=True)
    scan.mkdir()
    for file in _segments(path) + [path] * path.exists():
        shutil.copyfile(file, scan / file.name)
    log = opener(scan / path.name)
    try:
        return _state(log)
    finally:
        log.close()
        shutil.rmtree(scan)


@pytest.fixture
def cap(monkeypatch):
    monkeypatch.setattr(store_module, "SEGMENT_BYTES", CAP)
    return CAP


@pytest.fixture
def hashed(monkeypatch):
    """The (file name, bytes) of each ``_sha256`` call: what an open hashes."""
    calls = []
    sha256 = store_module._sha256

    def spy(path, stop):
        calls.append((Path(path).name, stop))
        return sha256(path, stop)

    monkeypatch.setattr(store_module, "_sha256", spy)
    return calls


def _fill(path: Path, kind: str, start: int, stop: int):
    """Open the ``kind`` log at ``path``, append records ``start`` to
    ``stop`` and close it."""
    opener, append = KINDS[kind]
    log = opener(path)
    for i in range(start, stop):
        append(log, i)
    log.close()
    return log


@pytest.mark.parametrize("kind", KINDS)
def test_an_open_after_a_clean_close_hashes_only_the_active_file(tmp_path, cap, hashed, kind):
    path = tmp_path / "log.jsonl"
    log = _fill(path, kind, 0, 40)
    sealed = [file.name for file in _segments(path)]
    assert len(sealed) >= 3 and sealed == [f"log.jsonl.{n:06d}" for n in range(1, len(sealed) + 1)]
    for file in _segments(path):  # each sealed at a line boundary, on its first append at or past the cap
        data = file.read_bytes()
        assert data.endswith(b"\n") and cap <= len(data) < cap + len(data.splitlines()[-1]) + 1
    header = _header(path)
    assert [entry[0] for entry in header["sealed"]] == [file.stat().st_size for file in _segments(path)]
    assert [entry[1] for entry in header["sealed"]] == [file.stat().st_mtime_ns for file in _segments(path)]
    assert header["log_bytes"] == path.stat().st_size and header["records"] == 40
    hashed.clear()
    reopened = KINDS[kind][0](path)
    assert hashed == [(path.name, path.stat().st_size)]
    assert _state(reopened) == _state(log) == _full_scan(path, KINDS[kind][0]) == _expected(kind, 40)


@pytest.mark.parametrize("kind", KINDS)
def test_a_full_replay_reads_every_segment_in_order(tmp_path, cap, kind):
    path = tmp_path / "log.jsonl"
    _fill(path, kind, 0, 30)
    _snapshot(path).unlink()
    assert _state(KINDS[kind][0](path)) == _expected(kind, 30)
    assert len(_header(path)["sealed"]) == len(_segments(path)) >= 2  # and the replay checkpointed them


def test_a_one_file_log_past_the_cap_opens_as_it_is_and_seals_whole(tmp_path, cap):
    path = tmp_path / "store.jsonl"
    path.write_text("".join(json.dumps(_record(i).to_dict()) + "\n" for i in range(20)))  # four times the cap
    before = path.read_bytes()
    store = TrustStore(path)
    assert _segments(path) == [] and _header(path)["sealed"] == []
    store.put(_record(20))
    store.close()
    assert [file.read_bytes() for file in _segments(path)] == [before]
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", 21)


def test_a_seal_after_a_cut_short_line_puts_its_newline_in_first(tmp_path, cap):
    path = tmp_path / "store.jsonl"
    lines = [json.dumps(_record(i).to_dict()) for i in range(8)]
    path.write_text("\n".join(lines))  # past the cap, the last line cut short before its newline
    store = TrustStore(path)
    store.put(_record(8))
    [sealed] = _segments(path)
    assert sealed.read_text() == "\n".join(lines) + "\n"
    assert path.read_text() == json.dumps(_record(8).to_dict()) + "\n"
    n = 9
    while len(_segments(path)) < 2 and n < 40:  # the next seal, with no digest kept since the cut line
        store.put(_record(n))
        n += 1
    store.close()
    assert [file.name for file in _segments(path)] == ["store.jsonl.000001", "store.jsonl.000002"]
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", n)


@pytest.mark.parametrize("kind", KINDS)
def test_a_gap_in_the_numbering_names_the_missing_file(tmp_path, cap, kind):
    path = tmp_path / "log.jsonl"
    _fill(path, kind, 0, 40)
    missing = path.with_name(path.name + ".000002")
    missing.unlink()
    with pytest.raises(StoreCorruptError) as err:
        KINDS[kind][0](path)
    assert str(err.value).startswith(f"{missing}: missing")


@pytest.mark.parametrize("kind", KINDS)
def test_a_missing_highest_segment_the_snapshot_lists_is_named_and_nothing_rewritten(tmp_path, cap, kind):
    path = tmp_path / "log.jsonl"
    _fill(path, kind, 0, 40)
    segments, snapshot = _segments(path), _snapshot(path).read_bytes()
    assert len(_header(path)["sealed"]) == len(segments) >= 3
    segments[-1].unlink()
    with pytest.raises(StoreCorruptError) as err:
        KINDS[kind][0](path)
    assert str(err.value).startswith(f"{segments[-1]}: missing")
    assert _snapshot(path).read_bytes() == snapshot and _segments(path) == segments[:-1]


@pytest.mark.parametrize("kind", KINDS)
def test_a_corrupt_line_names_its_segment_and_its_line_there(tmp_path, cap, kind):
    path = tmp_path / "log.jsonl"
    _fill(path, kind, 0, 30)
    sealed = path.with_name(path.name + ".000002")
    lines = sealed.read_text().splitlines(keepends=True)
    sealed.write_text("".join(lines[:2]) + "{broken json\n" + "".join(lines[3:]))
    with pytest.raises(StoreCorruptError) as err:
        KINDS[kind][0](path)
    assert err.value.line == 3 and str(err.value).startswith(f"{sealed}, line 3: ")


@pytest.mark.parametrize("kind", KINDS)
def test_a_segment_whose_mtime_alone_moved_is_replayed_in_full(tmp_path, cap, hashed, replay_starts, kind):
    """A sealed segment as a copy that keeps no mtimes leaves it: the open
    hashes nothing, replays every segment, and checkpoints the new mtime."""
    opener = KINDS[kind][0]
    path = tmp_path / "log.jsonl"
    log = _fill(path, kind, 0, 30)
    first = _segments(path)[0]
    os.utime(first, ns=(first.stat().st_atime_ns, first.stat().st_mtime_ns + 10**9))
    hashed.clear()
    replay_starts.clear()
    reopened = opener(path)
    assert hashed == [] and replay_starts[0] == LogPosition() and len(replay_starts) == len(_segments(path)) + 1
    assert _state(reopened) == _state(log) == _full_scan(path, opener) == _expected(kind, 30)
    assert _header(path)["sealed"][0][1] == first.stat().st_mtime_ns
    reopened.close()
    hashed.clear()
    opener(path)
    assert hashed == [(path.name, path.stat().st_size)]


def test_an_edit_that_keeps_a_segments_length_and_mtime_is_missed_by_an_open_only(tmp_path, cap, replay_starts):
    """The one edit the docstring says an open does not catch; deleting the
    snapshot forces the full replay that does."""
    path = tmp_path / "store.jsonl"
    store = _fill(path, "store", 0, 30)
    sealed = _segments(path)[0]
    original, st = sealed.read_bytes(), sealed.stat()
    edited = original.replace(b'"u1"', b'"u9"', 1)  # record 1 of a user never seen, same length
    assert edited != original and len(edited) == len(original)
    sealed.write_bytes(edited)
    os.utime(sealed, ns=(st.st_atime_ns, st.st_mtime_ns))
    replay_starts.clear()
    reopened = TrustStore(path)
    assert _state(reopened) == _state(store)  # the snapshot is kept
    assert replay_starts[0].offset == path.stat().st_size
    reopened.close()
    _snapshot(path).unlink()
    replay_starts.clear()
    reopened = TrustStore(path)
    assert replay_starts[0] == LogPosition()
    assert _state(reopened) == _full_scan(path, TrustStore) != _state(store)
    reopened.close()
    # the original bytes back, their mtime moved as any write moves it (set
    # here, since two writes within one clock tick can share a stamp)
    sealed.write_bytes(original)
    os.utime(sealed, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    replay_starts.clear()
    reopened = TrustStore(path)
    assert replay_starts[0] == LogPosition()
    assert _state(reopened) == _full_scan(path, TrustStore) == _state(store)


@pytest.mark.parametrize("tamper", ["longer", "shorter", "missing-active"])
def test_a_segment_or_active_file_that_does_not_match_is_not_trusted(tmp_path, cap, replay_starts, tamper):
    path = tmp_path / "store.jsonl"
    _fill(path, "store", 0, 30)
    sealed = _segments(path)[0]
    if tamper == "longer":
        with open(sealed, "a") as fh:
            fh.write(json.dumps(_record(99).to_dict()) + "\n")
    elif tamper == "shorter":
        sealed.write_bytes(sealed.read_bytes()[:-1])
    else:
        path.unlink()
    replay_starts.clear()
    store = TrustStore(path)
    assert replay_starts[0] == LogPosition()
    assert _state(store) == _full_scan(path, TrustStore)


def _files(path: Path) -> dict:
    """The name and bytes of every file in the log's directory."""
    return {file.name: file.read_bytes() for file in sorted(path.parent.iterdir())}


@pytest.mark.parametrize("kind", KINDS)
def test_a_second_open_in_this_process_is_refused_until_the_first_closes(tmp_path, kind):
    opener, append = KINDS[kind]
    path = tmp_path / "log.jsonl"
    first = opener(path)
    append(first, 0)
    before = _files(path)
    assert path.name + ".lock" in before
    with pytest.raises(LogHeldError) as err:
        opener(path)
    assert str(err.value) == f"{path}: another writer holds it"
    assert _files(path) == before  # the refused open read and wrote nothing
    first.close()
    second = opener(path)
    assert _state(second) == _expected(kind, 1)
    first.close()  # a second close releases nothing
    with pytest.raises(LogHeldError):
        opener(path)
    second.close()


@pytest.mark.parametrize("kind", KINDS)
def test_a_closed_log_refuses_an_append(tmp_path, kind):
    opener, append = KINDS[kind]
    path = tmp_path / "log.jsonl"
    log = _fill(path, kind, 0, 1)
    before = _files(path)
    with pytest.raises(ValueError, match=f"^{path} is closed$"):
        append(log, 1)
    assert _files(path) == before and _state(log) == _expected(kind, 1)


@pytest.mark.parametrize("kind", KINDS)
def test_a_close_whose_last_flush_fails_still_releases_the_lock(tmp_path, kind):
    opener, append = KINDS[kind]
    path = tmp_path / "log.jsonl"
    log = opener(path)
    append(log, 0)
    handle = log._fh

    class FullDisk:  # the append handle, whose close fails to flush what it holds
        def close(self):
            handle.close()
            raise OSError(28, "No space left on device")

    log._fh = FullDisk()
    with pytest.raises(OSError, match="No space left"):
        log.close()
    reopened = opener(path)
    assert _state(reopened) == _expected(kind, 1)
    reopened.close()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("damage", ["corrupt-line", "gap"])
def test_an_open_that_raises_releases_the_lock(tmp_path, cap, kind, damage):
    """A corrupt line or a gap in the numbering is reported again by the next
    open in the same process, not refused as held; once mended, it opens."""
    opener = KINDS[kind][0]
    path = tmp_path / "log.jsonl"
    _fill(path, kind, 0, 30)
    if damage == "gap":
        damaged = path.with_name(path.name + ".000001")
        kept = damaged.read_bytes()
        damaged.unlink()
    else:
        damaged, kept = path, path.read_bytes()
        path.write_bytes(kept + b"{broken json\n")
    for _ in range(2):
        with pytest.raises(StoreCorruptError):
            opener(path)
    damaged.write_bytes(kept)
    _snapshot(path).unlink()  # a restored segment's mtime has moved: a full replay
    log = opener(path)
    assert _state(log) == _expected(kind, 30)
    log.close()


# Holds a log in its own process: opens it, appends five records (each line
# flushed), prints "ready" and blocks on stdin until it is killed.
HOLDER = r"""
import sys
sys.path.insert(0, sys.argv[3])
from test_segments import KINDS

opener, append = KINDS[sys.argv[1]]
log = opener(sys.argv[2])
for i in range(5):
    append(log, i)
print("ready", flush=True)
sys.stdin.read()
"""


@pytest.mark.parametrize("kind", KINDS)
def test_a_log_another_process_holds_is_refused_until_that_process_is_killed(tmp_path, kind):
    """The kernel drops a killed holder's lock, so the next open needs no
    clean-up and reads every record the holder flushed."""
    opener = KINDS[kind][0]
    path = tmp_path / "log.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", HOLDER, kind, str(path), str(Path(__file__).parent)]
    with subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as holder:
        assert holder.stdout.readline() == "ready\n"
        with pytest.raises(LogHeldError) as err:
            opener(path)
        assert str(err.value) == f"{path}: another writer holds it"
        holder.kill()
        assert holder.wait(timeout=30) == -signal.SIGKILL
    log = opener(path)
    assert _state(log) == _full_scan(path, opener) == _expected(kind, 5)
    log.close()


# A writer in its own process: it fills the log past one seal and closes (a
# snapshot that lists a sealed segment), reopens, and appends until it dies
# at the step being tested, by os._exit and so without a close.  It prints
# the number of records written so far after each append.
CHILD = r"""
import os, sys
sys.path.insert(0, sys.argv[5])
from test_segments import KINDS
from fuzzytrust import store

kind, window, path, cap = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
store.SEGMENT_BYTES = cap
opener, append = KINDS[kind]
segment = lambda n: f"{path}.{n:06d}"
log, i = opener(path), 0
while not os.path.exists(segment(1)) or i % 3:
    append(log, i)
    i += 1
log.close()
print(i, flush=True)
log = opener(path)


def exit_after(call, when=lambda *args: True):
    def step(*args, **kwargs):
        call(*args, **kwargs)
        if when(*args):
            os._exit(0)
    return step


if window == "link":  # after the link to the new segment's name, before the unlink
    os.link = exit_after(os.link)
elif window == "unlink":  # after the unlink, before the first write to a new active file
    os.unlink = exit_after(os.unlink, lambda target: os.fspath(target) == path)
while True:
    append(log, i)
    i += 1
    print(i, flush=True)
    if window == "snapshot" and os.path.exists(segment(2)) and i % 3 == 0:
        os._exit(0)  # a few records past the seal, the snapshot from before it
"""


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("window", ["link", "unlink", "snapshot"])
def test_a_writer_killed_inside_a_seal_loses_and_doubles_nothing(tmp_path, replay_starts, monkeypatch, kind, window):
    path = tmp_path / "log.jsonl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", CHILD, kind, window, str(path), str(CAP), str(Path(__file__).parent)]
    child = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    written = int(child.stdout.split()[-1])
    seg1, seg2 = (path.with_name(f"{path.name}.{n:06d}") for n in (1, 2))
    assert len(_header(path)["sealed"]) == 1  # the snapshot from before the seal
    if window == "link":
        assert os.path.samefile(path, seg2)
    elif window == "unlink":
        assert seg2.exists() and not path.exists()
    else:
        assert seg2.exists() and path.exists()
    header = _header(path)
    monkeypatch.setattr(store_module, "SEGMENT_BYTES", CAP)
    opener, append = KINDS[kind]
    replay_starts.clear()
    log = opener(path)
    # the snapshot's prefix is now in segment 2: checked there, then the rest replayed
    assert replay_starts[0] == LogPosition(header["log_bytes"], header["lines"], header["records"])
    assert _state(log) == _expected(kind, written)
    assert _segments(path) == [seg1, seg2] and not (path.exists() and os.path.samefile(path, seg2))
    assert _state(log) == _full_scan(path, opener)
    for i in range(written, written + 15):  # and on, across one more seal
        append(log, i)
    log.close()
    assert len(_segments(path)) >= 3
    assert _state(opener(path)) == _full_scan(path, opener) == _expected(kind, written + 15)
