"""Sealed log segments: a ``FoldedLog`` past ``SEGMENT_BYTES`` seals its
active file as ``<log>.000001``, ``.000002``, ... and an open checks each
sealed segment by one ``stat`` and hashes only the active file.

Every test shrinks the cap so that a few records fill a segment.  A reopen
is compared with a full scan (byte copies of every segment, no snapshot)
and, where the records are known, with an independent fold of them."""

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from fuzzytrust import store as store_module
from fuzzytrust.errors import StoreCorruptError
from fuzzytrust.service import FeedbackLedger
from fuzzytrust.store import LogPosition, TrustRecord, TrustStore, changed_segments

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
    try:
        return _state(opener(scan / path.name))
    finally:
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
    assert changed_segments(path) == []


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
    store.close()
    [sealed] = _segments(path)
    assert sealed.read_text() == "\n".join(lines) + "\n"
    assert path.read_text() == json.dumps(_record(8).to_dict()) + "\n"
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", 9)


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
def test_a_segment_whose_mtime_alone_moved_is_rehashed_and_kept(tmp_path, cap, hashed, replay_starts, kind):
    path = tmp_path / "log.jsonl"
    log = _fill(path, kind, 0, 30)
    first, header = _segments(path)[0], _header(path)
    os.utime(first, ns=(first.stat().st_atime_ns, first.stat().st_mtime_ns + 10**9))  # as a copy leaves it
    hashed.clear()
    replay_starts.clear()
    reopened = KINDS[kind][0](path)
    assert hashed == [(first.name, first.stat().st_size), (path.name, path.stat().st_size)]
    assert replay_starts == [LogPosition(path.stat().st_size, header["lines"], header["records"])]
    assert _state(reopened) == _state(log)
    assert _header(path)["sealed"][0][1] == first.stat().st_mtime_ns  # so the next open does not re-hash it
    hashed.clear()
    KINDS[kind][0](path)
    assert hashed == [(path.name, path.stat().st_size)]


def test_an_edit_that_keeps_a_segments_length_and_mtime_is_missed_by_an_open_only(tmp_path, cap, replay_starts):
    """The one edit the docstring says an open no longer catches, and the
    full re-hash that does."""
    path = tmp_path / "store.jsonl"
    store = _fill(path, "store", 0, 30)
    sealed = _segments(path)[0]
    original, st = sealed.read_bytes(), sealed.stat()
    edited = original.replace(b'"u1"', b'"u9"', 1)  # record 1 of a user never seen, same length
    assert edited != original and len(edited) == len(original)
    sealed.write_bytes(edited)
    os.utime(sealed, ns=(st.st_atime_ns, st.st_mtime_ns))
    replay_starts.clear()
    assert _state(TrustStore(path)) == _state(store)  # the snapshot is kept
    assert replay_starts[0].offset == path.stat().st_size
    assert changed_segments(path) == [sealed]
    # the same edit, its mtime moved as any write moves it (set here, since two
    # writes within one clock tick can share a stamp)
    os.utime(sealed, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    replay_starts.clear()
    reopened = TrustStore(path)
    assert replay_starts[0] == LogPosition()  # the re-hash failed: every segment is replayed
    assert _state(reopened) == _full_scan(path, TrustStore) != _state(store)
    assert changed_segments(path) == []  # and the replay checkpointed the edited bytes


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


def test_a_seal_never_replaces_a_segment_another_writer_sealed(tmp_path, cap):
    """Two writers hold the next number in mind; the second finds it taken,
    seals under the number after, and writes its record once."""
    path = tmp_path / "store.jsonl"
    first, second = TrustStore(path), TrustStore(path)
    i = 0
    while not _segments(path) and i < 20:  # `second` alone fills and seals the active file
        second.put(_record(i))
        i += 1
    second.put(_record(i))
    i += 1
    [taken] = _segments(path)
    taken_bytes, taken_inode = taken.read_bytes(), taken.stat().st_ino
    for i in range(i, i + 20):  # `first`, whose handle opens on the new active file, seals it
        first.put(_record(i))
        if len(_segments(path)) == 2:
            break
    i += 1
    assert taken.read_bytes() == taken_bytes and taken.stat().st_ino == taken_inode
    assert [file.name for file in _segments(path)] == ["store.jsonl.000001", "store.jsonl.000002"]
    first.close()
    second.close()
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", i)


def test_a_seal_finishes_the_one_a_killed_writer_left_on_the_same_file(tmp_path, cap):
    """Another writer linked the active file to the next number and died
    before its unlink.  The live writer's seal finds that name on this very
    file and finishes that seal: the file is one segment, not two."""
    path = tmp_path / "ledger.jsonl"
    ledger, n = FeedbackLedger(path), 0
    while n == 0 or path.stat().st_size < CAP:
        ledger.record(*_feedback(n))
        n += 1
    os.link(path, path.with_name(path.name + ".000001"))
    ledger.record(*_feedback(n))
    ledger.close()
    assert [file.name for file in _segments(path)] == ["ledger.jsonl.000001"]
    assert _state(FeedbackLedger(path)) == _full_scan(path, FeedbackLedger) == _expected("ledger", n + 1)


def test_a_seal_over_another_writers_line_records_no_segment(tmp_path, cap):
    """A segment with a line this object did not fold is not one that its
    digest covers, so it records nothing, and its close writes no
    snapshot that would vouch for it."""
    path = tmp_path / "store.jsonl"
    first, second = TrustStore(path), TrustStore(path)
    first.put(_record(0))
    second.put(_record(1))
    second.close()
    for n in range(2, 20):
        first.put(_record(n))
        if _segments(path):
            break
    first.close()
    assert not _snapshot(path).exists()
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", n + 1)


def test_a_seal_under_a_number_another_writer_took_stops_checkpointing(tmp_path, cap):
    """Another writer sealed its file as segment 1 and was killed before its
    next write.  This object, which never folded segment 1, seals as 2 and
    leaves the other writer's snapshot in place."""
    path = tmp_path / "store.jsonl"
    first = TrustStore(path)
    _fill(path, "store", 0, 2)
    os.link(path, path.with_name(path.name + ".000001"))
    os.unlink(path)
    theirs = _snapshot(path).read_bytes()
    for n in range(2, 20):
        first.put(_record(n))
        if len(_segments(path)) == 2:
            break
    first.close()
    assert _snapshot(path).read_bytes() == theirs
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", n + 1)


def test_a_writer_whose_file_another_sealed_moves_to_the_new_active_file(tmp_path, cap):
    """A writer whose handle is on a file another writer sealed appends to
    that segment until its own next seal, which then seals nothing and
    writes to the active file the other writer started."""
    path = tmp_path / "store.jsonl"
    first, second = TrustStore(path), TrustStore(path)
    second.put(_record(0))
    for n in range(1, 20):
        first.put(_record(n))
        if _segments(path):
            break
    [sealed] = _segments(path)
    size = sealed.stat().st_size
    for n in range(n + 1, n + 20):
        before = sealed.stat().st_size
        second.put(_record(n))
        if sealed.stat().st_size == before:
            break
    assert before > size  # the appends before its seal went to the sealed file
    assert _segments(path) == [sealed]
    assert path.read_text().splitlines()[-1] == json.dumps(_record(n).to_dict())
    first.close()
    second.close()
    assert _state(TrustStore(path)) == _full_scan(path, TrustStore) == _expected("store", n + 1)


@pytest.mark.parametrize("kind", KINDS)
def test_two_writers_lose_nothing_and_replace_no_segment(tmp_path, cap, kind):
    """Two writers alternate appends across several seals, each closing and
    reopening now and then: no sealed file is replaced or rewritten, no
    record is lost or doubled, and an open after any close equals a full scan."""
    opener, append = KINDS[kind]
    path = tmp_path / "log.jsonl"
    writers = [opener(path), opener(path)]
    seen = {}  # sealed file name -> (inode, bytes) when first seen
    n = 120
    for i in range(n):
        append(writers[i % 2], i)
        for file in _segments(path):
            inode, data = seen.setdefault(file.name, (file.stat().st_ino, file.read_bytes()))
            assert file.stat().st_ino == inode and file.read_bytes().startswith(data)
        if i % 17 == 16:
            closing = writers[i // 17 % 2]
            closing.close()
            assert _state(opener(path)) == _full_scan(path, opener) == _expected(kind, i + 1)
            writers[i // 17 % 2] = opener(path)
    assert len(seen) >= 3
    for writer in writers:
        writer.close()
        assert _state(opener(path)) == _full_scan(path, opener) == _expected(kind, n)
    lines = [line for file in _segments(path) + [path] for line in file.read_text().splitlines() if line.strip()]
    assert len(lines) == n


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
