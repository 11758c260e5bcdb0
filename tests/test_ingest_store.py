import dataclasses
import json
import random
import stat
import tempfile
from pathlib import Path
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzytrust.errors import (
    EmptyWindowError,
    InvalidSpecError,
    NotFoundError,
    ParseError,
    StoreCorruptError,
)
from fuzzytrust.ingest import (
    CorpusSpec,
    corpus_matrix,
    generate_corpus,
    ingest_log,
    read_counters_csv,
    write_corpus_csv,
    write_counters_csv,
)
from fuzzytrust.clustering import ClusterModel
from fuzzytrust.fuzzy import FuzzyInferenceSystem
from fuzzytrust.service import FeedbackLedger, ServiceConfig, TrustService
from fuzzytrust import store as store_module
from fuzzytrust.store import LogPosition, TrustRecord, TrustStore, load_artifact
from fuzzytrust.user import (
    UserBehaviorCounters,
    UserTrustModel,
    baseline_trust,
    load_user_model,
    request_rates,
)


def write_log(path, rows, header="timestamp,user_id,status"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestIngestLog:
    def test_basic_counting(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(
            log,
            [
                "2026-01-01T10:00:00,alice,200",
                "2026-01-01T10:01:00,alice,400",
                "2026-01-01T10:02:00,alice,404",
            ],
        )
        (counters,) = ingest_log(log)
        assert (counters.uar, counters.bor, counters.bar, counters.tr) == (0, 1, 1, 3)
        assert counters.user_id == "alice"

    def test_401_and_403_both_count_as_unauthorized(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T10:00:00,bob,401", "2026-01-01T10:01:00,bob,403"])
        (counters,) = ingest_log(log)
        assert counters.uar == 2 and counters.tr == 2

    def test_other_statuses_only_add_to_total(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(
            log,
            [f"2026-01-01T10:00:{i:02d},u,{code}" for i, code in enumerate((200, 201, 301, 500, 503))],
        )
        (counters,) = ingest_log(log)
        assert (counters.uar, counters.bor, counters.bar, counters.tr) == (0, 0, 0, 5)

    def test_malformed_row_reports_line_number(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T10:00:00,u,200", "not-a-time,u,whoops"])
        with pytest.raises(ParseError) as err:
            ingest_log(log)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{log}, line 3: ")

    def test_status_range_validated(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T10:00:00,u,999"])
        with pytest.raises(ParseError):
            ingest_log(log)

    def test_missing_header_detected(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T10:00:00,u,200"], header="when,who,what")
        with pytest.raises(ParseError):
            ingest_log(log)

    def test_order_independence(self, tmp_path):
        base = datetime(2026, 1, 1)
        rows = [
            f"{(base + timedelta(minutes=k)).isoformat()},user{i % 7},{code}"
            for k, (i, code) in enumerate(
                (i, c) for i in range(20) for c in (200, 400, 401, 403, 404, 500)
            )
        ]
        log_a, log_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log(log_a, rows)
        shuffled = rows[:]
        random.Random(5).shuffle(shuffled)
        write_log(log_b, shuffled)
        counters = ingest_log(log_a)
        assert counters == ingest_log(log_b)
        # user{0..5} appear in 3 of the 20 blocks, user6 in 2; each block of
        # six statuses adds 2 unauthorized, 1 bogus, 1 bad and 6 total.
        assert [(c.user_id, c.uar, c.bor, c.bar, c.tr) for c in counters] == [
            (f"user{u}", 6, 3, 3, 18) for u in range(6)
        ] + [("user6", 4, 2, 2, 12)]
        window = ("2026-01-01T00:00:00+00:00", "2026-01-01T01:59:00+00:00")
        assert all(c.window == window for c in counters)

    def test_out_of_range_hour_rejected_with_line_number(self, tmp_path):
        # Hour 24 is out of range: the row is rejected with its line number,
        # not rolled over to midnight of the next day.
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T23:00:00,u,200", "2026-01-01T24:00:00,u,200"])
        with pytest.raises(ParseError) as err:
            ingest_log(log)
        assert err.value.line == 3

    def test_users_sorted_and_invariant_holds(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [
            f"2026-01-01T10:{i:02d}:{i % 60:02d},user{rng.integers(0, 9)},{rng.choice([200, 400, 401, 403, 404, 500])}"
            for i in range(59)
        ]
        log = tmp_path / "log.csv"
        write_log(log, rows)
        counters = ingest_log(log)
        ids = [c.user_id for c in counters]
        assert ids == sorted(ids)
        for c in counters:
            assert c.tr >= c.uar + c.bor + c.bar

    def test_window_filtering_inclusive(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(
            log,
            [
                "2026-01-01T09:59:59,u,400",
                "2026-01-01T10:00:00,u,400",
                "2026-01-01T11:00:00,u,400",
                "2026-01-01T11:00:01,u,400",
            ],
        )
        window = (
            datetime(2026, 1, 1, 10, 0, 0, tzinfo=timezone.utc),
            datetime(2026, 1, 1, 11, 0, 0, tzinfo=timezone.utc),
        )
        (counters,) = ingest_log(log, window)
        assert counters.tr == 2
        assert counters.window == (window[0].isoformat(), window[1].isoformat())

    def test_empty_window(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T10:00:00,u,200"])
        window = (
            datetime(2027, 1, 1, tzinfo=timezone.utc),
            datetime(2027, 1, 2, tzinfo=timezone.utc),
        )
        with pytest.raises(EmptyWindowError):
            ingest_log(log, window)

    def test_epoch_timestamps_accepted(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["1767225600,u,400"])
        (counters,) = ingest_log(log)
        assert counters.bar == 1


# a small pool of instants, so that stamps in different notations often name the same one
_INSTANTS = [datetime(2026, 3, 1, 12, tzinfo=timezone.utc) + timedelta(minutes=k) for k in range(-90, 91, 30)]
_OFFSETS = [timezone.utc, timezone(timedelta(hours=2)), timezone(timedelta(hours=-5, minutes=-30))]


@st.composite
def _stamps(draw):
    """A stamp in the log's text: naive (UTC wall time), aware in some
    offset, with a Z, or epoch seconds, sometimes padded."""
    instant = draw(st.sampled_from(_INSTANTS))
    notation = draw(st.sampled_from(["naive", "aware", "z", "epoch"]))
    if notation == "naive":
        text = instant.replace(tzinfo=None).isoformat()
    elif notation == "aware":
        text = instant.astimezone(draw(st.sampled_from(_OFFSETS))).isoformat()
    elif notation == "z":
        text = instant.replace(tzinfo=None).isoformat() + "Z"
    else:
        text = str(int(instant.timestamp()))
    return draw(st.sampled_from(["", " "])) + text


_LOG_ROWS = st.lists(
    st.one_of(
        st.builds(
            "{},{},{}".format,
            _stamps(),
            st.sampled_from(["alice", " bob", "carol "]),
            st.sampled_from([200, 302, 400, 401, 403, 404, 500]),
        ),
        st.sampled_from(["", " ", "  ,  ,  ", ",,", "\t"]),  # blank rows
    ),
    max_size=25,
)


@st.composite
def _window_ends(draw):
    """A window end on or beside one of the stamps' instants, naive or aware."""
    end = draw(st.sampled_from(_INSTANTS)) + timedelta(minutes=draw(st.sampled_from([-1, 0, 1])))
    tz = draw(st.sampled_from([None, *_OFFSETS]))
    return end.replace(tzinfo=None) if tz is None else end.astimezone(tz)


def _reference_tally(rows, window):
    """The counters ``ingest_log`` should give, tallied the plain way: every
    stamp made an aware instant, every row held against the window."""

    def instant(text):
        text = text.strip()
        try:
            moment = datetime.fromisoformat(text)
        except ValueError:
            return datetime.fromtimestamp(float(text), tz=timezone.utc)
        return moment if moment.tzinfo else moment.replace(tzinfo=timezone.utc)

    if window is not None:
        window = tuple(end if end.tzinfo else end.replace(tzinfo=timezone.utc) for end in window)
    counts, first, last = {}, None, None
    for row in rows:
        cells = row.split(",")
        if all(not cell.strip() for cell in cells):
            continue
        ts, user, status = instant(cells[0]), cells[1].strip(), int(cells[2])
        if window is not None and not (window[0] <= ts <= window[1]):
            continue
        first = ts if first is None or ts < first else first  # the earlier line wins a tie
        last = ts if last is None or ts > last else last
        tally = counts.setdefault(user, [0, 0, 0, 0])
        tally[3] += 1
        if status in (401, 403):
            tally[0] += 1
        elif status == 404:
            tally[1] += 1
        elif status == 400:
            tally[2] += 1
    if not counts:
        return []
    ends = window or (first, last)
    text = (ends[0].isoformat(), ends[1].isoformat())
    return [
        UserBehaviorCounters(user_id=user, uar=uar, bor=bor, bar=bar, tr=tr, window=text)
        for user, (uar, bor, bar, tr) in sorted(counts.items())
    ]


class TestIngestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(rows=_LOG_ROWS, window=st.none() | st.tuples(_window_ends(), _window_ends()))
    def test_matches_a_plain_tally(self, rows, window):
        with tempfile.TemporaryDirectory() as tmp:
            log = Path(tmp) / "log.csv"
            write_log(log, rows)
            expected = _reference_tally(rows, window)
            if not expected:
                with pytest.raises(EmptyWindowError):
                    ingest_log(log, window)
            else:
                assert ingest_log(log, window) == expected

    def test_equal_instants_keep_the_earlier_lines_text(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(
            log,
            [
                "2026-01-01T12:00:00+02:00,u,200",
                "2026-01-01T10:00:00,u,200",
                "2026-01-01T13:00:00,u,200",
                "2026-01-01T15:00:00+02:00,u,200",
            ],
        )
        (counters,) = ingest_log(log)
        assert counters.window == ("2026-01-01T12:00:00+02:00", "2026-01-01T13:00:00+00:00")

    def test_a_window_beyond_naive_datetimes(self, tmp_path):
        log = tmp_path / "log.csv"
        write_log(log, ["0001-01-01T00:00:00,u,200", "9999-12-31T23:59:59.999999,u,200"])
        early = timezone(timedelta(hours=5))  # its midnight of year 1 is before datetime.min in UTC
        late = timezone(timedelta(hours=-5))
        everything = (datetime.min.replace(tzinfo=early), datetime.max.replace(tzinfo=late))
        assert ingest_log(log, everything)[0].tr == 2
        for nothing in (everything[:1] * 2, everything[1:] * 2):
            with pytest.raises(EmptyWindowError):
                ingest_log(log, nothing)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2026-01-01T10:00:00,u", "expected 3 fields, got 2"),
            ("2026-01-01T24:00:00,u,200", "unparseable timestamp '2026-01-01T24:00:00'"),
            ("2026-01-01T10:00:00, ,200", "empty user_id"),
            ("2026-01-01T10:00:00,u,2xx", "unparseable status '2xx'"),
            ("2026-01-01T10:00:00,u,99", "status 99 outside [100, 599]"),
            ("2026-01-01T10:00:00,u,600", "status 600 outside [100, 599]"),
        ],
    )
    def test_rejected_row_names_its_line(self, tmp_path, row, message):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T09:00:00,u,200", " , , ", row])
        with pytest.raises(ParseError) as err:
            ingest_log(log)
        assert err.value.line == 4
        assert str(err.value) == f"{log}, line 4: {message}"


class TestCorpus:
    def test_paper_scale_split(self):
        train, test = generate_corpus(CorpusSpec(n_users=1300, n_train=1000, seed=0))
        assert len(train) == 1000 and len(test) == 300

    def test_all_benign_zero_rates_gives_unit_labels(self):
        spec = CorpusSpec(
            n_users=50, n_train=30, benign_fraction=1.0, benign_rate=(0.0, 0.0), seed=1
        )
        train, test = generate_corpus(spec)
        matrix = corpus_matrix(train + test)
        assert np.all(matrix[:, 4] == 1.0)

    def test_deterministic_for_seed(self):
        spec = CorpusSpec(n_users=200, n_train=150, seed=9)
        assert generate_corpus(spec) == generate_corpus(spec)

    def test_counter_invariants_hold(self):
        train, test = generate_corpus(CorpusSpec(n_users=400, n_train=300, seed=2))
        for c in train + test:
            assert c.tr >= c.uar + c.bor + c.bar
            assert c.tr >= 1

    def test_label_column_matches_formula(self):
        train, _ = generate_corpus(CorpusSpec(n_users=50, n_train=50, seed=3))
        matrix = corpus_matrix(train)
        for row, counters in zip(matrix, train):
            assert row[4] == baseline_trust(request_rates(counters))

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            CorpusSpec(n_users=10, n_train=20)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(benign_fraction=1.5)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(malicious_dominant=(0.9, 0.8))
        with pytest.raises(InvalidSpecError):
            CorpusSpec(malicious_dominant=(0.2, 0.95), malicious_background=(0.0, 0.05))
        with pytest.raises(InvalidSpecError):
            CorpusSpec(total_requests=(0, 10))

    def test_extreme_rate_ranges_never_overflow_total(self):
        spec = CorpusSpec(
            n_users=300,
            n_train=200,
            benign_fraction=0.0,
            malicious_dominant=(0.85, 0.9),
            malicious_background=(0.04, 0.05),
            total_requests=(1, 20),
            seed=4,
        )
        train, test = generate_corpus(spec)
        for c in train + test:
            assert c.tr >= c.uar + c.bor + c.bar

    def test_corpus_csv_round_trip(self, tmp_path):
        train, _ = generate_corpus(CorpusSpec(n_users=40, n_train=40, seed=5))
        path = tmp_path / "corpus.csv"
        write_corpus_csv(path, train)
        loaded = read_counters_csv(path)
        assert [(c.bar, c.bor, c.uar, c.tr) for c in loaded] == [
            (c.bar, c.bor, c.uar, c.tr) for c in train
        ]
        header = path.read_text().splitlines()[0]
        assert header == "bad,bogus,unauthorized,total,trust"

    def test_counters_csv_round_trip(self, tmp_path):
        train, _ = generate_corpus(CorpusSpec(n_users=25, n_train=25, seed=6))
        path = tmp_path / "counters.csv"
        write_counters_csv(path, train)
        loaded = read_counters_csv(path)
        assert loaded == [
            type(c)(user_id=c.user_id, uar=c.uar, bor=c.bor, bar=c.bar, tr=c.tr) for c in train
        ]

    def test_corpus_csv_bad_rows(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text("bad,bogus,unauthorized,total,trust\n1,2,x,50,0.9\n")
        with pytest.raises(ParseError):
            read_counters_csv(path)


def record(subject="alice", kind="user", trust=0.9, classification="trusted", model="fis", at="2026-01-01T00:00:00+00:00"):
    return TrustRecord(
        subject_id=subject,
        subject_kind=kind,
        trust=trust,
        classification=classification,
        model=model,
        evaluated_at=at,
    )


class TestTrustStore:
    def test_put_get_round_trip(self, tmp_path):
        store = TrustStore(tmp_path / "store.jsonl")
        rec = record()
        store.put(rec)
        store.close()
        assert store.get("user", "alice") == rec

    def test_latest_timestamp_wins(self, tmp_path):
        store = TrustStore(tmp_path / "store.jsonl")
        store.put(record(trust=0.2, at="2026-01-01T00:00:00+00:00"))
        store.put(record(trust=0.8, at="2026-01-02T00:00:00+00:00"))
        store.close()
        assert store.get("user", "alice").trust == 0.8
        assert len(store) == 2

    def test_latest_instant_wins_across_offsets(self, tmp_path):
        # 01:30+02:00 is 23:30Z the day before: the earlier instant has the larger string
        path = tmp_path / "store.jsonl"
        store = TrustStore(path)
        store.put(record(trust=0.8, at="2026-01-02T00:30:00+00:00"))
        store.put(record(trust=0.2, at="2026-01-02T01:30:00+02:00"))
        store.close()
        assert store.get("user", "alice").trust == 0.8
        assert TrustStore(path).get("user", "alice").trust == 0.8

    def test_unparsable_instant_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TrustStore(path)
        with pytest.raises(ValueError):
            store.put(record(at="yesterday"))
        store.close()
        assert not path.exists()
        path.write_text(json.dumps(record(at="yesterday").to_dict()) + "\n")
        with pytest.raises(StoreCorruptError) as err:
            TrustStore(path)
        assert err.value.line == 1

    def test_unknown_subject(self, tmp_path):
        store = TrustStore(tmp_path / "store.jsonl")
        with pytest.raises(NotFoundError):
            store.get("user", "nobody")

    def test_reopen_rebuilds_index(self, tmp_path):
        path = tmp_path / "store.jsonl"
        writer = TrustStore(path)
        writer.put(record())
        writer.close()
        reopened = TrustStore(path)
        assert reopened.get("user", "alice").trust == 0.9
        assert len(reopened) == 1

    def test_each_put_is_flushed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        writer = TrustStore(path)
        for trust, at in ((0.4, "2026-01-02T00:00:00+00:00"), (0.6, "2026-01-03T00:00:00+00:00")):
            writer.put(record(trust=trust, at=at))
            assert TrustStore(path).get("user", "alice").trust == trust
        writer.close()

    def test_unterminated_last_line_gets_fresh_line(self, tmp_path):
        # a write cut short after the closing brace leaves no newline
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(record().to_dict()))
        for day in (2, 3):  # the second open finds the file terminated
            store = TrustStore(path)
            store.put(record(trust=day / 10, at=f"2026-01-0{day}T00:00:00+00:00"))
            store.put(record(trust=day / 10 + 0.05, at=f"2026-01-0{day}T12:00:00+00:00"))
            store.close()
        reopened = TrustStore(path)
        assert len(reopened) == 5 and reopened.get("user", "alice").trust == 0.35
        text = path.read_text()
        assert text.count("\n") == 5 and "\n\n" not in text

    def test_corrupt_line_reported(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TrustStore(path)
        store.put(record())
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken json\n")
        with pytest.raises(StoreCorruptError) as err:
            TrustStore(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        data = record().to_dict()
        data["v"] = 99
        path.write_text(json.dumps(data) + "\n")
        with pytest.raises(StoreCorruptError):
            TrustStore(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            record(trust=1.5)
        with pytest.raises(ValueError):
            record(kind="robot")
        with pytest.raises(ValueError):
            record(classification="sort-of")
        with pytest.raises(ValueError):
            record(model="oracle")
        with pytest.raises(ValueError):
            record(subject="")

    def test_non_str_subject_id_is_never_written(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = TrustStore(path)
        with pytest.raises(ValueError):
            store.put(record(subject=5))
        store.close()
        assert not path.exists()

    def test_non_str_subject_id_in_the_log_is_a_corrupt_line(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(
            json.dumps(record().to_dict()) + "\n" + json.dumps({**record().to_dict(), "subject_id": 5}) + "\n"
        )
        with pytest.raises(StoreCorruptError) as err:
            TrustStore(path)
        assert err.value.line == 2 and str(path) in str(err.value)

    @given(
        trust=st.floats(0, 1),
        kind=st.sampled_from(("user", "provider")),
        classification=st.sampled_from(("trusted", "untrusted", "banned")),
        model=st.sampled_from(("baseline", "fis")),
        subject=st.text(min_size=1, max_size=20),
    )
    def test_serialization_identity(self, trust, kind, classification, model, subject):
        rec = TrustRecord(
            subject_id=subject,
            subject_kind=kind,
            trust=trust,
            classification=classification,
            model=model,
            evaluated_at="2026-03-01T00:00:00+00:00",
        )
        assert TrustRecord.from_dict(json.loads(json.dumps(rec.to_dict()))) == rec


def _snapshot(path: Path) -> Path:
    return path.with_name(path.name + ".snapshot")


def _state(store: TrustStore, subjects) -> tuple:
    """``len(store)`` and the ``get`` answer for every (kind, id)."""
    answers = []
    for kind, subject in subjects:
        try:
            answers.append(store.get(kind, subject))
        except NotFoundError:
            answers.append(None)
    return len(store), answers


def _full_scan_state(path: Path, subjects) -> tuple:
    """The state a full scan of the log gives: a copy with no snapshot beside it."""
    copy = path.with_name("scan-" + path.name)
    copy.write_bytes(path.read_bytes())
    try:
        return _state(TrustStore(copy), subjects)
    finally:
        copy.unlink()
        _snapshot(copy).unlink(missing_ok=True)


@pytest.fixture
def replay_starts(monkeypatch):
    """The position each trust-store open starts replaying its log from."""
    starts = []

    class Spy(store_module.JsonlLog):
        def __init__(self, path, fold, start=LogPosition()):
            if not str(path).endswith(".snapshot"):
                starts.append(start)
            super().__init__(path, fold, start)

    monkeypatch.setattr(store_module, "JsonlLog", Spy)
    return starts


def _three_records(path: Path) -> None:
    """A log of three records, then an open that writes its snapshot."""
    writer = TrustStore(path)
    for day, trust in ((1, 0.2), (2, 0.5), (3, 0.8)):
        writer.put(record(trust=trust, at=f"2026-01-0{day}T00:00:00+00:00"))
    writer.put(record(subject="bob", kind="provider", trust=0.4))
    writer.close()
    TrustStore(path)
    assert _snapshot(path).exists()


# several stamps spell the same instant, in different offsets
_STAMPS = [
    "2026-01-01T00:00:00+00:00",
    "2026-01-01T01:00:00+01:00",
    "2025-12-31T19:00:00-05:00",
    "2026-01-01T00:00:00",
    "2026-01-01T00:30:00+00:00",
    "2026-01-01T02:30:00+02:00",
    "2026-01-02T00:00:00+00:00",
]
_SUBJECTS = [(kind, subject) for kind in ("user", "provider") for subject in ("a", "b")]
_RECORDS = st.builds(
    lambda key, trust, at: record(subject=key[1], kind=key[0], trust=trust, at=at),
    st.sampled_from(_SUBJECTS),
    st.sampled_from([0.1, 0.5, 0.9]),
    st.sampled_from(_STAMPS),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _RECORDS),
        st.tuples(st.just("reopen"), st.none()),
        # another process appended this line and stopped, perhaps before its newline
        st.tuples(st.just("crash"), _RECORDS.map(lambda r: json.dumps(r.to_dict())) | st.just(""), st.booleans()),
    ),
    max_size=12,
)


class TestStoreSnapshot:
    def test_reopen_replays_only_the_tail(self, tmp_path, replay_starts):
        path = tmp_path / "store.jsonl"
        _three_records(path)
        covered = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(trust=0.9, at="2026-01-04T00:00:00+00:00").to_dict()) + "\n")
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts == [LogPosition(covered, 4, 4)]
        assert len(store) == 5 and store.get("user", "alice").trust == 0.9
        assert store.get("provider", "bob").trust == 0.4
        assert stat.S_IMODE(_snapshot(path).stat().st_mode) == stat.S_IMODE(path.stat().st_mode)
        header = json.loads(_snapshot(path).read_text().splitlines()[0])
        assert (header["format"], header["version"], header["log_bytes"]) == ("store-snapshot", 1, path.stat().st_size)
        assert (header["lines"], header["records"], header["subjects"]) == (5, 5, 2)

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_snapshot_opens_match_a_full_scan(self, steps):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            store = TrustStore(path)
            for step in steps:
                if step[0] == "put":
                    store.put(step[1])
                else:
                    store.close()
                    if step[0] == "crash":
                        _, line, terminated = step
                        before = path.read_text() if path.exists() else ""
                        fresh = "\n" if before and not before.endswith("\n") else ""
                        path.write_text(before + fresh + line + ("\n" if terminated else ""))
                    before = path.read_bytes() if path.exists() else None
                    store = TrustStore(path)
                    assert (path.read_bytes() if path.exists() else None) == before  # opening never writes the log
                if path.exists():
                    assert _state(store, _SUBJECTS) == _full_scan_state(path, _SUBJECTS)
            store.close()

    @pytest.mark.parametrize(
        "tamper",
        [
            "stale",
            "truncated",
            "line-lost",
            "not-json",
            "format",
            "version",
            "longer-than-log",
            "records",
            "lines",
            "duplicate",
            "non-str-id",
        ],
    )
    def test_a_snapshot_failing_a_check_is_ignored(self, tmp_path, replay_starts, tamper):
        path = tmp_path / "store.jsonl"
        _three_records(path)
        snapshot = _snapshot(path)
        lines = snapshot.read_text().splitlines()
        header = json.loads(lines[0])
        if tamper == "stale":  # alice's latest trust edited in place, same length
            path.write_text(path.read_text().replace('"trust": 0.8', '"trust": 0.3', 1))
        elif tamper == "truncated":
            snapshot.write_text(snapshot.read_text()[:-40])
        elif tamper == "line-lost":  # bob's whole line
            snapshot.write_text("\n".join(lines[:-1]) + "\n")
        elif tamper == "not-json":
            snapshot.write_text("not json\n")
        elif tamper in ("format", "version", "records", "lines"):  # fewer records than subjects, or than lines
            value = {"format": "trust-store", "version": 2, "records": 1, "lines": 3}[tamper]
            snapshot.write_text("\n".join([json.dumps({**header, tamper: value}), *lines[1:]]) + "\n")
        elif tamper == "duplicate":  # a second alice line, at the same instant
            snapshot.write_text("\n".join([*lines, lines[1].replace('"trust": 0.8', '"trust": 0.1')]) + "\n")
        elif tamper == "non-str-id":  # bob's record under the id 5
            snapshot.write_text("\n".join([*lines[:-1], lines[-1].replace('"subject_id": "bob"', '"subject_id": 5')]) + "\n")
        else:  # the log lost its last record after the snapshot was written
            text = path.read_text()
            path.write_text(text[: text.rindex("{")])
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts == [LogPosition()]
        assert _state(store, [("user", "alice"), ("provider", "bob")]) == _full_scan_state(
            path, [("user", "alice"), ("provider", "bob")]
        )
        if tamper == "stale":
            assert store.get("user", "alice").trust == 0.3 and len(store) == 4
        replay_starts.clear()
        TrustStore(path)  # the full scan wrote a snapshot that holds
        assert replay_starts[0].offset == path.stat().st_size

    def test_corrupt_line_in_the_tail_names_its_line(self, tmp_path, replay_starts):
        path = tmp_path / "store.jsonl"
        _three_records(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n{broken json\n")
        replay_starts.clear()
        with pytest.raises(StoreCorruptError) as err:
            TrustStore(path)
        assert replay_starts[0].lines == 4
        assert err.value.line == 6 and str(path) in str(err.value)

    def test_unterminated_last_line_opens_through_the_snapshot(self, tmp_path, replay_starts):
        path = tmp_path / "store.jsonl"
        _three_records(path)
        snapshot_before = _snapshot(path).read_bytes()
        with open(path, "a", encoding="utf-8") as fh:  # a write cut short before its newline
            fh.write(json.dumps(record(trust=0.6, at="2026-01-05T00:00:00+00:00").to_dict()))
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts[0].lines == 4
        assert store.get("user", "alice").trust == 0.6 and len(store) == 5
        assert _snapshot(path).read_bytes() == snapshot_before  # the cut line is not covered
        store.put(record(trust=0.3, at="2026-01-06T00:00:00+00:00"))
        store.close()
        text = path.read_text()
        assert text.count("\n") == 6 and "\n\n" not in text
        reopened = TrustStore(path)
        assert len(reopened) == 6 and reopened.get("user", "alice").trust == 0.3

    def test_failed_snapshot_write_leaves_the_store_open(self, tmp_path, monkeypatch):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps(record().to_dict()) + "\n")

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.tempfile, "mkstemp", no_space)
        store = TrustStore(path)
        assert store.get("user", "alice").trust == 0.9 and len(store) == 1
        assert not _snapshot(path).exists()
        store.put(record(trust=0.4, at="2026-01-02T00:00:00+00:00"))
        store.close()
        assert TrustStore(path).get("user", "alice").trust == 0.4


class TestFeedbackLedger:
    @pytest.mark.parametrize(
        "bad_line",
        ["{broken json", json.dumps({"v": 1, "provider_id": "p1", "feedback": "meh", "at": "2026-01-01T00:00:00+00:00"})],
    )
    def test_corrupt_line_reported(self, tmp_path, bad_line):
        path = tmp_path / "feedback.jsonl"
        ledger = FeedbackLedger(path)
        ledger.record("p1", "negative")
        ledger.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(bad_line + "\n")
        with pytest.raises(StoreCorruptError) as err:
            FeedbackLedger(path)
        assert err.value.line == 2
        assert str(path) in str(err.value)

    def test_unterminated_last_line_gets_fresh_line(self, tmp_path):
        path = tmp_path / "feedback.jsonl"
        path.write_text(json.dumps({"v": 1, "provider_id": "p1", "feedback": "negative", "at": "2026-01-01T00:00:00+00:00"}))
        ledger = FeedbackLedger(path)
        ledger.record("p1", "positive")
        ledger.close()
        assert FeedbackLedger(path).negative_ratio("p1") == 0.5

    def test_rejected_feedback_writes_nothing(self, tmp_path):
        path = tmp_path / "feedback.jsonl"
        ledger = FeedbackLedger(path)
        with pytest.raises(ValueError):
            ledger.record("p1", "meh")
        assert not path.exists() and ledger.negative_ratio("p1") == 0.0


# Documents as the previous release wrote them: the on-disk formats are fixed.
RECORD_LINES = [
    '{"v": 1, "subject_id": "u1", "subject_kind": "user", "trust": 0.3, "classification": "untrusted", '
    '"model": "baseline", "evaluated_at": "2026-01-01T00:00:00+00:00"}',
    '{"v": 1, "subject_id": "p1", "subject_kind": "provider", "trust": 0.8, "classification": "trusted", '
    '"model": "fis", "evaluated_at": "2026-01-02T00:00:00+00:00"}',
]
LEDGER_LINES = [
    '{"v": 1, "provider_id": "p1", "feedback": "negative", "at": "2026-01-01T00:00:00+00:00"}',
    '{"v": 1, "provider_id": "p1", "feedback": "positive", "at": "2026-01-01T00:01:00+00:00"}',
    '{"v": 1, "provider_id": "p1", "feedback": "positive", "at": "2026-01-01T00:02:00+00:00"}',
]
CLUSTER_DOC = """{"format": "cluster-model", "version": 1, "centers": [[0.2, 0.1, 0.3, 0.5, 0.75]],
 "spreads": [[0.25, 0.25, 0.25, 0.25, 0.25]],
 "norm_params": [[0.0, 10.0], [0.0, 10.0], [0.0, 20.0], [1.0, 101.0], [0.5, 1.0]],
 "m": 2.0, "objective_trace": [0.5],
 "config": {"c": 1, "m": 2.0, "tol": 1e-06, "max_iter": 300, "seed": 0}}"""
FIS_DOC = """{"format": "fis", "version": 1, "defuzz_resolution": 101, "inputs": [
 {"name": "bad_requests", "domain": [0.0, 1.0],
  "sets": [{"label": "cluster_1", "mf": {"shape": "gaussian", "center": 0.2, "sigma": 0.25}}]},
 {"name": "unauthorized_requests", "domain": [0.0, 1.0],
  "sets": [{"label": "cluster_1", "mf": {"shape": "gaussian", "center": 0.3, "sigma": 0.25}}]},
 {"name": "bogus_requests", "domain": [0.0, 1.0],
  "sets": [{"label": "cluster_1", "mf": {"shape": "gaussian", "center": 0.1, "sigma": 0.25}}]},
 {"name": "total_requests", "domain": [0.0, 1.0],
  "sets": [{"label": "cluster_1", "mf": {"shape": "gaussian", "center": 0.5, "sigma": 0.25}}]}],
 "output": {"name": "trust", "domain": [0.0, 1.0],
  "sets": [{"label": "cluster_1", "mf": {"shape": "triangular", "left": 0.5, "apex": 0.75, "right": 1.0}}]},
 "rules": [{"if": [["bad_requests", "cluster_1"], ["unauthorized_requests", "cluster_1"],
   ["bogus_requests", "cluster_1"], ["total_requests", "cluster_1"]], "then": ["trust", "cluster_1"]}]}"""
USER_DOC = (
    '{"format": "user-trust-model", "version": 1, "fis": ' + FIS_DOC + ', "norm_params": '
    "[[0.0, 10.0], [0.0, 10.0], [0.0, 20.0], [1.0, 101.0], [0.5, 1.0]]}"
)


class TestPreviousFormats:
    def test_store_and_ledger_lines_load(self, tmp_path):
        (tmp_path / "s.jsonl").write_text("\n".join(RECORD_LINES) + "\n")
        (tmp_path / "f.jsonl").write_text("\n".join(LEDGER_LINES) + "\n")
        config = ServiceConfig(store_path=str(tmp_path / "s.jsonl"), feedback_path=str(tmp_path / "f.jsonl"))
        service = TrustService(config)
        assert len(service.store) == 2
        assert service.user_trust("u1")["trust"] == 0.3
        provider = service.provider_trust("p1")
        assert (provider["trust"], provider["negative_feedback_ratio"]) == (0.8, 1 / 3)
        service.close()

    def test_model_documents_load(self, tmp_path):
        for name, text in (("cluster.json", CLUSTER_DOC), ("fis.json", FIS_DOC), ("user.json", USER_DOC)):
            (tmp_path / name).write_text(text)
        cluster = load_artifact(ClusterModel, tmp_path / "cluster.json")
        assert cluster.centers.tolist() == [[0.2, 0.1, 0.3, 0.5, 0.75]] and cluster.config.c == 1
        fis = load_artifact(FuzzyInferenceSystem, tmp_path / "fis.json")
        model = load_user_model(tmp_path / "user.json")
        assert model.fis == fis == dataclasses.replace(UserTrustModel.from_cluster_model(cluster).fis, defuzz_resolution=101)
        assert model.norm_params == cluster.norm_params
        assert model.evaluate(UserBehaviorCounters("u", uar=3, bor=1, bar=2, tr=51)) == pytest.approx(0.75)

    def test_wrong_document_names_the_file(self, tmp_path):
        path = tmp_path / "user.json"
        path.write_text(USER_DOC)
        with pytest.raises(ValueError, match="cluster-model") as err:
            load_artifact(ClusterModel, path)
        assert str(path) in str(err.value)

