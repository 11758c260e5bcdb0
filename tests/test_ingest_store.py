import dataclasses
import glob
import hashlib
import json
import random
import stat
import tempfile
from contextlib import closing, contextmanager
from pathlib import Path
from unittest import mock
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzytrust import cli
from fuzzytrust.errors import (
    EmptyWindowError,
    InvalidSpecError,
    ModelLoadFailureError,
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
from fuzzytrust.clustering import ClusterConfig, ClusterModel
from fuzzytrust.fuzzy import FuzzyInferenceSystem
from fuzzytrust.provider import feedback_ban
from fuzzytrust.service import FeedbackLedger, ServiceConfig, TrustService
from fuzzytrust import store as store_module
from fuzzytrust.store import LogPosition, TrustRecord, TrustStore, load_artifact
from fuzzytrust.user import (
    UserBehaviorCounters,
    UserTrustModel,
    baseline_trust,
    fit_user_clusters,
    load_user_model,
    save_user_model,
)

pytestmark = pytest.mark.usefixtures("close_logs")  # conftest: no test leaves a log open


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
        log.write_text("")
        with pytest.raises(ParseError, match="empty file") as err:
            ingest_log(log)
        assert err.value.line == 1 and str(log) in str(err.value)

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


# statuses in the spellings ``int`` accepts, so that one status arrives as several raw texts
_STATUSES = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", " ", "+", "0"]),
    st.sampled_from([200, 302, 400, 401, 403, 404, 500]),
    st.sampled_from(["", " "]),
)

_LOG_ROWS = st.lists(
    st.one_of(
        st.builds(
            "{},{},{}".format,
            _stamps(),
            # one user as several raw texts: padded with spaces or tabs
            st.sampled_from(["alice", "\talice", " bob", "bob", "bob\t", "carol ", "\tcarol\t"]),
            _STATUSES,
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
        if window[0] > window[1]:
            raise ValueError("window start after its end")
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
            try:
                expected = _reference_tally(rows, window)
            except ValueError:
                with pytest.raises(ValueError, match="is after window end"):
                    ingest_log(log, window)
                return
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

    def test_a_window_that_drops_a_users_first_rows(self, tmp_path):
        """The first rows of `` u``, ``u\\t``, ``0404`` and ``+401`` lie before
        the window, so those texts are checked, and the ids' tallies made,
        on rows the window then drops."""
        log = tmp_path / "log.csv"
        write_log(
            log,
            [
                "2026-01-01T08:00:00, u,0404",
                "2026-01-01T08:30:00,v,401",  # v has no row inside
                "2026-01-01T09:00:00,u\t,+401",
                "2026-01-01T10:00:00, u,404 ",
                "2026-01-01T10:30:00,u,0404",
                "2026-01-01T11:00:00,u\t, 200",
                "2026-01-01T11:30:00,u,+401",
                "2026-01-01T12:00:01,v,401",
            ],
        )
        window = (datetime(2026, 1, 1, 10, tzinfo=timezone.utc), datetime(2026, 1, 1, 12, tzinfo=timezone.utc))
        assert ingest_log(log, window) == [
            UserBehaviorCounters(
                user_id="u", uar=1, bor=2, bar=0, tr=4, window=(window[0].isoformat(), window[1].isoformat())
            )
        ]

    @pytest.mark.parametrize(
        "start, end",
        [
            # wall-clock order would say start < end; as instants 09:00Z > 08:00Z
            (datetime(2026, 1, 1, 9), datetime(2026, 1, 1, 10, tzinfo=timezone(timedelta(hours=2)))),
            (datetime(2026, 1, 3), datetime(2026, 1, 1)),
        ],
    )
    def test_a_window_whose_start_is_after_its_end_is_refused(self, tmp_path, start, end):
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T08:30:00,u,200", "2026-01-02T00:00:00,u,200"])
        with pytest.raises(ValueError) as err:
            ingest_log(log, (start, end))
        utc = lambda moment: moment if moment.tzinfo else moment.replace(tzinfo=timezone.utc)
        assert str(err.value) == f"window start {utc(start).isoformat()} is after window end {utc(end).isoformat()}"

    def test_a_window_ordered_as_instants_is_accepted(self, tmp_path):
        """10:00+02:00 is 08:00Z, before the naive (UTC) 09:00 end, though its wall time is later."""
        log = tmp_path / "log.csv"
        write_log(log, ["2026-01-01T08:30:00,u,200"])
        start = datetime(2026, 1, 1, 10, tzinfo=timezone(timedelta(hours=2)))
        assert ingest_log(log, (start, datetime(2026, 1, 1, 9)))[0].tr == 1

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
            assert row[4] == baseline_trust(counters)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            CorpusSpec(n_users=10, n_train=20)
        with pytest.raises(InvalidSpecError):
            CorpusSpec(benign_fraction=1.5)

    def test_population_is_pinned(self, tmp_path):
        """The drawn population itself, not only its determinism: a change to
        the generator or its constants has to change these digests too."""
        train, test = generate_corpus(CorpusSpec())
        digest = hashlib.sha256(corpus_matrix(train + test).tobytes()).hexdigest()
        assert digest == "c6149368665a7752b8c13d657ca716b0d828a66a5ad49367447b19850863736f"
        out = tmp_path / "train.csv"
        argv = ["gen-corpus", "--seed", "3", "--train-out", str(out), "--test-out", str(tmp_path / "test.csv")]
        assert cli.main(argv) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "7c6ab9fc8e5a05b3819f139a4078c9546daf5e5383e5212b0cadd4813fcbc8f7"

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
        for header in ("bad,bogus,total,trust", ""):  # no unauthorized column; no header at all
            path.write_text(header + "\n")
            with pytest.raises(ParseError, match="header must contain") as err:
                read_counters_csv(path)
            assert err.value.line == 1 and str(path) in str(err.value)

    @pytest.mark.parametrize(
        "header, rows, user",
        [
            ("user_id,bad,bogus,unauthorized,total", ["a,1,2,3,50", "idle,0,0,0,0", "b,0,0,0,5"], "idle"),
            ("bad,bogus,unauthorized,total,trust", ["1,2,3,50,0.9", "0,0,0,0,1.0", "0,0,0,5,1.0"], "row-0002"),
        ],
        ids=["counters", "corpus"],
    )
    def test_zero_total_row_names_its_line(self, tmp_path, header, rows, user):
        path = tmp_path / "input.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ParseError) as err:
            read_counters_csv(path)
        assert err.value.line == 3
        assert str(err.value) == f"{path}, line 3: user {user!r} has no requests in the window"


def test_a_log_csv_with_a_byte_order_mark(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"\xef\xbb\xbftimestamp,user_id,status\r\n2026-01-01T00:00:00,u1,404\r\n")
    assert [(c.user_id, c.bor, c.tr) for c in ingest_log(log)] == [("u1", 1, 1)]


@pytest.mark.parametrize("header", ["user_id,bad,bogus,unauthorized,total", "bad,bogus,unauthorized,total,user_id"])
def test_a_counters_csv_with_a_byte_order_mark_keeps_its_user_ids(tmp_path, header):
    path = tmp_path / "counters.csv"
    cells = {"user_id": "alice", "bad": "1", "bogus": "2", "unauthorized": "3", "total": "50"}
    row = ",".join(cells[name] for name in header.split(","))
    path.write_bytes(b"\xef\xbb\xbf" + f"{header}\n{row}\n".encode())
    assert read_counters_csv(path) == [UserBehaviorCounters(user_id="alice", bar=1, bor=2, uar=3, tr=50)]


def test_the_retrain_pipeline_is_pinned(tmp_path):
    """A seeded log through ingest, the joint matrix, FCM and the saved
    model: a change anywhere on that path that moves one output bit has
    to change this digest too."""
    rng = random.Random(28)
    start = datetime(2026, 2, 1)
    statuses = ["200", "200", "302", "500", "400", "401", "403", "404", " 404", "0401", "+400"]
    rows = []
    for k in range(3000):
        user = f"user-{rng.randrange(60):02d}"
        user = rng.choice(["", " ", "\t"]) + user + rng.choice(["", " "])
        rows.append(f"{(start + timedelta(seconds=7 * k)).isoformat()},{user},{rng.choice(statuses)}")
    log, out = tmp_path / "log.csv", tmp_path / "model.json"
    write_log(log, rows)
    counters = ingest_log(log)
    assert len(counters) == 60
    clusters = fit_user_clusters(corpus_matrix(counters), ClusterConfig(c=5, max_iter=40, tol=1e-300))
    save_user_model(UserTrustModel.from_cluster_model(clusters), out)
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "a172796f5267e3e9555660f47e1cf6bed608bb94e07627c956b8b2573228ce03"


@pytest.mark.parametrize(
    "read, header, row",
    [
        (ingest_log, "timestamp,user_id,status", lambda i: f"2026-01-01T00:00:{i % 60:02d},user{i},200"),
        (read_counters_csv, "user_id,bad,bogus,unauthorized,total", lambda i: f"user{i},1,2,3,50"),
    ],
    ids=["request-log", "counters"],
)
def test_a_non_utf8_byte_in_a_csv_names_its_line(tmp_path, read, header, row):
    """The text layer decodes 8 KB ahead of the csv reader, so the byte sits
    past the first 8 KB: the line must come from the file, not the reader."""
    lines = [header.encode()] + [row(i).encode() for i in range(1000)]
    lines[700] = lines[700].replace(b"user", b"us\xffer")
    path = tmp_path / "input.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    assert path.read_bytes().index(b"\xff") > 8192
    with pytest.raises(ParseError, match="can't decode byte 0xff") as err:
        read(path)
    assert err.value.line == 701 and str(err.value).startswith(f"{path}, line 701: ")


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
            assert _full_scan_state(path, [("user", "alice")])[1][0].trust == trust  # a byte copy holds it
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
        for trust in (True, "0.5"):
            with pytest.raises(ValueError):
                record(trust=trust)
        for at in (5, None, b"2026-01-01T00:00:00+00:00"):
            with pytest.raises(ValueError, match="evaluated_at"):
                record(at=at)
        assert record(trust=1).trust == 1 and record(trust=np.float64(0.5)).trust == 0.5

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

    @pytest.mark.parametrize("trust", ["0.25", True])
    def test_non_real_trust_in_the_log_is_a_corrupt_line(self, tmp_path, trust):
        path = tmp_path / "store.jsonl"
        path.write_text(
            json.dumps(record().to_dict()) + "\n" + json.dumps({**record().to_dict(), "trust": trust}) + "\n"
        )
        with pytest.raises(StoreCorruptError) as err:
            TrustStore(path)
        assert err.value.line == 2 and str(path) in str(err.value)

    def test_integer_trust_in_the_log_replays_as_a_float(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_text(json.dumps({**record().to_dict(), "trust": 1}) + "\n")
        trust = TrustStore(path).get("user", "alice").trust
        assert trust == 1.0 and type(trust) is float

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


def _with_trailer(lines: list[str]) -> str:
    """Snapshot text: ``lines`` and the trailer a writer would put below them."""
    text = "".join(line + "\n" for line in lines)
    return text + json.dumps({"sha256": hashlib.sha256(text.encode()).hexdigest()}) + "\n"


def _check_trailer(snapshot: Path) -> list:
    """The snapshot's lines above its trailer, parsed, once the trailer is
    checked to be the last line and the digest of every byte above it."""
    text = snapshot.read_text()
    above, trailer = text[: text.rindex("{")], text[text.rindex("{") :]
    assert trailer == json.dumps({"sha256": hashlib.sha256(above.encode()).hexdigest()}) + "\n"
    return [json.loads(line) for line in above.splitlines()]


def _state(store: TrustStore, subjects) -> tuple:
    """``len(store)`` and the ``get`` answer for every (kind, id), once each
    answer is checked to hold its trust as a float, as a replay reads it."""
    answers = []
    for kind, subject in subjects:
        try:
            answers.append(store.get(kind, subject))
        except NotFoundError:
            answers.append(None)
    assert all(type(answer.trust) is float for answer in answers if answer is not None)
    return len(store), answers


def _log_files(path: Path) -> list[Path]:
    """The sealed segments of the log at ``path`` in order, then its active
    file if there is one."""
    return sorted(path.parent.glob(glob.escape(path.name) + ".[0-9]*")) + [path] * path.exists()


@contextmanager
def _scan_copy(path: Path):
    """The path of a byte copy of the log at ``path``, every segment of it,
    with no snapshot beside it; removed on exit, with the copy's lock file."""
    copy = path.with_name("scan-" + path.name)
    copies = [file.with_name("scan-" + file.name) for file in _log_files(path)]
    try:
        for file, target in zip(_log_files(path), copies):
            target.write_bytes(file.read_bytes())
        yield copy
    finally:
        for target in [*copies, _snapshot(copy), copy.with_name(copy.name + ".lock")]:
            target.unlink(missing_ok=True)


def _full_scan_state(path: Path, subjects) -> tuple:
    """The state a full scan of the log gives: a copy with no snapshot beside it."""
    with _scan_copy(path) as copy, closing(TrustStore(copy)) as store:
        return _state(store, subjects)


def _three_records(path: Path) -> None:
    """A log of three records, checkpointed by its close."""
    writer = TrustStore(path)
    for day, trust in ((1, 0.2), (2, 0.5), (3, 0.8)):
        writer.put(record(trust=trust, at=f"2026-01-0{day}T00:00:00+00:00"))
    writer.put(record(subject="bob", kind="provider", trust=0.4))
    writer.close()
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
    st.sampled_from([0, 0.1, 0.5, 0.9, 1]),  # an int trust is held, written and read back as a float
    st.sampled_from(_STAMPS),
)
_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), _RECORDS),
        st.tuples(st.just("reopen"), st.none()),  # a close, which checkpoints, then an open
        # another process appended this line and stopped, perhaps before its newline
        st.tuples(st.just("crash"), _RECORDS.map(lambda r: json.dumps(r.to_dict())) | st.just(""), st.booleans()),
    ),
    max_size=12,
)


def _run_store_steps(steps) -> None:
    """Run ``steps`` on a new store; after each, its state equals a full
    scan's: the records of puts, of a snapshot seed and its tail, and of a
    full replay all ``get`` the same, trust a float on each path."""
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
                before = [file.read_bytes() for file in _log_files(path)]
                store = TrustStore(path)
                assert [file.read_bytes() for file in _log_files(path)] == before  # opening never writes the log
            if path.exists():
                assert _state(store, _SUBJECTS) == _full_scan_state(path, _SUBJECTS)
        store.close()


# a field of a store-snapshot/5 row, [subject_kind, subject_id, trust,
# classification, model, evaluated_at], and a value no record may hold there
_ROW_TAMPERS = {
    "empty-id": (1, ""),
    "unknown-kind": (0, "admin"),
    "unknown-classification": (3, "suspect"),
    "unknown-model": (4, "oracle"),
    "trust-over-one": (2, 1.5),
    "trust-under-zero": (2, -0.1),
    "bool-trust": (2, True),
    "non-str-stamp": (5, 20260101),
    "unparseable-stamp": (5, "the first of January"),
}


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
        header, body = _check_trailer(_snapshot(path))
        assert (header["format"], header["version"], header["log_bytes"]) == ("store-snapshot", 5, path.stat().st_size)
        assert header["sealed"] == []  # a log under the cap is one active file
        assert (header["lines"], header["records"], header["subjects"]) == (5, 5, 2)
        assert [row[1] for row in body] == ["alice", "bob"]

    def test_every_open_path_gets_equal_records_with_a_float_trust(self, tmp_path, replay_starts):
        """An int trust put in this process, seeded from a snapshot, or
        replayed from the log: each ``get`` answers the same record, its
        trust a float."""
        path = tmp_path / "store.jsonl"
        subjects = [("user", "alice"), ("user", "carol"), ("provider", "bob")]
        store = TrustStore(path)
        for (kind, subject), trust in zip(subjects, (0, 1, 0.5)):
            store.put(record(subject=subject, kind=kind, trust=trust))
        put_state = _state(store, subjects)
        store.close()
        replay_starts.clear()
        with closing(TrustStore(path)) as seeded:
            assert replay_starts == [LogPosition(path.stat().st_size, 3, 3)]  # all from the snapshot
            assert _state(seeded, subjects) == put_state == _full_scan_state(path, subjects)
        assert [answer.trust for answer in put_state[1]] == [0.0, 1.0, 0.5]

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_snapshot_opens_match_a_full_scan(self, steps):
        _run_store_steps(steps)

    @settings(max_examples=60, deadline=None)
    @given(steps=_STEPS)
    def test_snapshot_opens_match_a_full_scan_across_seals(self, steps):
        with mock.patch.object(store_module, "SEGMENT_BYTES", 400):  # two records a segment
            _run_store_steps(steps)

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
            "arity",
            "v1-record",
            "subjects",
            "non-real-trust",
            "over-cap",
            "row-edited",
            "no-trailer",
            "after-trailer",
            *_ROW_TAMPERS,
        ],
    )
    def test_a_snapshot_failing_a_check_is_ignored(self, tmp_path, replay_starts, monkeypatch, tamper):
        path = tmp_path / "store.jsonl"
        _three_records(path)
        snapshot = _snapshot(path)
        lines = snapshot.read_text().splitlines()
        header, (alice, bob) = json.loads(lines[0]), json.loads(lines[1])  # one body line of two rows

        def write(header, *body):  # with a trailer that matches, so the case meets its own check
            snapshot.write_text(_with_trailer([json.dumps(line) for line in [header, *body]]))

        if tamper == "stale":  # alice's latest trust edited in place, same length
            path.write_text(path.read_text().replace('"trust": 0.8', '"trust": 0.3', 1))
        elif tamper == "truncated":
            snapshot.write_text(snapshot.read_text()[:-40])
        elif tamper == "line-lost":  # the whole body line
            write(header)
        elif tamper == "not-json":
            snapshot.write_text("not json\n")
        elif tamper in ("format", "version", "records", "lines", "subjects"):  # records < subjects, lines < records, rows != subjects
            value = {"format": "trust-store", "version": 6, "records": 1, "lines": 3, "subjects": 3}[tamper]
            write({**header, tamper: value}, [alice, bob])
        elif tamper == "duplicate":  # a second alice row, at the same instant
            write(header, [alice, bob, [*alice[:2], 0.1, *alice[3:]]])
        elif tamper == "non-str-id":  # bob's row under the id 5
            write(header, [alice, [bob[0], 5, *bob[2:]]])
        elif tamper == "arity":  # bob's row without its stamp
            write(header, [alice, bob[:-1]])
        elif tamper == "v1-record":  # bob's row as a store-snapshot/1 line
            write(header, [alice], TrustRecord(bob[1], bob[0], *bob[2:]).to_dict())
        elif tamper == "non-real-trust":  # alice's trust as a string
            write(header, [[*alice[:2], str(alice[2]), *alice[3:]], bob])
        elif tamper in _ROW_TAMPERS:  # bob's row with one field out of its rule
            field, value = _ROW_TAMPERS[tamper]
            write(header, [alice, [*bob[:field], value, *bob[field + 1 :]]])
        elif tamper == "over-cap":  # the body line holds more rows than a line may
            monkeypatch.setattr(store_module, "SNAPSHOT_ROWS_PER_LINE", 1)
        elif tamper == "row-edited":  # alice's trust 0.8 edited to 0.3, the old trailer kept
            snapshot.write_text(snapshot.read_text().replace('"alice", 0.8,', '"alice", 0.3,'))
        elif tamper == "no-trailer":
            snapshot.write_text("\n".join(lines[:-1]) + "\n")
        elif tamper == "after-trailer":  # a valid snapshot, then a body line of no rows
            snapshot.write_text(snapshot.read_text() + "[]\n")
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
        if tamper == "row-edited":  # the log's value, not the edited row's
            assert store.get("user", "alice").trust == 0.8
        store.close()
        replay_starts.clear()
        TrustStore(path)  # the full scan wrote a snapshot that holds
        assert replay_starts[0].offset == path.stat().st_size

    @pytest.mark.parametrize("version", [1, 2, 3, 4], ids=["v1", "v2", "v3", "v4"])
    def test_an_older_snapshot_is_replaced(self, tmp_path, replay_starts, version):
        """``store-snapshot/1`` (a record object per line), ``/2`` (row
        arrays, no trailer), ``/3`` (a trailer, no sealed segments) and
        ``/4`` (sealed segments with their digests), as earlier releases
        wrote them: each is ignored once, then replaced by the current
        version."""
        path = tmp_path / "store.jsonl"
        subjects = [("user", "alice"), ("provider", "bob")]
        _three_records(path)
        log = path.read_bytes()
        old_header = {
            "format": "store-snapshot",
            "version": version,
            "log_bytes": len(log),
            "log_sha256": hashlib.sha256(log).hexdigest(),
            "lines": 4,
            "records": 4,
            "subjects": 2,
            **({"sealed": []} if version == 4 else {}),
        }
        with closing(TrustStore(path)) as reader:
            latest = [reader.get(*subject) for subject in subjects]
        if version == 1:
            body = [record.to_dict() for record in latest]
        else:
            body = [[[r.subject_kind, r.subject_id, r.trust, r.classification, r.model, r.evaluated_at] for r in latest]]
        lines = list(map(json.dumps, [old_header, *body]))
        _snapshot(path).write_text(_with_trailer(lines) if version >= 3 else "\n".join(lines) + "\n")
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts == [LogPosition()]
        assert _state(store, subjects) == _full_scan_state(path, subjects)
        assert _check_trailer(_snapshot(path))[0]["version"] == 5
        store.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(trust=0.9, at="2026-01-04T00:00:00+00:00").to_dict()) + "\n")
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts == [LogPosition(len(log), 4, 4)]
        assert _state(store, subjects) == _full_scan_state(path, subjects)

    def test_snapshot_body_lines_hold_at_most_the_cap(self, tmp_path, replay_starts):
        path = tmp_path / "store.jsonl"
        cap = store_module.SNAPSHOT_ROWS_PER_LINE
        subjects = [("user", f"u{i}") for i in range(3 * cap + 1)]
        path.write_text("".join(json.dumps(record(subject=subject).to_dict()) + "\n" for _, subject in subjects))
        TrustStore(path).close()
        body = _check_trailer(_snapshot(path))[1:]
        assert [len(line) for line in body] == [cap, cap, cap, 1]
        replay_starts.clear()
        store = TrustStore(path)
        assert replay_starts == [LogPosition(path.stat().st_size, len(subjects), len(subjects))]
        assert _state(store, subjects) == _full_scan_state(path, subjects)

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
        ["{broken json"]
        + [
            json.dumps({"v": 1, "provider_id": provider_id, "feedback": feedback, "at": "2026-01-01T00:00:00+00:00"})
            for provider_id, feedback in (("p1", "meh"), (7, "negative"), ("", "negative"), (None, "negative"))
        ],
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



def _feedback_line(provider_id="p1", feedback="negative", v=1) -> str:
    return json.dumps({"v": v, "provider_id": provider_id, "feedback": feedback, "at": "2026-01-01T00:00:00+00:00"})


def _ledger_state(ledger: FeedbackLedger) -> tuple:
    """``len(ledger)`` and every provider's [positive, negative] tally: the
    ratio alone would hide a snapshot that scaled both counts."""
    return len(ledger), {provider_id: list(tally) for provider_id, tally in ledger._tallies.items()}


def _ledger_full_scan(path: Path) -> tuple:
    """The state a full scan of the ledger gives: a copy with no snapshot beside it."""
    with _scan_copy(path) as copy, closing(FeedbackLedger(copy)) as ledger:
        return _ledger_state(ledger)


def _four_feedbacks(path: Path) -> None:
    """A ledger of four entries, checkpointed by its close."""
    ledger = FeedbackLedger(path)
    for provider_id, feedback in (("p1", "negative"), ("p1", "positive"), ("p1", "positive"), ("p2", "negative")):
        ledger.record(provider_id, feedback)
    ledger.close()
    assert _snapshot(path).exists()


def test_a_failed_append_changes_no_state(tmp_path, monkeypatch):
    """Both logs write before they fold: a write that fails leaves the
    in-memory state and the record count as they were."""
    store, ledger = TrustStore(tmp_path / "store.jsonl"), FeedbackLedger(tmp_path / "feedback.jsonl")
    store.put(record())
    ledger.record("p1", "negative")

    def full_disk(log, data):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(store_module.FoldedLog, "_write", full_disk)
    with pytest.raises(OSError):
        store.put(record(trust=0.1, at="2026-01-02T00:00:00+00:00"))
    with pytest.raises(OSError):
        ledger.record("p1", "positive")
    assert (store.get("user", "alice").trust, len(store)) == (0.9, 1)
    assert _ledger_state(ledger) == (1, {"p1": [0, 1]})
    store.close()
    ledger.close()


_FEEDBACK_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("record"), st.sampled_from(["a", "b"]), st.sampled_from(["positive", "negative"])),
        st.tuples(st.just("reopen"), st.none(), st.none()),  # a close, which checkpoints, then an open
        # another process appended this line and stopped, perhaps before its newline
        st.tuples(st.just("crash"), st.sampled_from(["a", "b"]).map(_feedback_line) | st.just(""), st.booleans()),
    ),
    max_size=12,
)


def _run_ledger_steps(steps) -> None:
    """Run ``steps`` on a new ledger; after each, its state equals a full scan."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feedback.jsonl"
        ledger = FeedbackLedger(path)
        for kind, first, second in steps:
            if kind == "record":
                ledger.record(first, second)
            else:
                ledger.close()
                if kind == "crash":
                    before = path.read_text() if path.exists() else ""
                    fresh = "\n" if before and not before.endswith("\n") else ""
                    path.write_text(before + fresh + first + ("\n" if second else ""))
                before = [file.read_bytes() for file in _log_files(path)]
                ledger = FeedbackLedger(path)
                assert [file.read_bytes() for file in _log_files(path)] == before  # opening never writes the log
            if path.exists():
                assert _ledger_state(ledger) == _ledger_full_scan(path)
        ledger.close()


class TestLedgerSnapshot:
    """The feedback ledger's ``ledger-snapshot/4`` checkpoint, through the
    same open policy as the trust store's."""

    def test_reopen_replays_only_the_tail(self, tmp_path, replay_starts):
        path = tmp_path / "feedback.jsonl"
        _four_feedbacks(path)
        covered = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_feedback_line("p2", "positive") + "\n")
        replay_starts.clear()
        ledger = FeedbackLedger(path)
        assert replay_starts == [LogPosition(covered, 4, 4)]
        assert _ledger_state(ledger) == (5, {"p1": [2, 1], "p2": [1, 1]})
        assert ledger.negative_ratio("p1") == 1 / 3 and ledger.negative_ratio("p2") == 0.5
        assert stat.S_IMODE(_snapshot(path).stat().st_mode) == stat.S_IMODE(path.stat().st_mode)
        header, body = _check_trailer(_snapshot(path))
        assert (header["format"], header["version"], header["log_bytes"]) == ("ledger-snapshot", 4, path.stat().st_size)
        assert header["sealed"] == []  # a log under the cap is one active file
        assert (header["lines"], header["records"], header["subjects"]) == (5, 5, 2)
        assert body == [["p1", 2, 1], ["p2", 1, 1]]

    def test_the_service_checkpoints_its_ledger_beside_the_store(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        service = TrustService(ServiceConfig(store_path=str(store_path)))
        service.provider_feedback("p1", "negative")
        service.close()
        TrustService(ServiceConfig(store_path=str(store_path))).close()
        assert json.loads((tmp_path / "store.jsonl.feedback.snapshot").read_text().splitlines()[1]) == [["p1", 0, 1]]

    @settings(max_examples=60, deadline=None)
    @given(steps=_FEEDBACK_STEPS)
    def test_snapshot_opens_match_a_full_scan(self, steps):
        _run_ledger_steps(steps)

    @settings(max_examples=60, deadline=None)
    @given(steps=_FEEDBACK_STEPS)
    def test_snapshot_opens_match_a_full_scan_across_seals(self, steps):
        with mock.patch.object(store_module, "SEGMENT_BYTES", 200):  # two entries a segment
            _run_ledger_steps(steps)

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
            "subjects",
            "duplicate",
            "bool-count",
            "negative-count",
            "float-count",
            "non-str-id",
            "empty-id",
            "arity",
            "over-cap",
            "row-edited",
            "no-trailer",
            "after-trailer",
        ],
    )
    def test_a_snapshot_failing_a_check_is_ignored(self, tmp_path, replay_starts, monkeypatch, tamper):
        path = tmp_path / "feedback.jsonl"
        _four_feedbacks(path)
        snapshot = _snapshot(path)
        lines = snapshot.read_text().splitlines()
        header, (p1, p2) = json.loads(lines[0]), json.loads(lines[1])  # one body line of two rows

        def write(header, *body):  # with a trailer that matches, so the case meets its own check
            snapshot.write_text(_with_trailer([json.dumps(line) for line in [header, *body]]))

        if tamper == "stale":  # p1's first feedback edited in place, same length
            path.write_text(path.read_text().replace('"negative"', '"positive"', 1))
        elif tamper == "truncated":
            snapshot.write_text(snapshot.read_text()[:-10])
        elif tamper == "line-lost":  # the whole body line
            write(header)
        elif tamper == "not-json":
            snapshot.write_text("not json\n")
        elif tamper in ("format", "version", "records", "lines", "subjects"):  # records < subjects, lines < records, rows != subjects
            value = {"format": "store-snapshot", "version": 5, "records": 1, "lines": 3, "subjects": 3}[tamper]
            write({**header, tamper: value}, [p1, p2])
        elif tamper == "duplicate":  # a second p1 row
            write(header, [p1, p2, ["p1", 0, 9]])
        elif tamper in ("bool-count", "negative-count", "float-count"):
            write(header, [p1, [p2[0], {"bool-count": True, "negative-count": -1, "float-count": 1.0}[tamper], p2[2]]])
        elif tamper in ("non-str-id", "empty-id"):  # p2's row under the id 5 or ""
            write(header, [p1, [5 if tamper == "non-str-id" else "", *p2[1:]]])
        elif tamper == "arity":  # p2's row without its negative count
            write(header, [p1, p2[:-1]])
        elif tamper == "over-cap":  # the body line holds more rows than a line may
            monkeypatch.setattr(store_module, "SNAPSHOT_ROWS_PER_LINE", 1)
        elif tamper == "row-edited":  # p2's one negative edited to a positive, the old trailer kept
            snapshot.write_text(snapshot.read_text().replace('["p2", 0, 1]', '["p2", 1, 0]'))
        elif tamper == "no-trailer":
            snapshot.write_text("\n".join(lines[:-1]) + "\n")
        elif tamper == "after-trailer":  # a valid snapshot, then a body line of no rows
            snapshot.write_text(snapshot.read_text() + "[]\n")
        else:  # the log lost its last entry after the snapshot was written
            text = path.read_text()
            path.write_text(text[: text.rindex("{")])
        replay_starts.clear()
        ledger = FeedbackLedger(path)
        assert replay_starts == [LogPosition()]
        assert _ledger_state(ledger) == _ledger_full_scan(path)
        if tamper == "stale":
            assert _ledger_state(ledger) == (4, {"p1": [3, 0], "p2": [0, 1]})
        if tamper == "row-edited":  # the log's ratio, a feedback ban
            assert ledger.negative_ratio("p2") == 1.0 and feedback_ban(ledger.negative_ratio("p2"))
        ledger.close()
        replay_starts.clear()
        FeedbackLedger(path)  # the full scan wrote a snapshot that holds
        assert replay_starts[0].offset == path.stat().st_size

    @pytest.mark.parametrize("version", [1, 2, 3], ids=["v1", "v2", "v3"])
    def test_an_older_snapshot_is_replaced(self, tmp_path, replay_starts, version):
        """``ledger-snapshot/1`` (row arrays, no trailer), ``/2`` (a
        trailer, no sealed segments) and ``/3`` (sealed segments with their
        digests), as earlier releases wrote them: each is ignored once, then
        replaced by the current version."""
        path = tmp_path / "feedback.jsonl"
        _four_feedbacks(path)
        log = path.read_bytes()
        old_header = {"format": "ledger-snapshot", "version": version, "log_bytes": len(log),
                      "log_sha256": hashlib.sha256(log).hexdigest(), "lines": 4, "records": 4, "subjects": 2,
                      **({"sealed": []} if version == 3 else {})}
        lines = list(map(json.dumps, [old_header, [["p1", 2, 1], ["p2", 0, 1]]]))
        _snapshot(path).write_text(_with_trailer(lines) if version >= 2 else "\n".join(lines) + "\n")
        replay_starts.clear()
        ledger = FeedbackLedger(path)
        assert replay_starts == [LogPosition()]
        assert _ledger_state(ledger) == _ledger_full_scan(path) == (4, {"p1": [2, 1], "p2": [0, 1]})
        assert _check_trailer(_snapshot(path))[0]["version"] == 4
        ledger.close()
        replay_starts.clear()
        FeedbackLedger(path)
        assert replay_starts == [LogPosition(len(log), 4, 4)]

    def test_failed_snapshot_write_leaves_the_ledger_usable(self, tmp_path, monkeypatch):
        path = tmp_path / "feedback.jsonl"
        path.write_text(_feedback_line() + "\n")

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_module.tempfile, "mkstemp", no_space)
        ledger = FeedbackLedger(path)
        assert _ledger_state(ledger) == (1, {"p1": [0, 1]}) and not _snapshot(path).exists()
        assert ledger.record("p1", "positive") == 0.5
        ledger.close()
        assert _ledger_state(FeedbackLedger(path)) == (2, {"p1": [1, 1]})

    @pytest.mark.parametrize("checkpointed", [False, True], ids=["no-snapshot", "in-the-tail"])
    def test_an_unknown_ledger_version_names_the_file_and_line(self, tmp_path, checkpointed):
        path = tmp_path / "feedback.jsonl"
        if checkpointed:
            _four_feedbacks(path)
        else:
            path.write_text(_feedback_line() + "\n")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(_feedback_line(v=2) + "\n")
        with pytest.raises(StoreCorruptError, match="unsupported ledger version 2") as err:
            FeedbackLedger(path)
        assert err.value.line == (5 if checkpointed else 2) and str(path) in str(err.value)


class TestLogBytes:
    """What both logs make of the bytes on disk: the replay decodes and
    hashes each line once."""

    @pytest.mark.parametrize("log", ["store", "ledger"])
    @pytest.mark.parametrize("checkpointed", [False, True], ids=["full-replay", "in-the-tail"])
    def test_a_non_utf8_byte_names_the_file_and_line(self, tmp_path, replay_starts, log, checkpointed):
        path = tmp_path / f"{log}.jsonl"
        if log == "store":
            opener, good = TrustStore, json.dumps(record().to_dict()).encode()
            bad = good.replace(b"alice", b"al\xffce")
        else:
            opener, good = FeedbackLedger, _feedback_line().encode()
            bad = good.replace(b"p1", b"p\xff1")
        if checkpointed:
            (_three_records if log == "store" else _four_feedbacks)(path)
        else:
            path.write_bytes(good + b"\n")
        lines = path.read_bytes().count(b"\n")
        with open(path, "ab") as fh:
            fh.write(bad + b"\n")
        replay_starts.clear()
        with pytest.raises(StoreCorruptError, match="can't decode byte 0xff") as err:
            opener(path)
        assert replay_starts[0].lines == (lines if checkpointed else 0)
        assert err.value.line == lines + 1 and str(err.value).startswith(f"{path}, line {lines + 1}: ")

    @staticmethod
    def _covered(path: Path) -> dict:
        """The snapshot's header, once its ``log_sha256`` is checked against
        the log bytes it says it covers."""
        header = _check_trailer(_snapshot(path))[0]
        assert header["log_sha256"] == hashlib.sha256(path.read_bytes()[: header["log_bytes"]]).hexdigest()
        return header

    def test_the_log_digest_covers_the_replayed_bytes(self, tmp_path, replay_starts):
        path = tmp_path / "store.jsonl"
        path.write_text("".join(json.dumps(record(trust=t).to_dict()) + "\n" for t in (0.1, 0.2)))
        TrustStore(path).close()  # a full replay
        assert replay_starts == [LogPosition()]
        covered = self._covered(path)["log_bytes"]
        assert covered == path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(trust=0.3, at="2026-01-02T00:00:00+00:00").to_dict()) + "\n")
        TrustStore(path).close()  # a tail
        assert replay_starts[1] == LogPosition(covered, 2, 2)
        assert self._covered(path)["log_bytes"] == path.stat().st_size
        with open(path, "ab") as fh:  # a tail of blank and CRLF-terminated lines
            fh.write(b"\n  \r\n" + json.dumps(record(trust=0.4, at="2026-01-03T00:00:00+00:00").to_dict()).encode() + b"\r\n")
        store = TrustStore(path)
        header = self._covered(path)
        assert (header["log_bytes"], header["lines"], header["records"]) == (path.stat().st_size, 6, 4)
        assert len(store) == 4 and store.get("user", "alice").trust == 0.4

    @pytest.mark.parametrize(
        "log, digest",
        [
            ("store", "cf35f64bb4d42338439e531f8d59c47224bcf1d0b7c4d8b6d5e05d40a66a3e4d"),
            ("ledger", "fe641a24dc8e992d96446821d1450f368dac9ef6172de716d1cc32e9be9c8839"),
        ],
        ids=["store", "ledger"],  # not the digest, so a format bump re-pins it under the same test id
    )
    def test_the_snapshot_of_a_fixed_log_is_pinned(self, tmp_path, log, digest):
        """The bytes written for a fixed five-record log: a change to the
        snapshot format shows here, and it needs a version bump."""
        path = tmp_path / f"{log}.jsonl"
        if log == "store":
            subjects = (("alice", "user"), ("bob", "user"), ("alice", "user"), ("carol", "provider"), ("bob", "user"))
            lines = [
                json.dumps(record(subject=s, kind=k, trust=i / 10, at=f"2026-01-0{i}T00:00:00+00:00").to_dict())
                for i, (s, k) in enumerate(subjects, start=1)
            ]
        else:
            lines = [_feedback_line(p, f) for p, f in (("p1", "negative"), ("p2", "positive"), ("p1", "positive"),
                                                      ("p1", "positive"), ("p3", "negative"))]
        path.write_text("".join(line + "\n" for line in lines))
        (TrustStore if log == "store" else FeedbackLedger)(path)
        assert hashlib.sha256(_snapshot(path).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("name", ["store.jsonl", "store[1].jsonl"])
    def test_a_stale_temporary_snapshot_is_removed(self, tmp_path, replay_starts, name):
        """A writer killed inside a snapshot write leaves its temporary file;
        the next rewrite removes it."""
        path = tmp_path / name
        _three_records(path)
        stale = path.with_name(path.name + ".snapshot.k1l1ed00.tmp")
        stale.write_text('{"format": "store-snapshot", "ver')
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record(trust=0.7, at="2026-01-04T00:00:00+00:00").to_dict()) + "\n")
        TrustStore(path).close()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([path.name, path.name + ".lock", path.name + ".snapshot"])
        replay_starts.clear()
        assert TrustStore(path).get("user", "alice").trust == 0.7
        assert replay_starts == [LogPosition(path.stat().st_size, 5, 5)]


class TestCloseCheckpoint:
    """A log checkpoints its end when it closes, from the digest its appends
    kept."""

    @staticmethod
    def _log(kind: str):
        """The opener of a ``kind`` log, an append of its ``i``-th entry, its
        state and the state a full scan of its file gives."""
        if kind == "store":
            subjects = [("user", "alice"), ("provider", "bob"), ("user", "carol")]

            def append(store, i):
                subject_kind, subject = subjects[i % 3]
                at = f"2026-01-{i + 1:02}T00:00:00+00:00"
                store.put(record(subject=subject, kind=subject_kind, trust=i % 10 / 10, at=at))

            return (TrustStore, append, lambda store: _state(store, subjects),
                    lambda path: _full_scan_state(path, subjects))
        return (FeedbackLedger, lambda ledger, i: ledger.record(f"p{i % 3}", ("positive", "negative")[i % 2]),
                _ledger_state, _ledger_full_scan)

    @pytest.mark.parametrize("kind", ["store", "ledger"])
    def test_close_checkpoints_the_log_end(self, tmp_path, replay_starts, monkeypatch, kind):
        path = tmp_path / f"{kind}.jsonl"
        opener, append, state, full_scan = self._log(kind)
        writes = []
        write_snapshot = store_module.FoldedLog._write_snapshot
        monkeypatch.setattr(store_module.FoldedLog, "_write_snapshot",
                            lambda log, end, digest: writes.append(end) or write_snapshot(log, end, digest))
        for round_ in range(2):  # a log with no file, then one opened through its snapshot
            log = opener(path)
            for i in range(5):
                append(log, 5 * round_ + i)
            log.close()
            header = _check_trailer(_snapshot(path))[0]
            assert (header["log_bytes"], header["lines"], header["records"]) == (path.stat().st_size, 5 + 5 * round_,
                                                                                 5 + 5 * round_)
            assert header["log_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
            written, writes[:] = _snapshot(path).read_bytes(), []
            log.close()
            assert _snapshot(path).read_bytes() == written and writes == []
            replay_starts.clear()
            reopened = opener(path)
            assert replay_starts == [LogPosition(path.stat().st_size, 5 + 5 * round_, 5 + 5 * round_)]
            assert state(reopened) == state(log) == full_scan(path)
            reopened.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, path.name + ".lock", _snapshot(path).name]

    @pytest.mark.parametrize("kind", ["store", "ledger"])
    def test_a_close_writes_the_snapshot_a_reopen_would(self, tmp_path, kind):
        """A close checkpoint is byte for byte the snapshot that an open
        replaying the same appends as a tail writes, an int trust put in
        the store included."""
        path, tail = tmp_path / "closed" / f"{kind}.jsonl", tmp_path / "tail" / f"{kind}.jsonl"
        opener, append, _, _ = self._log(kind)
        log = opener(path)
        for i in range(4):
            append(log, i)
        log.close()
        before = _snapshot(path).read_bytes()
        log = opener(path)
        for i in range(4, 7):
            append(log, i)
        if kind == "store":
            log.put(record(subject="dave", trust=1, at="2026-02-01T00:00:00+00:00"))
        log.close()
        tail.parent.mkdir()
        tail.write_bytes(path.read_bytes())
        _snapshot(tail).write_bytes(before)
        opener(tail)
        assert _snapshot(tail).read_bytes() == _snapshot(path).read_bytes() != before

    @pytest.mark.parametrize("kind", ["store", "ledger"])
    def test_a_snapshot_write_that_fails_midway_keeps_the_previous_one(self, tmp_path, replay_starts, monkeypatch,
                                                                        kind):
        path = tmp_path / f"{kind}.jsonl"
        opener, append, state, full_scan = self._log(kind)
        log = opener(path)
        for i in range(3):
            append(log, i)
        log.close()
        previous = _snapshot(path).read_bytes()
        log = opener(path)
        for i in range(3, 5):
            append(log, i)
        row, rows = opener._row, []

        def second_row_fails(key, value):  # the header and one row are in the temporary file by then
            rows.append(key)
            if len(rows) == 2:
                raise ValueError("row cannot be written")
            return row(key, value)

        with monkeypatch.context() as patch:
            patch.setattr(opener, "_row", staticmethod(second_row_fails))
            log.close()
        assert len(rows) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name, path.name + ".lock", _snapshot(path).name]
        assert _snapshot(path).read_bytes() == previous
        covered = _check_trailer(_snapshot(path))[0]["log_bytes"]
        replay_starts.clear()
        reopened = opener(path)
        assert replay_starts == [LogPosition(covered, 3, 3)]  # the previous snapshot, then the two appends
        assert state(reopened) == state(log) == full_scan(path)


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
# what fit wrote before it wrote the user model itself; no reader takes it now
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
        for name, text in (("fis.json", FIS_DOC), ("user.json", USER_DOC)):
            (tmp_path / name).write_text(text)
        cluster = ClusterModel(
            centers=np.array([[0.2, 0.1, 0.3, 0.5, 0.75]]),
            spreads=np.full((1, 5), 0.25),
            norm_params=((0.0, 10.0), (0.0, 10.0), (0.0, 20.0), (1.0, 101.0), (0.5, 1.0)),
            objective_trace=(0.5,),
            config=ClusterConfig(c=1),
        )
        fis = load_artifact(FuzzyInferenceSystem, tmp_path / "fis.json")
        model = load_user_model(tmp_path / "user.json")
        assert model.fis == fis == dataclasses.replace(UserTrustModel.from_cluster_model(cluster).fis, defuzz_resolution=101)
        assert model.norm_params == cluster.norm_params
        assert model.evaluate(UserBehaviorCounters("u", uar=3, bor=1, bar=2, tr=51)) == pytest.approx(0.75)

    def test_shoulder_shape_names_the_file_and_the_shape(self, tmp_path):
        # fis/1 no longer reads shoulder_left / shoulder_right sets
        path = tmp_path / "user.json"
        gaussian = '"shape": "gaussian", "center": 0.2, "sigma": 0.25'
        path.write_text(USER_DOC.replace(gaussian, '"shape": "shoulder_left", "flat_until": 0.2, "falls_to": 0.6'))
        with pytest.raises(ValueError, match="unknown membership shape 'shoulder_left'") as err:
            load_user_model(path)
        assert str(path) in str(err.value)

    def test_wrong_document_names_the_file(self, tmp_path):
        path = tmp_path / "clusters.json"
        path.write_text(CLUSTER_DOC)
        with pytest.raises(ValueError, match="user-trust-model") as err:
            load_user_model(path)
        assert str(path) in str(err.value)


class TestRefusedModelDocuments:
    """A user model the inference core cannot run is refused when it loads:
    ``load_user_model`` raises ``ValueError`` naming the file, the service
    does not start, and ``eval-user`` prints an ``error:`` line."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"center": 0.2', '"center": NaN'),
            ('"sigma": 0.25', '"sigma": Infinity'),
            ('"apex": 0.75', '"apex": "0.75"'),
            ('"domain": [0.0, 1.0]', '"domain": [-Infinity, 1.0]'),
            ('"domain": [0.0, 1.0]', '"domain": [0.0]'),
            ('"then": ["trust", "cluster_1"]', '"then": ["trust"]'),
            ('"defuzz_resolution": 101', '"defuzz_resolution": "7"'),
            ('"defuzz_resolution": 101', '"defuzz_resolution": 2.9'),
        ],
    )
    def test_refused_with_the_file_named(self, tmp_path, capsys, old, new):
        path = tmp_path / "user.json"
        assert old in USER_DOC
        path.write_text(USER_DOC.replace(old, new, 1))
        with pytest.raises(ValueError) as err:
            load_user_model(path)
        assert str(path) in str(err.value)
        with pytest.raises(ModelLoadFailureError, match="cannot load user model"):
            TrustService(ServiceConfig(store_path=str(tmp_path / "s.jsonl"), user_model_path=str(path)))
        TrustStore(tmp_path / "s.jsonl").close()  # the refused start left the store unheld
        argv = ["eval-user", "--bad", "0", "--bogus", "0", "--unauthorized", "0", "--total", "10"]
        assert cli.main(argv + ["--user-model", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
