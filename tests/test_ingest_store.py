import dataclasses
import json
import random
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given
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
from fuzzytrust.store import TrustRecord, TrustStore, load_artifact
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
        assert store.get("user", "alice") == rec

    def test_latest_timestamp_wins(self, tmp_path):
        store = TrustStore(tmp_path / "store.jsonl")
        store.put(record(trust=0.2, at="2026-01-01T00:00:00+00:00"))
        store.put(record(trust=0.8, at="2026-01-02T00:00:00+00:00"))
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
        TrustStore(path).put(record())
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

