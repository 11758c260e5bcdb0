"""Request-log ingestion, synthetic corpus generation and the CSV
formats shared by the fitting and evaluation pipeline.

Log CSV:     header ``timestamp,user_id,status``
             A timestamp is ISO 8601 as ``datetime.fromisoformat`` parses it
             (a naive one is taken as UTC) or Unix epoch seconds. Anything
             else, out-of-range fields such as hour 24 included, raises
             ``ParseError`` naming the file and the line.
Counters CSV: header ``user_id,bad,bogus,unauthorized,total``
Corpus CSV:  header ``bad,bogus,unauthorized,total,trust`` (both read by ``read_counters_csv``)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .errors import EmptyWindowError, InvalidSpecError, ParseError
from .user import (
    DEFAULT_WEIGHTS,
    TrustWeights,
    UserBehaviorCounters,
    baseline_trust,
    request_rates,
)

BAD_STATUS = 400
UNAUTHORIZED_STATUSES = (401, 403)
BOGUS_STATUS = 404


def _parse_timestamp(text: str, path, lineno: int) -> datetime:
    text = text.strip()
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        try:
            return datetime.fromtimestamp(float(text), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise ParseError(path, lineno, f"unparseable timestamp {text!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts


def ingest_log(
    path,
    window: tuple[datetime, datetime] | None = None,
) -> list[UserBehaviorCounters]:
    """Aggregate a request log into per-user counters, one per user seen
    inside the window (inclusive ends), sorted by user id.

    Statuses other than 400/401/403/404 only contribute to the total.
    """
    if window is not None:
        start, end = window
        if start.tzinfo is None:
            start = start.replace(tzinfo=timezone.utc)
        if end.tzinfo is None:
            end = end.replace(tzinfo=timezone.utc)
        window = (start, end)

    counts: dict[str, dict[str, int]] = {}
    seen = (None, None)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError(path, 1, "empty file, expected header timestamp,user_id,status")
        header = [h.strip().lower() for h in header]
        try:
            ts_col = header.index("timestamp")
            user_col = header.index("user_id")
            status_col = header.index("status")
        except ValueError:
            raise ParseError(path, 1, "header must contain timestamp,user_id,status") from None

        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) <= max(ts_col, user_col, status_col):
                raise ParseError(path, lineno, f"expected {len(header)} fields, got {len(row)}")
            ts = _parse_timestamp(row[ts_col], path, lineno)
            user_id = row[user_col].strip()
            if not user_id:
                raise ParseError(path, lineno, "empty user_id")
            try:
                status = int(row[status_col])
            except ValueError:
                raise ParseError(path, lineno, f"unparseable status {row[status_col]!r}") from None
            if not (100 <= status <= 599):
                raise ParseError(path, lineno, f"status {status} outside [100, 599]")

            if window is not None and not (window[0] <= ts <= window[1]):
                continue
            lo, hi = seen
            seen = (ts if lo is None or ts < lo else lo, ts if hi is None or ts > hi else hi)
            user = counts.setdefault(user_id, {"uar": 0, "bor": 0, "bar": 0, "tr": 0})
            user["tr"] += 1
            if status == BAD_STATUS:
                user["bar"] += 1
            elif status in UNAUTHORIZED_STATUSES:
                user["uar"] += 1
            elif status == BOGUS_STATUS:
                user["bor"] += 1

    if not counts:
        raise EmptyWindowError("no log entries inside the requested window")
    if window is not None:
        window_text = (window[0].isoformat(), window[1].isoformat())
    else:
        window_text = (seen[0].isoformat(), seen[1].isoformat())
    return [
        UserBehaviorCounters(user_id=user_id, window=window_text, **counts[user_id])
        for user_id in sorted(counts)
    ]


@dataclass(frozen=True)
class CorpusSpec:
    """Synthetic behavior corpus: benign users draw all three malicious
    rates from ``benign_rate``; malicious users draw one dominant rate
    from ``malicious_dominant`` and the others from
    ``malicious_background``."""

    n_users: int = 1300
    n_train: int = 1000
    benign_fraction: float = 0.75
    benign_rate: tuple[float, float] = (0.0, 0.05)
    malicious_dominant: tuple[float, float] = (0.2, 0.8)
    malicious_background: tuple[float, float] = (0.0, 0.05)
    total_requests: tuple[int, int] = (50, 500)
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or not (0 <= self.n_train <= self.n_users):
            raise InvalidSpecError("need 0 <= n_train <= n_users and n_users >= 1")
        if not (0.0 <= self.benign_fraction <= 1.0):
            raise InvalidSpecError("benign_fraction must lie in [0, 1]")
        for name in ("benign_rate", "malicious_dominant", "malicious_background"):
            lo, hi = getattr(self, name)
            if not (0.0 <= lo <= hi <= 1.0):
                raise InvalidSpecError(f"{name} must satisfy 0 <= lo <= hi <= 1")
        d_hi = self.malicious_dominant[1]
        b_hi = max(self.malicious_background[1], self.benign_rate[1])
        if d_hi + 2 * b_hi > 1.0 or 3 * self.benign_rate[1] > 1.0:
            raise InvalidSpecError("rate ranges may produce more categorized requests than the total")
        if not (1 <= self.total_requests[0] <= self.total_requests[1]):
            raise InvalidSpecError("total_requests range must satisfy 1 <= lo <= hi")


def generate_corpus(spec: CorpusSpec) -> tuple[list[UserBehaviorCounters], list[UserBehaviorCounters]]:
    """Deterministic (seeded) train/test counter lists."""
    rng = np.random.default_rng(spec.seed)
    users = []
    for i in range(spec.n_users):
        benign = rng.random() < spec.benign_fraction
        if benign:
            rates = rng.uniform(spec.benign_rate[0], spec.benign_rate[1], size=3)
        else:
            rates = rng.uniform(spec.malicious_background[0], spec.malicious_background[1], size=3)
            dominant = rng.integers(0, 3)
            rates[dominant] = rng.uniform(spec.malicious_dominant[0], spec.malicious_dominant[1])
        tr = int(rng.integers(spec.total_requests[0], spec.total_requests[1] + 1))
        counts = [int(round(rate * tr)) for rate in rates]
        while sum(counts) > tr:  # rounding can overshoot at extreme rate ranges
            counts[counts.index(max(counts))] -= 1
        users.append((counts[0], counts[1], counts[2], tr))

    def build(rows, prefix):
        return [
            UserBehaviorCounters(user_id=f"{prefix}-{i + 1:04d}", uar=uar, bor=bor, bar=bar, tr=tr)
            for i, (uar, bor, bar, tr) in enumerate(rows)
        ]

    return build(users[: spec.n_train], "train"), build(users[spec.n_train :], "test")


def corpus_matrix(
    counters: list[UserBehaviorCounters],
    weights: TrustWeights = DEFAULT_WEIGHTS,
) -> np.ndarray:
    """n x 5 matrix (bad, bogus, unauthorized, total, trust) with the
    baseline trust as the label column."""
    rows = []
    for c in counters:
        trust = baseline_trust(request_rates(c), weights)
        rows.append([c.bar, c.bor, c.uar, c.tr, trust])
    return np.array(rows, dtype=float)


def write_corpus_csv(path, counters, weights: TrustWeights = DEFAULT_WEIGHTS) -> None:
    matrix = corpus_matrix(counters, weights)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bad", "bogus", "unauthorized", "total", "trust"])
        for bad, bogus, unauthorized, total, trust in matrix:
            writer.writerow([int(bad), int(bogus), int(unauthorized), int(total), repr(float(trust))])


def write_counters_csv(path, counters: list[UserBehaviorCounters]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user_id", "bad", "bogus", "unauthorized", "total"])
        for c in counters:
            writer.writerow([c.user_id, c.bar, c.bor, c.uar, c.tr])


def read_counters_csv(path) -> list[UserBehaviorCounters]:
    """Counters from a counters CSV or a corpus CSV.  Without a
    ``user_id`` column the users are named ``row-NNNN`` by data row; a
    ``trust`` column is ignored (it is recomputable from the counts)."""
    counters = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"bad", "bogus", "unauthorized", "total"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ParseError(path, 1, "header must contain bad,bogus,unauthorized,total")
        named = "user_id" in reader.fieldnames
        for lineno, row in enumerate(reader, start=2):
            try:
                counters.append(
                    UserBehaviorCounters(
                        user_id=row["user_id"] if named else f"row-{lineno - 1:04d}",
                        bar=int(row["bad"]),
                        bor=int(row["bogus"]),
                        uar=int(row["unauthorized"]),
                        tr=int(row["total"]),
                    )
                )
            except (ValueError, TypeError) as exc:
                raise ParseError(path, lineno, str(exc)) from None
    return counters
