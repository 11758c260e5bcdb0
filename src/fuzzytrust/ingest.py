"""Request-log ingestion, synthetic corpus generation and the CSV
formats shared by the fitting and evaluation pipeline.

Log CSV:     header ``timestamp,user_id,status``
             A timestamp is ISO 8601 as ``datetime.fromisoformat`` parses it
             (a naive one is taken as UTC) or Unix epoch seconds. Anything
             else, out-of-range fields such as hour 24 included, raises
             ``ParseError`` naming the file and the line.  Naive and aware
             stamps are compared on one UTC timeline, in the window test
             and for the window the counters report.
Counters CSV: header ``user_id,bad,bogus,unauthorized,total``
Corpus CSV:  header ``bad,bogus,unauthorized,total,trust`` (both read by ``read_counters_csv``)
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import EmptyWindowError, InvalidSpecError, ParseError
from .user import (
    DEFAULT_WEIGHTS,
    TrustWeights,
    UserBehaviorCounters,
    baseline_trust,
    request_rates,
)

# status -> slot in a user's tally [uar, bor, bar, tr]: 401 and 403 are
# unauthorized, 404 bogus and 400 bad; every status also adds to tr
_TALLY_SLOT = {401: 0, 403: 0, 404: 1, 400: 2}


def _parse_timestamp(text: str, path, lineno: int) -> datetime:
    """An ISO 8601 stamp as parsed, naive or aware, or epoch seconds as
    an aware UTC instant."""
    text = text.strip()
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        try:
            return datetime.fromtimestamp(float(text), tz=timezone.utc)
        except (ValueError, OverflowError, OSError):
            raise ParseError(path, lineno, f"unparseable timestamp {text!r}") from None


def _naive_bounds(start: datetime, end: datetime) -> tuple[datetime, datetime]:
    """An aware window as naive UTC wall times, the bounds naive stamps
    are compared with.  An end whose wall time lies beyond what a naive
    datetime can hold either bounds nothing or leaves no naive stamp
    inside."""
    lo = hi = None
    try:
        lo = start.astimezone(timezone.utc).replace(tzinfo=None)
    except OverflowError:
        if start.utcoffset() > timedelta(0):  # before datetime.min
            lo = datetime.min
    try:
        hi = end.astimezone(timezone.utc).replace(tzinfo=None)
    except OverflowError:
        if end.utcoffset() < timedelta(0):  # after datetime.max
            hi = datetime.max
    if lo is None or hi is None:
        return datetime.max, datetime.min  # an empty range
    return lo, hi


def _utc(moment: datetime) -> datetime:
    return moment if moment.tzinfo is not None else moment.replace(tzinfo=timezone.utc)


def ingest_log(
    path,
    window: tuple[datetime, datetime] | None = None,
) -> list[UserBehaviorCounters]:
    """Aggregate a request log into per-user counters, one per user seen
    inside the window (inclusive ends), sorted by user id.

    Statuses other than 400/401/403/404 only contribute to the total.

    Naive stamps (UTC wall time) and aware stamps are compared on one UTC
    timeline without rebuilding any row's stamp: naive ones against each
    other and against the window converted once to naive UTC, aware ones
    against each other and the aware window.  UTC is attached only to the
    extremes that become the counters' window; of equal instants the one
    on the earlier line gives the window its text.
    """
    if window is not None:
        window = (_utc(window[0]), _utc(window[1]))
        # indexed by "the stamp is aware"
        bounds = (_naive_bounds(*window), window)

    counts: dict[str, list[int]] = {}
    # per timeline, naive then aware: [earliest, its line, latest, its line]
    spans = ([None, 0, None, 0], [None, 0, None, 0])
    fromisoformat = datetime.fromisoformat
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
        last_col = max(ts_col, user_col, status_col)

        for lineno, row in enumerate(reader, start=2):
            if len(row) <= last_col:
                if all(not cell.strip() for cell in row):
                    continue
                raise ParseError(path, lineno, f"expected {len(header)} fields, got {len(row)}")
            user_id = row[user_col].strip()
            if not user_id and all(not cell.strip() for cell in row):
                continue
            try:
                ts = fromisoformat(row[ts_col])
            except ValueError:
                ts = _parse_timestamp(row[ts_col], path, lineno)
            if not user_id:
                raise ParseError(path, lineno, "empty user_id")
            try:
                status = int(row[status_col])
            except ValueError:
                raise ParseError(path, lineno, f"unparseable status {row[status_col]!r}") from None
            if not (100 <= status <= 599):
                raise ParseError(path, lineno, f"status {status} outside [100, 599]")

            aware = ts.tzinfo is not None
            if window is not None:
                lo, hi = bounds[aware]
                if not (lo <= ts <= hi):
                    continue
            span = spans[aware]
            if span[0] is None:
                span[:] = ts, lineno, ts, lineno
            elif ts < span[0]:
                span[0], span[1] = ts, lineno
            elif ts > span[2]:
                span[2], span[3] = ts, lineno
            tally = counts.get(user_id)
            if tally is None:
                tally = counts[user_id] = [0, 0, 0, 0]
            tally[3] += 1
            slot = _TALLY_SLOT.get(status)
            if slot is not None:
                tally[slot] += 1

    if not counts:
        raise EmptyWindowError("no log entries inside the requested window")
    if window is None:
        seen = [span for span in spans if span[0] is not None]
        first = min((_utc(lo), line) for lo, line, _, _ in seen)[0]
        last = max((_utc(hi), -line) for _, _, hi, line in seen)[0]
        window = (first, last)
    window_text = (window[0].isoformat(), window[1].isoformat())
    return [
        UserBehaviorCounters(user_id=user_id, window=window_text, uar=uar, bor=bor, bar=bar, tr=tr)
        for user_id, (uar, bor, bar, tr) in sorted(counts.items())
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
