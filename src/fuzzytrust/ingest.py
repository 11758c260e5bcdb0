"""Request-log ingestion, synthetic corpus generation and the CSV
formats shared by the fitting and evaluation pipeline.

Synthetic population (``generate_corpus``): each user is benign with
probability ``CorpusSpec.benign_fraction``.  A benign user draws its
unauthorized, bogus and bad rates from ``BENIGN_RATE``; a malicious one
draws one dominant rate from ``MALICIOUS_DOMINANT`` and the other two from
``MALICIOUS_BACKGROUND``.  Every user's total is drawn from
``TOTAL_REQUESTS`` and each count is its rate times the total, rounded.
The ranges keep the three counts within the total: they sum to at most
0.9·tr + 1.5, which is at most tr for every tr >= 15.

Log CSV:     header ``timestamp,user_id,status``
             A timestamp is ISO 8601 as ``datetime.fromisoformat`` parses it
             (a naive one is taken as UTC) or Unix epoch seconds. Anything
             else, out-of-range fields such as hour 24 included, raises
             ``ParseError`` naming the file and the line.  Naive and aware
             stamps are compared on one UTC timeline, in the window test
             and for the window the counters report.
Counters CSV: header ``user_id,bad,bogus,unauthorized,total``
Corpus CSV:  header ``bad,bogus,unauthorized,total,trust`` (both read by ``read_counters_csv``)
Every CSV is UTF-8, with or without a leading byte-order mark: a byte that
is not UTF-8 raises ``ParseError`` naming the file and its line.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

from .errors import EmptyWindowError, InvalidSpecError, ParseError, ZeroTotalRequestsError
from .user import UserBehaviorCounters, baseline_trust

# status -> slot in a user's tally [uar, bor, bar, other]: 401 and 403 are
# unauthorized, 404 bogus, 400 bad and any other status (slot 3) only adds
# to the total, which is the tally's sum
_TALLY_SLOT = {401: 0, 403: 0, 404: 1, 400: 2}


@contextmanager
def _open_csv(path):
    """``path`` opened for ``csv``, a leading UTF-8 byte-order mark (as
    Excel and PowerShell write) dropped so the header's first name reads
    as written.  A byte that is not UTF-8 raises ``ParseError`` naming the
    first line that holds one, found by a binary rescan on that error
    alone: the text layer decodes chunks ahead of the reader, so the
    reader's row number does not locate the byte."""
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as bad:
                    raise ParseError(path, lineno, str(bad)) from exc
        raise  # every line decodes now: the file changed under the reader


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

    Statuses other than 400/401/403/404 only contribute to the total.  A
    window whose start is after its end, as UTC instants, raises
    ``ValueError`` naming both ends.

    Rows are tallied by their raw user-id and status text.  Each distinct
    text is checked (stripped, parsed, range-checked) once, on the first
    row that holds it, and later rows with that text take a dict lookup;
    a text that fails a check ends the ingest, so a bad row raises its
    ``ParseError`` at its line.  Raw ids that strip to one id are merged
    at the end.

    Naive stamps (UTC wall time) and aware stamps are compared on one UTC
    timeline without rebuilding any row's stamp: naive ones against each
    other and against the window converted once to naive UTC, aware ones
    against each other and the aware window.  UTC is attached only to the
    extremes that become the counters' window; of equal instants the one
    on the earlier line gives the window its text.
    """
    if window is not None:
        window = (_utc(window[0]), _utc(window[1]))
        if window[0] > window[1]:
            raise ValueError(
                f"window start {window[0].isoformat()} is after window end {window[1].isoformat()}"
            )
        # indexed by "the stamp is aware"
        bounds = (_naive_bounds(*window), window)

    # raw user-id text -> its tally [uar, bor, bar, other]; raw status text
    # -> its slot there.  Only texts that passed their checks are keys.
    tallies: dict[str, list[int]] = {}
    slots: dict[str, int] = {}
    # per timeline, naive then aware: [earliest, its line, latest, its line]
    spans = ([None, 0, None, 0], [None, 0, None, 0])
    fromisoformat = datetime.fromisoformat
    with _open_csv(path) as fh:
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
            raw_user = row[user_col]
            tally = tallies.get(raw_user)
            if tally is None:
                user_id = raw_user.strip()
                if not user_id and all(not cell.strip() for cell in row):
                    continue
            try:
                ts = fromisoformat(row[ts_col])
            except ValueError:
                ts = _parse_timestamp(row[ts_col], path, lineno)
            if tally is None:
                if not user_id:
                    raise ParseError(path, lineno, "empty user_id")
                tally = tallies[raw_user] = [0, 0, 0, 0]
            raw_status = row[status_col]
            slot = slots.get(raw_status)
            if slot is None:
                try:
                    status = int(raw_status)
                except ValueError:
                    raise ParseError(path, lineno, f"unparseable status {raw_status!r}") from None
                if not (100 <= status <= 599):
                    raise ParseError(path, lineno, f"status {status} outside [100, 599]")
                slot = slots[raw_status] = _TALLY_SLOT.get(status, 3)

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
            tally[slot] += 1

    # raw texts that strip to one id are one user; a user whose every row
    # fell outside the window has a zero tally and is left out
    counts: dict[str, list[int]] = {}
    for raw_user, tally in tallies.items():
        if any(tally):
            merged = counts.setdefault(raw_user.strip(), tally)
            if merged is not tally:
                for slot, n in enumerate(tally):
                    merged[slot] += n
    if not counts:
        raise EmptyWindowError("no log entries inside the requested window")
    if window is None:
        seen = [span for span in spans if span[0] is not None]
        first = min((_utc(lo), line) for lo, line, _, _ in seen)[0]
        last = max((_utc(hi), -line) for _, _, hi, line in seen)[0]
        window = (first, last)
    window_text = (window[0].isoformat(), window[1].isoformat())
    return [
        UserBehaviorCounters(
            user_id=user_id, window=window_text, uar=uar, bor=bor, bar=bar, tr=uar + bor + bar + other
        )
        for user_id, (uar, bor, bar, other) in sorted(counts.items())
    ]


# the synthetic population's ranges: rates per request, totals in requests
BENIGN_RATE = (0.0, 0.05)
MALICIOUS_DOMINANT = (0.2, 0.8)
MALICIOUS_BACKGROUND = (0.0, 0.05)
TOTAL_REQUESTS = (50, 500)


@dataclass(frozen=True)
class CorpusSpec:
    """Size, split, benign share and seed of a synthetic corpus; the rate
    and total ranges are the module's population constants."""

    n_users: int = 1300
    n_train: int = 1000
    benign_fraction: float = 0.75
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or not (0 <= self.n_train <= self.n_users):
            raise InvalidSpecError("need 0 <= n_train <= n_users and n_users >= 1")
        if not (0.0 <= self.benign_fraction <= 1.0):
            raise InvalidSpecError("benign_fraction must lie in [0, 1]")


def generate_corpus(spec: CorpusSpec) -> tuple[list[UserBehaviorCounters], list[UserBehaviorCounters]]:
    """Deterministic (seeded) train/test counter lists."""
    rng = np.random.default_rng(spec.seed)
    users = []
    for i in range(spec.n_users):
        benign = rng.random() < spec.benign_fraction
        if benign:
            rates = rng.uniform(*BENIGN_RATE, size=3)
        else:
            rates = rng.uniform(*MALICIOUS_BACKGROUND, size=3)
            dominant = rng.integers(0, 3)
            rates[dominant] = rng.uniform(*MALICIOUS_DOMINANT)
        tr = int(rng.integers(TOTAL_REQUESTS[0], TOTAL_REQUESTS[1] + 1))
        uar, bor, bar = (int(round(rate * tr)) for rate in rates)
        users.append((uar, bor, bar, tr))

    def build(rows, prefix):
        return [
            UserBehaviorCounters(user_id=f"{prefix}-{i + 1:04d}", uar=uar, bor=bor, bar=bar, tr=tr)
            for i, (uar, bor, bar, tr) in enumerate(rows)
        ]

    return build(users[: spec.n_train], "train"), build(users[spec.n_train :], "test")


def corpus_matrix(counters: list[UserBehaviorCounters]) -> np.ndarray:
    """n x 5 matrix (bad, bogus, unauthorized, total, trust) with the
    baseline trust as the label column."""
    return np.array([[c.bar, c.bor, c.uar, c.tr, baseline_trust(c)] for c in counters], dtype=float)


def write_corpus_csv(path, counters) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bad", "bogus", "unauthorized", "total", "trust"])
        for c in counters:
            writer.writerow([c.bar, c.bor, c.uar, c.tr, repr(baseline_trust(c))])


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
    with _open_csv(path) as fh:
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
            except (ValueError, TypeError, ZeroTotalRequestsError) as exc:
                raise ParseError(path, lineno, str(exc)) from None
    return counters
