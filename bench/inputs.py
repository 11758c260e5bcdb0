"""Seeded inputs for the benchmark, written as the files the program reads.

Everything here is derived from one ``random.Random(seed)``, so a seed
fixes every file and every request.  Alongside each file the generator
keeps its own tally (per-user counters, latest store record per subject,
feedback counts), which the workloads check the program's outputs
against.  Nothing here calls into ``fuzzytrust``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

# Population make-up: fraction of each behaviour kind.
KINDS = (
    ("benign", 0.70),
    ("single", 0.15),  # one elevated category
    ("multi", 0.10),  # two or three elevated categories
    ("saturated", 0.05),  # every request is 401/403: baseline trust exactly 0.5
)

SIZES = {
    "full": {
        "train_users": 1000,
        "train_total": (50, 150),  # requests per user in the log: ~1e5 rows
        "test_users": 2000,
        "test_total": (50, 500),
        "providers": 1000,
        "store_users": 4000,
        "store_providers": 200,
        "store_records": 100_000,
        "ledger_entries": 4000,
        "decide_rounds": 50,  # rounds of ROUND per decide_http slice
        "oracle_sample": 12,
    },
    "tiny": {
        "train_users": 60,
        "train_total": (20, 60),
        "test_users": 80,
        "test_total": (20, 200),
        "providers": 20,
        "store_users": 100,
        "store_providers": 10,
        "store_records": 1000,
        "ledger_entries": 100,
        "decide_rounds": 3,
        "oracle_sample": 3,
    },
}

LOG_FILE = "requests.csv"
STORE_FILE = "store.jsonl"
LEDGER_FILE = "feedback.jsonl"
LOG_START = datetime(2026, 1, 1)
STORE_START = datetime(2000, 1, 1, tzinfo=timezone.utc)  # before any live decision
UNAUTHORIZED = (401, 403)
OTHER_STATUSES = (200, 200, 200, 201, 204, 302, 500)
STORE_MODELS = ("baseline", "fis")


def draw_counts(rng: random.Random, kind: str, total: int) -> tuple[int, int, int]:
    """(unauthorized, bogus, bad) request counts for one user of ``kind``."""
    if kind == "saturated":
        return total, 0, 0
    rates = [rng.uniform(0.0, 0.05) for _ in range(3)]
    if kind == "single":
        rates[rng.randrange(3)] = rng.uniform(0.2, 0.8)
    elif kind == "multi":
        elevated = rng.sample(range(3), rng.choice((2, 3)))
        for i in elevated:
            rates[i] = rng.uniform(0.15, 0.9 / len(elevated))
    counts = [min(int(rate * total), total) for rate in rates]
    while sum(counts) > total:
        counts[counts.index(max(counts))] -= 1
    return counts[0], counts[1], counts[2]


def draw_user(rng: random.Random, total_range: tuple[int, int]) -> tuple[str, int, int, int, int]:
    """(kind, uar, bor, bar, tr) for one user drawn from the population."""
    pick = rng.random()
    for kind, share in KINDS:
        pick -= share
        if pick < 0.0:
            break
    total = rng.randint(*total_range)
    uar, bor, bar = draw_counts(rng, kind, total)
    return kind, uar, bor, bar, total


def baseline(uar: int, bor: int, bar: int, tr: int) -> float:
    """1 - (0.5*UARR + 0.2*BORR + 0.3*BARR), the paper's weighted-rate trust."""
    return 1.0 - (0.5 * (uar / tr) + 0.2 * (bor / tr) + 0.3 * (bar / tr))


@dataclass
class Inputs:
    log_path: Path
    log_rows: int
    log_counts: dict[str, tuple[int, int, int, int]]  # user -> (uar, bor, bar, tr)
    log_window: tuple[str, str]
    test_users: list[tuple[str, int, int, int, int]]  # (user, uar, bor, bar, tr)
    providers: list[tuple[float, float, float, float, float, float]]
    users: list[str]  # user ids in the store
    banned: set[str]
    provider_ids: list[str]  # provider ids in the store
    latest: dict[str, dict]  # subject -> latest record in the store
    feedback: dict[str, list[int]]  # provider -> [positive, negative] in the ledger


def write_log(rng: random.Random, size: dict, path: Path):
    """Request log ``timestamp,user_id,status`` for the training users,
    rows of all users interleaved, one second apart."""
    statuses = []
    counts = {}
    for i in range(size["train_users"]):
        user = f"u-{i + 1:05d}"
        _, uar, bor, bar, tr = draw_user(rng, size["train_total"])
        counts[user] = (uar, bor, bar, tr)
        statuses += [(user, rng.choice(UNAUTHORIZED)) for _ in range(uar)]
        statuses += [(user, 404)] * bor + [(user, 400)] * bar
        statuses += [(user, rng.choice(OTHER_STATUSES)) for _ in range(tr - uar - bor - bar)]
    rng.shuffle(statuses)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("timestamp,user_id,status\n")
        for k, (user, status) in enumerate(statuses):
            fh.write(f"{(LOG_START + timedelta(seconds=k)).isoformat()},{user},{status}\n")
    first = LOG_START.replace(tzinfo=timezone.utc)
    last = first + timedelta(seconds=len(statuses) - 1)
    return len(statuses), counts, (first.isoformat(), last.isoformat())


def generate(seed: int, size: dict, root: Path) -> Inputs:
    rng = random.Random(seed)

    log_path = root / LOG_FILE
    log_rows, log_counts, log_window = write_log(rng, size, log_path)

    test_users = []
    for i in range(size["test_users"]):
        _, uar, bor, bar, tr = draw_user(rng, size["test_total"])
        test_users.append((f"t-{i + 1:05d}", uar, bor, bar, tr))

    providers = [
        (rng.uniform(0, 100), rng.uniform(0, 100), rng.random(), rng.random(), rng.random(), rng.random())
        for _ in range(size["providers"])
    ]

    users = [f"u-{i + 1:05d}" for i in range(size["store_users"])]
    banned = set(rng.sample(users, len(users) // 20))
    provider_ids = [f"p-{i + 1:04d}" for i in range(size["store_providers"])]
    subjects = users + provider_ids
    # one record per subject, then history spread over random subjects
    order = subjects + [rng.choice(subjects) for _ in range(size["store_records"] - len(subjects))]
    latest = {}
    with open(root / STORE_FILE, "w", encoding="utf-8") as fh:
        for k, subject in enumerate(order):
            trust = rng.random()
            kind = "provider" if subject.startswith("p-") else "user"
            if subject in banned:
                classification = "banned"
            else:
                classification = "trusted" if trust > 0.5 else "untrusted"
            record = {
                "v": 1,
                "subject_id": subject,
                "subject_kind": kind,
                "trust": trust,
                "classification": classification,
                "model": rng.choice(STORE_MODELS),
                "evaluated_at": (STORE_START + timedelta(seconds=k)).isoformat(),
            }
            fh.write(json.dumps(record) + "\n")
            latest[subject] = record

    negative_share = {p: rng.uniform(0.0, 0.7) for p in provider_ids}
    feedback = {p: [0, 0] for p in provider_ids}
    with open(root / LEDGER_FILE, "w", encoding="utf-8") as fh:
        for k in range(size["ledger_entries"]):
            provider = rng.choice(provider_ids)
            negative = rng.random() < negative_share[provider]
            feedback[provider][int(negative)] += 1
            entry = {
                "v": 1,
                "provider_id": provider,
                "feedback": "negative" if negative else "positive",
                "at": (STORE_START + timedelta(seconds=k)).isoformat(),
            }
            fh.write(json.dumps(entry) + "\n")

    return Inputs(
        log_path=log_path,
        log_rows=log_rows,
        log_counts=log_counts,
        log_window=log_window,
        test_users=test_users,
        providers=providers,
        users=users,
        banned=banned,
        provider_ids=provider_ids,
        latest=latest,
        feedback=feedback,
    )
