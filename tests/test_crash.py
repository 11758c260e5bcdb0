"""Crash gate: ``fuzzytrust serve`` runs in its own process on one store
and ledger, takes traffic, and is SIGKILLed after a seeded number of
answers, with one more request sent and unanswered; five times on the same
files.  After each kill the files, reopened (through their snapshots when
those hold), keep every answered write and equal a full scan of the logs.

Nothing sleeps: the port comes from the service's first line of output
(read through a pipe, with the interpreter's output buffered), every
answered request has been read back, and each kill is waited for."""

import http.client
import json
import os
import random
import select
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

from fuzzytrust.service import FeedbackLedger
from fuzzytrust.store import TrustStore

SRC = Path(__file__).resolve().parent.parent / "src"
KILLS = 5
PROVIDERS = ("p1", "p2", "p3")
SERVE = "import sys; from fuzzytrust.cli import main; sys.exit(main(sys.argv[1:]))"


def _open_copies(directory: Path, files: list[Path]) -> tuple[TrustStore, FeedbackLedger]:
    """The store and ledger reopened from byte copies of ``files`` in
    ``directory``, so that a check writes no snapshot beside the originals."""
    directory.mkdir()
    for path in files:
        if path.exists():
            shutil.copyfile(path, directory / path.name)
    return TrustStore(directory / "store.jsonl"), FeedbackLedger(directory / "store.jsonl.feedback")


def _state(store: TrustStore, ledger: FeedbackLedger) -> tuple:
    return len(store), store._latest, len(ledger), ledger._tallies


def test_killed_service_loses_no_answered_write(tmp_path):
    path = tmp_path / "store.jsonl"
    logs = [path, tmp_path / "store.jsonl.feedback"]
    snapshots = [log.with_name(log.name + ".snapshot") for log in logs]
    rng = random.Random(22)
    decided = {}  # user id -> (trust, evaluated_at) as answered
    sent, answered = Counter(), Counter()  # feedback posts per provider
    # buffered output, as under a supervisor: the port line must come through a pipe by itself
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(SRC)}
    argv = [sys.executable, "-c", SERVE, "serve", "--store", str(path), "--port", "0"]

    for kill in range(KILLS):
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
            try:
                assert select.select([proc.stdout], [], [], 30)[0], "no port line within 30 s"
                line = proc.stdout.readline()
                assert "listening on" in line, line
                conn = http.client.HTTPConnection("127.0.0.1", int(line.rsplit(":", 1)[1]), timeout=30)
                n_answers = rng.randrange(10, 60)
                for i in range(n_answers + 1):
                    if rng.random() < 0.5:
                        user_id = f"u{kill}-{i}"
                        counts = {key: rng.randrange(0, 20) for key in ("bad", "bogus", "unauthorized")}
                        body = {"user_id": user_id, "counters": {**counts, "total": 100}}
                        conn.request("POST", "/decide", json.dumps(body))
                    else:
                        provider = rng.choice(PROVIDERS)
                        sent[provider] += 1
                        body = {"feedback": rng.choice(("positive", "negative"))}
                        conn.request("POST", f"/feedback/provider/{provider}", json.dumps(body))
                    if i == n_answers:
                        break  # in flight when the service dies
                    response = conn.getresponse()
                    answer = json.loads(response.read())
                    assert response.status == 200, answer
                    if "decision" in answer:
                        decided[user_id] = (answer["trust"], answer["evaluated_at"])
                    else:
                        answered[provider] += 1
            finally:  # also when a check above fails, so that the exit's wait returns
                proc.kill()
                proc.wait(timeout=30)
        conn.close()

        store, ledger = _open_copies(tmp_path / f"reopen{kill}", logs + snapshots)
        for user_id, (trust, evaluated_at) in decided.items():
            record = store.get("user", user_id)
            assert (record.trust, record.evaluated_at) == (trust, evaluated_at)
        for provider in PROVIDERS:
            assert answered[provider] <= sum(ledger._tallies.get(provider, ())) <= sent[provider]
        scan_store, scan_ledger = _open_copies(tmp_path / f"scan{kill}", logs)
        assert _state(store, ledger) == _state(scan_store, scan_ledger)
        for log in (store, ledger, scan_store, scan_ledger):
            log.close()
    assert decided and sum(answered.values())
