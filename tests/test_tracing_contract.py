"""The benchmark's tracer wraps the program from outside (``bench/spans.py``).

``instrument`` looks up the traced methods with ``vars(cls)[attr]`` and
notes ``len(store)`` after each store load, so renaming or moving one of
them breaks ``bench/run.py --trace 1``.  It monkeypatches modules, so it
runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from spans import Tracer, instrument
from fuzzytrust import service
from fuzzytrust.user import UserBehaviorCounters

tracer = Tracer()
instrument(tracer)
svc = service.TrustService(service.ServiceConfig(store_path=sys.argv[1]))
svc.decide("u1", counters=UserBehaviorCounters("u1", uar=0, bor=0, bar=0, tr=10))
svc.decide("u1")
svc.provider_feedback("p1", "positive")
svc.close()
names = {span[0] for span in tracer.spans}
expected = {"store.load", "store.put", "store.get", "service.ledger_load", "service.ledger_record",
            "service.decide.fresh", "service.decide.stored", "service.provider_feedback"}
assert expected <= names, sorted(expected - names)
assert tracer.notes["store.records_loaded"] == [0], tracer.notes
"""


def test_instrument_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")]))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path / "store.jsonl")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
