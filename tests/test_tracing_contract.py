"""The benchmark's tracer wraps the program from outside (``bench/spans.py``).

``instrument`` looks up the traced methods with ``vars(cls)[attr]`` and
notes ``len(store)`` after each store load, so renaming or moving one of
them breaks ``bench/run.py --trace 1``.  The per-engine inference spans
need each provider cascade stage and each user evaluation to go through
``FuzzyInferenceSystem.infer``.  ``instrument`` monkeypatches modules, so
the check runs in a subprocess.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
from collections import Counter

import numpy as np
from spans import Tracer, instrument
from fuzzytrust import provider, service
from fuzzytrust.clustering import ClusterConfig, ClusterModel
from fuzzytrust.store import TrustRecord
from fuzzytrust.user import UserBehaviorCounters, UserTrustModel

tracer = Tracer()
instrument(tracer)
svc = service.TrustService(service.ServiceConfig(store_path=sys.argv[1]))
svc.decide("u1", counters=UserBehaviorCounters("u1", uar=0, bor=0, bar=0, tr=10))
svc.decide("u1")
svc.store.put(TrustRecord("p1", "provider", 0.8, "trusted", "fis", "2026-01-01T00:00:00+00:00"))
svc.provider_feedback("p1", "positive")
svc.provider_trust("p1")
svc.close()
names = {span[0] for span in tracer.spans}
expected = {"store.load", "store.put", "store.get", "service.ledger_load", "service.ledger_record",
            "service.decide.fresh", "service.decide.stored", "service.provider_feedback", "service.provider_trust"}
assert expected <= names, sorted(expected - names)
assert tracer.notes["store.records_loaded"] == [0], tracer.notes

tracer.spans.clear()
provider.evaluate_provider(provider.ProviderMetrics(50.0, 20.0, 0.9, 0.1, 0.5, 0.3))
counts = Counter(span[0] for span in tracer.spans)
stages = ("fuzzy.infer.performance", "fuzzy.infer.elasticity", "fuzzy.infer.provider_trust")
assert [counts[name] for name in ("provider.evaluate_provider", *stages)] == [1, 1, 1, 1], counts
clusters = ClusterModel(
    centers=np.array([[0.05, 0.05, 0.05, 0.3, 0.9], [0.7, 0.6, 0.8, 0.7, 0.3]]),
    spreads=np.full((2, 5), 0.08),
    norm_params=((0.0, 100.0),) * 3 + ((0.0, 500.0), (0.0, 1.0)),
    objective_trace=(1.0,),
    config=ClusterConfig(c=2),
)
UserTrustModel.from_cluster_model(clusters).evaluate(UserBehaviorCounters("u2", uar=1, bor=1, bar=1, tr=50))
names = {span[0] for span in tracer.spans}
expected = {"provider.evaluate_provider", *stages, "user.evaluate", "fuzzy.infer.user", "fuzzy.aggregate",
            "fuzzy.fuzzify"}
assert expected <= names, sorted(expected - names)
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
