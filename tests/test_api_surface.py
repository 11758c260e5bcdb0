"""The package's public names, pinned: a change to ``fuzzytrust.__all__``
has to change this list too.  Importing the package, its CLI or its
service loads no scipy: numpy is the one runtime dependency."""

import os
import subprocess
import sys
from pathlib import Path

import fuzzytrust

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC_NAMES = [
    "ClusterConfig",
    "ClusterModel",
    "CorpusSpec",
    "EvaluationReport",
    "FuzzyInferenceSystem",
    "FuzzyRule",
    "FuzzyTrustError",
    "Gaussian",
    "LinguisticVariable",
    "MembershipFunction",
    "ProviderMetrics",
    "Triangular",
    "TrustRecord",
    "TrustStore",
    "TwoSidedGaussian",
    "UserBehaviorCounters",
    "UserTrustModel",
    "baseline_trust",
    "build_elasticity_fis",
    "build_performance_fis",
    "build_provider_trust_fis",
    "build_user_fis",
    "classification_metrics",
    "classify",
    "compare",
    "evaluate_provider",
    "fcm_fit",
    "feedback_ban",
    "fit_user_clusters",
    "generate_corpus",
    "ingest_log",
    "normalize",
]


def test_public_names_pinned():
    assert sorted(fuzzytrust.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in fuzzytrust.__all__ if not hasattr(fuzzytrust, name)]
    assert missing == []


def test_importing_the_package_loads_no_scipy():
    script = (
        "import sys, fuzzytrust, fuzzytrust.cli, fuzzytrust.service\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
