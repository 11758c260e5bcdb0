"""The package's public names and its command line, pinned: a change to
``fuzzytrust.__all__``, or a subcommand or flag added or removed, has to
change the lists here too.  Importing the package, its CLI or its service
loads no scipy: numpy is the one runtime dependency."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import fuzzytrust
from fuzzytrust import cli

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


# each subcommand's flags as argparse ``dest``s, --help aside
CLI_FLAGS = {
    "build-user-fis": ["model", "out"],
    "compare": ["out", "test", "threshold", "user_model"],
    "eval-provider": ["availability", "negative_feedback", "provider_id", "response_time", "scalability",
                      "security", "store", "threshold", "usability", "workload"],
    "eval-user": ["bad", "bogus", "store", "threshold", "total", "unauthorized", "user_id", "user_model"],
    "fit": ["clusters", "fuzzifier", "max_iter", "out", "seed", "tol", "train"],
    "gen-corpus": ["benign_fraction", "n_train", "n_users", "seed", "test_out", "train_out"],
    "ingest": ["log", "out", "window_end", "window_start"],
    "serve": ["host", "port", "store", "threshold", "user_model"],
    "surface": ["engine", "fixed", "out", "resolution", "user_model", "x", "y"],
}


def test_public_names_pinned():
    assert sorted(fuzzytrust.__all__) == PUBLIC_NAMES


def test_cli_flags_pinned():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        name: sorted(a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction))
        for name, parser in sub.choices.items()
    }
    assert flags == CLI_FLAGS
    assert (len(flags), sum(map(len, flags.values()))) == (9, 53)


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
