"""The package's public names, its command line, its config objects'
fields and its on-disk format versions, pinned: a change to
``fuzzytrust.__all__``, a subcommand, flag or config field added or
removed, or a format version bumped, has to change the lists here too,
and the CLI's docstring lists exactly the subcommands pinned here.
Importing the package, its CLI or its service loads no scipy: numpy is the
one runtime dependency.  Nor does importing the service load the stdlib's
HTTP server, its ``email`` header parser or ``asyncio``: the service parses
requests itself, and each of those would add to its resident memory."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import fuzzytrust
from fuzzytrust import cli
from fuzzytrust.evaluation import compare
from fuzzytrust.service import ServiceConfig, TrustService
from fuzzytrust.user import UserBehaviorCounters

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


# each config object's fields, in declaration order
CONFIG_FIELDS = {
    ServiceConfig: ["store_path", "feedback_path", "user_model_path", "threshold", "host", "port"],
    fuzzytrust.ClusterConfig: ["c", "m", "tol", "max_iter", "seed"],
    fuzzytrust.CorpusSpec: ["n_users", "n_train", "benign_fraction", "seed"],
}


# the (format, version) each writer stamps; a change here goes with one to
# the list of on-disk formats in ROADMAP.md's design pillar
FORMATS = {
    "fis": 1,
    "user-trust-model": 1,
    "evaluation-report": 1,
    "store record v": 1,
    "ledger line v": 1,
    "store-snapshot": 5,
    "ledger-snapshot": 4,
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
    assert (len(flags), sum(map(len, flags.values()))) == (8, 51)


def test_cli_docstring_lists_every_subcommand():
    documented = re.findall(r"^ +fuzzytrust (\S+) ", cli.__doc__, re.MULTILINE)
    assert sorted(documented) == sorted(CLI_FLAGS)


def test_config_fields_pinned():
    fields = {config: [f.name for f in dataclasses.fields(config)] for config in CONFIG_FIELDS}
    assert fields == CONFIG_FIELDS
    assert [len(names) for names in fields.values()] == [6, 5, 4]


def test_on_disk_formats_pinned(tmp_path, two_cluster_user_model):
    counters = UserBehaviorCounters(user_id="u1", uar=1, bor=0, bar=0, tr=10)
    documents = [two_cluster_user_model.fis, two_cluster_user_model, compare([counters], two_cluster_user_model)]
    stamped = {data["format"]: data["version"] for data in (doc.to_dict() for doc in documents)}
    store = tmp_path / "store.jsonl"
    service = TrustService(ServiceConfig(store_path=str(store)))
    service.decide("u1", counters)
    service.provider_feedback("p1", "negative")
    service.close()
    TrustService(ServiceConfig(store_path=str(store))).close()  # writes both snapshots
    stamped["store record v"] = json.loads(store.read_text())["v"]
    stamped["ledger line v"] = json.loads((tmp_path / "store.jsonl.feedback").read_text())["v"]
    for snapshot in ("store.jsonl.snapshot", "store.jsonl.feedback.snapshot"):
        header = json.loads((tmp_path / snapshot).read_text().splitlines()[0])
        stamped[header["format"]] = header["version"]
    assert stamped == FORMATS


def test_every_public_name_resolves():
    missing = [name for name in fuzzytrust.__all__ if not hasattr(fuzzytrust, name)]
    assert missing == []


def _assert_loads_none(imports: str, names: tuple[str, ...]) -> None:
    """``import <imports>``, in a fresh interpreter, loads no module named in
    ``names`` and none inside a package named there."""
    script = (
        f"import sys, {imports}\n"
        f"loaded = sorted(m for m in sys.modules if m in {names!r} or m.split('.')[0] in {names!r})\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_importing_the_package_loads_no_scipy():
    _assert_loads_none("fuzzytrust, fuzzytrust.cli, fuzzytrust.service", ("scipy",))


def test_importing_the_service_loads_no_stdlib_server_or_asyncio():
    _assert_loads_none("fuzzytrust.service", ("http.server", "email.parser", "asyncio"))
