"""The command line, called in-process through ``cli.main``."""

import argparse
import contextlib
import csv
import json

import pytest

from fuzzytrust import cli, ingest, provider, service, user
from fuzzytrust.clustering import ClusterConfig
from fuzzytrust.service import ServiceConfig, TrustService
from fuzzytrust.store import TrustRecord, TrustStore
from fuzzytrust.user import baseline_trust


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pipeline(tmp_path, capsys):
    """A tiny gen-corpus -> fit run; returns its files."""
    files = {name: tmp_path / name for name in ("train.csv", "test.csv", "user.json")}
    for argv in (
        ("gen-corpus", "--train-out", files["train.csv"], "--test-out", files["test.csv"],
         "--n-users", 80, "--n-train", 60, "--seed", 3),
        ("fit", "--train", files["train.csv"], "--out", files["user.json"], "--clusters", 4, "--max-iter", 50),
    ):
        assert run(capsys, *argv)[0] == 0
    return files


def test_fit_writes_the_library_paths_user_model(pipeline, tmp_path):
    counters = ingest.read_counters_csv(pipeline["train.csv"])
    clusters = user.fit_user_clusters(ingest.corpus_matrix(counters), ClusterConfig(c=4, max_iter=50))
    library = tmp_path / "library.json"
    user.save_user_model(user.UserTrustModel.from_cluster_model(clusters), library)
    assert pipeline["user.json"].read_bytes() == library.read_bytes()


def test_pipeline_compare(pipeline, tmp_path, capsys):
    full = tmp_path / "report.json"
    code, out, _ = run(capsys, "compare", "--test", pipeline["test.csv"], "--user-model", pipeline["user.json"],
                       "--out", full)
    assert code == 0
    report = json.loads(out)  # stdout is one JSON document and nothing else
    assert report["n"] == 20
    assert report["mae_pct"] == 100 * report["mae"] and report["rmse_pct"] == 100 * report["rmse"]
    written = json.loads(full.read_text())  # --out adds the per-user rows
    assert len(written.pop("rows")) == 20 and written == report


def test_eval_user_with_a_fitted_model(pipeline, capsys):
    counters = user.UserBehaviorCounters("cli-user", uar=3, bor=1, bar=2, tr=40)
    code, out, _ = run(capsys, "eval-user", "--bad", 2, "--bogus", 1, "--unauthorized", 3, "--total", 40,
                       "--user-model", pipeline["user.json"])
    record = json.loads(out)
    assert code == 0 and (record["model"], record["subject_id"]) == ("fis", "cli-user")
    trust = user.load_user_model(pipeline["user.json"]).evaluate(counters)
    assert record["trust"] == trust != baseline_trust(counters)
    assert record["classification"] == user.classify(trust)


def test_corpus_trust_column_is_the_baseline(pipeline):
    counters = ingest.read_counters_csv(pipeline["train.csv"])
    with open(pipeline["train.csv"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(counters) == 60
    for row, c in zip(rows, counters):
        assert float(row["trust"]) == baseline_trust(c)


def test_user_model_with_nan_norm_params(pipeline, tmp_path, capsys):
    document = json.loads(pipeline["user.json"].read_text())
    document["norm_params"][0] = [5.0, float("nan")]
    model = tmp_path / "nan.json"
    model.write_text(json.dumps(document))
    code, out, err = run(capsys, "eval-user", "--bad", 0, "--bogus", 0, "--unauthorized", 1, "--total", 10,
                         "--user-model", model)
    assert (code, out) == (1, "")
    assert f"error: {model}: ValueError: norm_params[0] must be a finite" in err


def test_user_model_given_as_cluster_model(tmp_path, capsys):
    # what fit wrote before it wrote the user model itself
    clusters = tmp_path / "clusters.json"
    clusters.write_text(json.dumps({
        "format": "cluster-model", "version": 1, "centers": [[0.2, 0.1, 0.3, 0.5, 0.75]],
        "spreads": [[0.25] * 5], "norm_params": [[0.0, 1.0]] * 5, "m": 2.0, "objective_trace": [0.5],
        "config": {"c": 1, "m": 2.0, "tol": 1e-06, "max_iter": 300, "seed": 0},
    }))
    code, out, err = run(capsys, "eval-user", "--bad", 0, "--bogus", 0, "--unauthorized", 1, "--total", 10,
                         "--user-model", clusters)
    assert (code, out) == (1, "")
    assert f"error: {clusters}: ValueError: not a user-trust-model document" in err


def test_header_only_corpus(pipeline, tmp_path, capsys):
    corpus = tmp_path / "empty.csv"
    corpus.write_text("bad,bogus,unauthorized,total,trust\n")
    code, _, err = run(capsys, "compare", "--test", corpus, "--user-model", pipeline["user.json"])
    assert code == 1
    assert str(corpus) in err


def test_bad_test_csv_names_the_file(pipeline, tmp_path, capsys):
    corpus = tmp_path / "bad.csv"
    corpus.write_text("bad,bogus,unauthorized,total,trust\n0,x,0,10,1.0\n")
    code, _, err = run(capsys, "compare", "--test", corpus, "--user-model", pipeline["user.json"])
    assert code == 1
    assert f"error: {corpus}, line 2: " in err


def test_fit_names_the_line_of_a_zero_total_row(tmp_path, capsys):
    train = tmp_path / "train.csv"
    train.write_text("bad,bogus,unauthorized,total,trust\n1,0,0,10,0.97\n0,0,0,0,1.0\n")
    out = tmp_path / "user.json"
    code, _, err = run(capsys, "fit", "--train", train, "--out", out)
    assert code == 1 and not out.exists()
    assert err == f"error: {train}, line 3: user 'row-0002' has no requests in the window\n"


def test_eval_user_refuses_a_zero_total(capsys):
    code, out, err = run(capsys, "eval-user", "--user-id", "idle", "--bad", 0, "--bogus", 0, "--unauthorized", 0,
                         "--total", 0)
    assert (code, out) == (1, "")
    assert err == "error: user 'idle' has no requests in the window\n"


def test_ingest_counts_only_the_window(tmp_path, capsys):
    log, out = tmp_path / "log.csv", tmp_path / "counters.csv"
    log.write_text("timestamp,user_id,status\n2026-01-01T00:00:00,u1,401\n2026-01-02T00:00:00,u1,404\n"
                   "2026-01-03T00:00:00,u2,200\n2026-01-04T00:00:00,u1,400\n")
    code, stdout, _ = run(capsys, "ingest", "--log", log, "--out", out,
                          "--window-start", "2026-01-02T00:00:00", "--window-end", "2026-01-03T00:00:00")
    assert code == 0 and stdout == f"wrote 2 user counter rows to {out}\n"
    assert [(c.user_id, c.uar, c.bor, c.bar, c.tr) for c in ingest.read_counters_csv(out)] == [
        ("u1", 0, 1, 0, 1), ("u2", 0, 0, 0, 1)
    ]


def test_ingest_refuses_a_window_that_ends_before_it_starts(tmp_path, capsys):
    log, out = tmp_path / "log.csv", tmp_path / "counters.csv"
    log.write_text("timestamp,user_id,status\n2026-01-02T00:00:00,u1,401\n")
    code, stdout, err = run(capsys, "ingest", "--log", log, "--out", out,
                            "--window-start", "2026-01-03", "--window-end", "2026-01-01")
    assert (code, stdout) == (1, "")
    assert err == "error: window start 2026-01-03T00:00:00+00:00 is after window end 2026-01-01T00:00:00+00:00\n"
    assert not out.exists()


def test_bad_log_names_the_file(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,user_id,status\n2026-01-01T00:00:00,u1,abc\n")
    code, _, err = run(capsys, "ingest", "--log", log, "--out", tmp_path / "counters.csv")
    assert code == 1
    assert f"error: {log}, line 2: unparseable status 'abc'" in err


PROVIDER_METRICS = {"workload": 50.0, "response_time": 20.0, "scalability": 0.9, "availability": 0.1,
                    "security": 0.5, "usability": 0.3}
PROVIDER_FLAGS = [arg for name, value in PROVIDER_METRICS.items() for arg in (f"--{name.replace('_', '-')}", value)]


def test_eval_provider_and_elasticity_surface(tmp_path, capsys):
    code, out, _ = run(capsys, "eval-provider", *PROVIDER_FLAGS)
    assert code == 0
    result = json.loads(out)
    expected = provider.evaluate_provider(provider.ProviderMetrics(**PROVIDER_METRICS))
    assert (result["performance"], result["elasticity"], result["trust"]) == (
        expected.performance, expected.elasticity, expected.trust
    )
    out_file = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "surface", "--engine", "elasticity", "--x", "scalability", "--y", "security",
                     "--resolution", 3, "--out", out_file)
    assert code == 0 and len(out_file.read_text().splitlines()) == 10
    code, _, _ = run(capsys, "surface", "--engine", "elasticity", "--x", "scalability", "--y", "security",
                     "--fixed", "availability=0.9", "--fixed", "usability=0.1", "--resolution", 3, "--out", out_file)
    x, y, z = map(float, out_file.read_text().splitlines()[1].split(","))
    inputs = {"scalability": x, "security": y, "availability": 0.9, "usability": 0.1}
    assert code == 0 and z == provider.build_elasticity_fis().infer(inputs)


def test_store_writes_keep_a_stored_ban(tmp_path, capsys):
    store_path = tmp_path / "store.jsonl"
    with contextlib.closing(TrustStore(store_path)) as store:
        for subject_id, kind in (("u1", "user"), ("p1", "provider")):
            store.put(TrustRecord(subject_id, kind, 0.9, "banned", "fis", "2026-01-01T00:00:00+00:00"))
    code, out, _ = run(capsys, "eval-user", "--user-id", "u1", "--bad", 0, "--bogus", 0, "--unauthorized", 0,
                       "--total", 100, "--store", store_path)
    assert code == 0 and json.loads(out)["classification"] == "banned"
    code, out, _ = run(capsys, "eval-provider", "--provider-id", "p1", *PROVIDER_FLAGS, "--store", store_path)
    result = json.loads(out)
    assert code == 0 and (result["banned"], result["trust"]) == (True, 0.0)
    with contextlib.closing(TrustService(ServiceConfig(store_path=str(store_path)))) as svc:
        assert svc.decide("u1")["decision"] == "deny"
        assert svc.provider_trust("p1")["banned"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--engine", "elasticity", "--user-model", "user.json"],
        ["surface"],
        ["surface", "--engine", "performance", "--fixed", "workload"],
        ["ingest", "--window-start", "2026-01-01T00:00:00"],
        ["ingest", "--window-end", "2026-01-01T00:00:00"],
        ["serve", "--port", "0"],
    ],
    ids=["surface-both-engines", "surface-no-engine", "surface-fixed-without-value",
         "ingest-start-only", "ingest-end-only", "serve-no-store"],
)
def test_usage_errors_exit_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(service, "serve", lambda config: pytest.fail("the service was started"))
    if argv[0] == "surface":
        argv = argv + ["--x", "workload", "--y", "response_time", "--out", tmp_path / "grid.csv"]
    elif argv[0] == "ingest":
        argv = argv + ["--log", tmp_path / "log.csv", "--out", tmp_path / "counters.csv"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main([str(a) for a in argv])
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


BASELINE_09 = ["--bad", 0, "--bogus", 0, "--unauthorized", 20, "--total", 100]  # baseline trust 0.9


def test_eval_user_threshold(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    code, out, _ = run(capsys, "eval-user", *BASELINE_09, "--store", store)
    assert code == 0 and (json.loads(out)["classification"], json.loads(out)["trust"]) == ("trusted", 0.9)
    code, out, _ = run(capsys, "eval-user", *BASELINE_09, "--store", store, "--threshold", 0.95)
    assert code == 0 and json.loads(out)["classification"] == "untrusted"
    lines = store.read_text().splitlines()
    assert [(json.loads(line)["trust"], json.loads(line)["classification"]) for line in lines] == [
        (0.9, "trusted"), (0.9, "untrusted")
    ]


@pytest.mark.parametrize(
    "argv, message",
    [(["serve", "--port", 0, "--threshold", 1.5], "threshold must lie in [0, 1]"),
     (["serve", "--port", 0, "--threshold", "nan"], "threshold must lie in [0, 1]"),
     (["eval-user", *BASELINE_09, "--threshold", -0.1], "trust and threshold must lie in [0, 1]"),
     (["serve", "--port", 99999], "port must lie in 0..65535"),
     (["serve", "--port", -1], "port must lie in 0..65535"),
     (["eval-provider", *PROVIDER_FLAGS, "--threshold", 1.5], "trust and threshold must lie in [0, 1]"),
     (["eval-provider", *PROVIDER_FLAGS, "--negative-feedback", 2.0], "negative feedback ratio must be in [0, 1]")],
    ids=["serve-above-1", "serve-nan", "eval-user-below-0", "serve-port-above-65535", "serve-port-negative",
         "eval-provider-above-1-without-store", "eval-provider-feedback-above-1-without-store"],
)
def test_threshold_outside_unit_interval_exits_1(tmp_path, capsys, monkeypatch, argv, message):
    """A threshold, port or feedback ratio out of range is an error line, before any bind."""
    monkeypatch.setattr(service, "serve", lambda config: pytest.fail("the service was started"))
    store = tmp_path / "store.jsonl"
    if argv[0] != "eval-provider":  # those cases run without --store
        argv = [*argv, "--store", store]
    code, _, err = run(capsys, *argv)
    assert code == 1 and f"error: {message}" in err
    assert not store.exists()


SUBCOMMANDS = sorted(
    next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
)


@pytest.mark.parametrize("command", [[]] + [[name] for name in SUBCOMMANDS], ids=["top", *SUBCOMMANDS])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(command + ["--help"])
    assert exit_info.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_corrupt_store(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    store.write_text("{not json\n")
    code, _, err = run(capsys, "eval-user", "--bad", 0, "--bogus", 0, "--unauthorized", 0, "--total", 10,
                       "--store", store)
    assert code == 1
    assert str(store) in err and "line 1" in err


@pytest.mark.parametrize("command", ["eval-user", "eval-provider"])
def test_a_store_a_service_holds_is_refused(tmp_path, capsys, command):
    """While a service holds the store, a CLI write to it exits 1 naming the
    log and leaves every file as it was."""
    store = tmp_path / "store.jsonl"
    flags = {"eval-user": ["--bad", 0, "--bogus", 0, "--unauthorized", 0, "--total", 10],
             "eval-provider": PROVIDER_FLAGS}[command]
    with contextlib.closing(TrustService(ServiceConfig(store_path=str(store)))) as svc:
        svc.store.put(TrustRecord("u1", "user", 0.9, "trusted", "fis", "2026-01-01T00:00:00+00:00"))
        before = {file.name: file.read_bytes() for file in tmp_path.iterdir()}
        code, out, err = run(capsys, command, *flags, "--store", store)
        assert (code, out) == (1, "") and err == f"error: {store}: another writer holds it\n"
        assert {file.name: file.read_bytes() for file in tmp_path.iterdir()} == before


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fit", "--no-such-flag"])
    assert exit_info.value.code == 2
