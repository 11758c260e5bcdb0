"""The command line, called in-process through ``cli.main``."""

import json

import pytest

from fuzzytrust import cli


def run(capsys, *argv) -> tuple[int, str, str]:
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def pipeline(tmp_path, capsys):
    """A tiny gen-corpus -> fit -> build-user-fis run; returns its files."""
    files = {name: tmp_path / name for name in ("train.csv", "test.csv", "clusters.json", "user.json")}
    for argv in (
        ("gen-corpus", "--train-out", files["train.csv"], "--test-out", files["test.csv"],
         "--n-users", 80, "--n-train", 60, "--seed", 3),
        ("fit", "--train", files["train.csv"], "--out", files["clusters.json"], "--clusters", 4, "--max-iter", 50),
        ("build-user-fis", "--model", files["clusters.json"], "--out", files["user.json"]),
    ):
        assert run(capsys, *argv)[0] == 0
    return files


def test_pipeline_compare(pipeline, capsys):
    code, out, _ = run(capsys, "compare", "--test", pipeline["test.csv"], "--user-model", pipeline["user.json"])
    assert code == 0
    report = json.loads(out[: out.rindex("}") + 1])
    assert report["n"] == 20


def test_user_model_given_as_cluster_model(pipeline, tmp_path, capsys):
    code, _, err = run(capsys, "build-user-fis", "--model", pipeline["user.json"], "--out", tmp_path / "x.json")
    assert code == 1
    assert str(pipeline["user.json"]) in err and "cluster-model" in err


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


def test_bad_log_names_the_file(tmp_path, capsys):
    log = tmp_path / "log.csv"
    log.write_text("timestamp,user_id,status\n2026-01-01T00:00:00,u1,abc\n")
    code, _, err = run(capsys, "ingest", "--log", log, "--out", tmp_path / "counters.csv")
    assert code == 1
    assert f"error: {log}, line 2: unparseable status 'abc'" in err


def test_provider_completion_strategies(tmp_path, capsys):
    metrics = ("--workload", 50, "--response-time", 20, "--scalability", 0.9, "--availability", 0.1,
               "--security", 0.5, "--usability", 0.3)
    results = {}
    for strategy in ("nearest_published", "fitted_score"):
        code, out, _ = run(capsys, "eval-provider", *metrics, "--completion", strategy)
        assert code == 0
        results[strategy] = json.loads(out)
    assert all(0.0 <= r["elasticity"] <= 1.0 for r in results.values())
    out_file = tmp_path / "grid.csv"
    code, _, _ = run(capsys, "surface", "--engine", "elasticity", "--x", "scalability", "--y", "security",
                     "--resolution", 3, "--completion", "fitted_score", "--out", out_file)
    assert code == 0 and len(out_file.read_text().splitlines()) == 10


def test_corrupt_store(tmp_path, capsys):
    store = tmp_path / "store.jsonl"
    store.write_text("{not json\n")
    code, _, err = run(capsys, "eval-user", "--bad", 0, "--bogus", 0, "--unauthorized", 0, "--total", 10,
                       "--store", store)
    assert code == 1
    assert str(store) in err and "line 1" in err


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["fit", "--no-such-flag"])
    assert exit_info.value.code == 2
