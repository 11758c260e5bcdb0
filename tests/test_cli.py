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
