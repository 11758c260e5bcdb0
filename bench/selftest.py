"""The benchmark's own test: every workload at tiny size, end to end.

    python3 bench/selftest.py

Runs each workload with ``--size tiny``, untraced and traced, with every
output check of the full benchmark, and validates the form of each
result line and result file against BENCHMARK.json.  Then it runs the
benchmark from a directory that holds only BENCHMARK.json and bench/,
where it must fail without printing a result.  Exits 0 when all holds.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ENVIRONMENT = {"git_revision", "source_sha256", "python", "numpy", "scipy", "nproc", "cpus_usable"}


def check_spec(spec: dict, problems: list[str]) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(set(names)) != len(names) or not all(NAME.fullmatch(n) for n in names):
        problems.append("BENCHMARK.json: names must be unique and well formed")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"BENCHMARK.json: end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append(f"BENCHMARK.json: per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"BENCHMARK.json: unit or direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("BENCHMARK.json: setup_s missing or malformed")


def check_run(spec: dict, workload: str, trace: int, problems: list[str]) -> None:
    label = f"{workload} trace={trace}"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-2000:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return
    if result["correct"] is not True:
        problems.append(f"{label}: a check failed:\n{proc.stdout}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1 and result["failed"] == 0):
        problems.append(f"{label}: attempted {result['attempted']} failed {result['failed']}")
    listed = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in listed}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
        return
    for m in listed:
        got = result["metrics"][m["name"]]
        value = got.get("value")
        if got.get("unit") != m["unit"] or type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {got}")
        elif not trace and value <= 0:
            problems.append(f"{label}: {m['name']} is not positive: {value}")
    record_path = BENCH / "results" / f"{workload}-seed7-trace{trace}-tiny.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    if set(record["environment"]) != ENVIRONMENT or "steal_ticks" not in record["host"]["end"]:
        problems.append(f"{label}: environment record {record['environment']} {record['host']}")
    if not record["host"]["reference_s"] or not all(t > 0 for t in record["host"]["reference_s"]):
        problems.append(f"{label}: reference-job timings {record['host']['reference_s']}")
    if not trace and not set(result["metrics"]) <= set(record["unscaled_metrics"]):
        problems.append(f"{label}: unscaled figures missing: {sorted(record['unscaled_metrics'])}")


def check_refuses_without_program(problems: list[str]) -> None:
    isolated = BENCH / ".work" / "selftest-isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    shutil.copytree(BENCH, isolated / "bench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", isolated)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "retrain", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=isolated, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(isolated, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append(f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_spec(spec, problems)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace, problems)
    check_refuses_without_program(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
