"""The fuzzytrust benchmark: one run of one workload.

    python3 bench/run.py --workload decide_http --seed 1 --seconds 30 --trace 0

Every run generates its inputs from ``--seed`` (see inputs.py) and then
repeats one cycle until ``--seconds`` would be exceeded (whole cycles
only).  A cycle restarts the service once (one set-up) and runs slices
of the three phases; the phase named by ``--workload`` gets two slices,
each other phase one, so every run reports every end-to-end metric and
every metric samples the whole run.

    decide_http  TrustService in its own process; one closed-loop client
                 sends ``decide_rounds`` rounds of ROUND over loopback HTTP.
    retrain      request log -> counters -> FCM fit -> user model file.
    score_batch  load_user_model + compare over the test population, and
                 the provider cascade over the provider snapshots.

The program's work is timed in short steps between timings of a fixed
reference job (hostspeed.py), and the end-to-end metrics are its times
scaled to a host of fixed speed; the unscaled figures go to the result
file.  While the cycles run, this process and the service share one CPU.

Every output is checked against the benchmark's own computations and
tests/oracles.py.  With ``--trace 1`` the timing wrappers of spans.py are
installed in both processes and the per-layer metrics are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full result,
with the environment record and the raw samples, is written under
bench/results/.  ``--size tiny`` runs the same checks on small inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
from hostspeed import Gauge, single, total
from spans import Tracer, durations, instrument

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("decide_http", "retrain", "score_batch")

THRESHOLD = 0.5  # ServiceConfig and compare defaults
BAN_RATIO = 0.40
RETRAIN_CLUSTERS = dict(c=25, seed=0, max_iter=120, tol=1e-300)  # fixed work per fit
MODEL_FILE = "model.json"
SLICES = {True: 2, False: 1}  # slices per cycle of the named phase and of each other one
ROUND = "FFSFFBFFPF"  # fresh decide, stored decide, feedback post, provider read
ROUNDS_PER_STEP = 10
USERS_PER_STEP = 500
PROVIDERS_PER_STEP = 250
NEGATIVE_FEEDBACK = 0.35
ORACLE_SAMPLES = 200_000
ORACLE_TOLERANCE = 1e-3  # share of the output span, which is [0, 1] for every engine
MAX_PROBLEMS = 20


class Outcome:
    """Operations attempted and failed, and every check that did not hold."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = 0  # failure events; one can fail several operations
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < MAX_PROBLEMS:
            self.problems.append(message)

    def fail(self, what: str, exc: BaseException, operations: int = 1) -> None:
        self.failed += operations
        self.failures += 1
        if self.failures <= 5:
            print(f"failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def median(values) -> float:
    return float(statistics.median(values))


def scaled(timings) -> list[float]:
    """The scaled times of (seconds, scaled seconds) pairs; see hostspeed.py."""
    return [t[1] for t in timings]


def unscaled(timings) -> list[float]:
    return [t[0] for t in timings]


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def host_sample() -> dict:
    """Steal ticks (all CPUs) and load average, read from /proc."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = fh.readline().split()
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = [float(v) for v in fh.read().split()[:3]]
    return {"steal_ticks": int(fields[8]) if len(fields) > 8 else None, "loadavg": load}


def environment() -> dict:
    import numpy
    import scipy

    git_rev = None
    if (ROOT / ".git").exists():  # not an enclosing repository's revision
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            git_rev = rev.stdout.strip() if rev.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": git_rev,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


# --------------------------------------------------------------------------
# the three phases


class ServiceProcess:
    """service_proc.py as a child process, driven line by line.

    The service runs on one CPU, and main() moves the benchmark process
    onto the same one for the timed cycles.  In a closed loop client and
    service take turns anyway; a wake-up across CPUs waits for the other
    virtual CPU to be scheduled, which on a shared host varied the request
    rate far more than the program did.  And the reference job then runs
    on the CPU that does the work it scales.
    """

    def __init__(self, workdir: Path, trace: int):
        self.report_path = workdir / "service-report.json"
        self.cpu = max(os.sched_getaffinity(0))
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(BENCH / "service_proc.py"),
                "--src", str(ROOT / "src"),
                "--store", str(workdir / inputs.STORE_FILE),
                "--feedback", str(workdir / inputs.LEDGER_FILE),
                "--model", str(workdir / MODEL_FILE),
                "--trace", str(trace),
                "--report", str(self.report_path),
                "--cpu", str(self.cpu),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def expect(self, prefix: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError(f"service process said {line!r}, expected {prefix!r}")
        return line[len(prefix):].strip()

    def send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def finish(self) -> dict:
        self.proc.stdin.close()
        if self.proc.wait(timeout=60) != 0:
            raise RuntimeError(f"service process exited with {self.proc.returncode}")
        return json.loads(self.report_path.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Client:
    """One closed-loop HTTP client; reuses its connection while the server
    keeps it open."""

    def __init__(self, port: int):
        self.port = port
        self.conn = None
        self.connections = 0
        self.requests = 0

    def call(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
            self.conn.connect()
            self.connections += 1
        self.requests += 1
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {} if data is None else {"Content-Type": "application/json"}
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise
        if response.will_close:
            self.close()
        return response.status, json.loads(payload)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


class DecidePhase:
    """decide_http: restart the service (one set-up), then closed-loop rounds."""

    def __init__(self, ctx):
        self.inp, self.size, self.out = ctx["inputs"], ctx["size"], ctx["outcome"]
        self.service: ServiceProcess = ctx["service"]
        self.gauge: Gauge = ctx["gauge"]
        self.rng = random.Random(f"{ctx['seed']}-decide")
        self.fresh_users = [u for u in self.inp.users if u not in self.inp.banned]  # README: faults steered around
        self.client = None
        # timings are (seconds, scaled seconds) pairs; see hostspeed.py
        self.setups: list[tuple[float, float]] = []
        self.latencies = {kind: [] for kind in "FSBP"}
        self.rates: list[tuple[float, float]] = []  # requests per second (and scaled) of each step
        self.fresh_sample = []  # (uar, bor, bar, tr, trust) of the first fresh decisions
        self.requests = self.connections = 0
        self.cpu_s = 0.0
        self.service.expect("ready")

    def setup(self) -> None:
        if self.client is not None:
            self.finish()
            self.service.send("stop")
            self.service.expect("stopped")
        self.out.attempted += 1
        [(seconds, scale, (port, status, body))] = self.gauge.run(single(self.start_service))
        self.setups.append((seconds, seconds * scale))
        self.out.check(status == 200 and body.get("schema") == "tmm/1", f"healthz answered {status} {body}")
        self.client = Client(port)

    def start_service(self):
        """From "go" until /healthz answers."""
        self.service.send("go")
        port = int(self.service.expect("port "))
        status, body = Client(port).call("GET", "/healthz")
        return port, status, body

    def finish(self) -> None:
        """Count the current client's requests and close its connection."""
        self.requests += self.client.requests
        self.connections += self.client.connections
        self.client.close()

    def request(self, kind: str):
        rng, inp = self.rng, self.inp
        if kind == "F":
            user = rng.choice(self.fresh_users)
            _, uar, bor, bar, tr = inputs.draw_user(rng, self.size["test_total"])
            counters = {"unauthorized": uar, "bogus": bor, "bad": bar, "total": tr}
            return user, ("POST", "/decide", {"user_id": user, "counters": counters}), (uar, bor, bar, tr)
        if kind == "S":
            user = rng.choice(inp.users)
            return user, ("POST", "/decide", {"user_id": user}), None
        provider_id = rng.choice(inp.provider_ids)
        if kind == "B":
            verdict = "negative" if rng.random() < NEGATIVE_FEEDBACK else "positive"
            return provider_id, ("POST", f"/feedback/provider/{provider_id}", {"feedback": verdict}), verdict
        return provider_id, ("GET", f"/trust/provider/{provider_id}", None), None

    def verify(self, kind: str, subject: str, body: dict, extra) -> None:
        out, latest = self.out, self.inp.latest
        out.check(body.get("schema") == "tmm/1", f"{kind} {subject}: schema {body.get('schema')!r}")
        if kind in "FS":
            trust = body["trust"]
            if kind == "F":
                banned, model = False, "fis"
                out.check(0.0 <= trust <= 1.0, f"fresh {subject}: trust {trust} outside [0, 1]")
                if len(self.fresh_sample) < 200:
                    self.fresh_sample.append((*extra, trust))
            else:
                record = latest[subject]
                banned, model = record["classification"] == "banned", record["model"]
                out.check(trust == record["trust"], f"stored {subject}: trust {trust} != last {record['trust']}")
            out.check(body["model"] == model, f"{kind} {subject}: model {body['model']!r} != {model!r}")
            expected = "grant" if trust > THRESHOLD and not banned else "deny"
            out.check(body["decision"] == expected, f"{kind} {subject}: {body['decision']} != {expected}")
            latest[subject] = {
                "trust": trust,
                "model": model,
                "classification": "banned" if banned else ("trusted" if trust > THRESHOLD else "untrusted"),
            }
            return
        tally = self.inp.feedback[subject]
        if kind == "B":
            tally[extra == "negative"] += 1
        ratio = tally[1] / (tally[0] + tally[1]) if sum(tally) else 0.0
        banned = ratio > BAN_RATIO
        got = body["negative_feedback_ratio"]
        out.check(got == ratio, f"{kind} {subject}: ratio {got} != {ratio}")
        out.check(body["banned"] is banned, f"{kind} {subject}: banned {body['banned']} != {banned}")
        if kind == "P":
            trust = 0.0 if banned else latest[subject]["trust"]
            out.check(body["trust"] == trust, f"provider {subject}: trust {body['trust']} != {trust}")

    def slice(self) -> None:
        for seconds, scale, latencies in self.gauge.run(self.rounds()):
            completed = sum(len(values) for values in latencies.values())
            self.rates.append((completed / seconds, completed / (seconds * scale)))
            for kind, values in latencies.items():
                self.latencies[kind] += [(v, v * scale) for v in values]

    def rounds(self):
        """The requests of a slice, ROUNDS_PER_STEP rounds per step; each
        step yields (or at the end returns) its latencies by kind."""
        out = self.out
        latencies = {kind: [] for kind in "FSBP"}
        cpu = time.process_time()
        for done in range(1, self.size["decide_rounds"] + 1):
            for kind in ROUND:
                subject, (method, path, body), extra = self.request(kind)
                out.attempted += 1
                began = time.perf_counter()
                try:
                    status, reply = self.client.call(method, path, body)
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    out.fail(f"{method} {path}", exc)
                    continue
                latencies[kind].append(time.perf_counter() - began)
                if status != 200:
                    out.fail(f"{method} {path}", RuntimeError(f"status {status}: {reply}"))
                    continue
                self.verify(kind, subject, reply, extra)
            if done % ROUNDS_PER_STEP == 0 and done < self.size["decide_rounds"]:
                self.cpu_s += time.process_time() - cpu
                yield latencies
                latencies = {kind: [] for kind in "FSBP"}
                cpu = time.process_time()
        self.cpu_s += time.process_time() - cpu
        return latencies


class RetrainPhase:
    """retrain: log file -> counters -> matrix -> FCM -> model -> model file."""

    def __init__(self, ctx):
        from fuzzytrust import clustering

        self.inp, self.out, self.gauge = ctx["inputs"], ctx["outcome"], ctx["gauge"]
        self.cfg = clustering.ClusterConfig(**RETRAIN_CLUSTERS)
        self.path = ctx["workdir"] / "retrained-model.json"
        self.expected = [
            (uid, *self.inp.log_counts[uid], self.inp.log_window) for uid in sorted(self.inp.log_counts)
        ]
        self.times: list[tuple[float, float]] = []  # (seconds, scaled seconds) per retrain

    def retrain(self):
        """One retrain in two steps of similar length."""
        from fuzzytrust import ingest, user

        counters = ingest.ingest_log(self.inp.log_path)
        yield
        clusters = user.fit_user_clusters(ingest.corpus_matrix(counters), self.cfg)
        model = user.UserTrustModel.from_cluster_model(clusters)
        user.save_user_model(model, self.path)
        return counters, clusters, model

    def slice(self) -> None:
        from fuzzytrust import user

        out = self.out
        out.attempted += 1
        try:
            steps = self.gauge.run(self.retrain())
            self.times.append(total(steps))
            counters, clusters, model = steps[-1][2]
            reloaded = user.load_user_model(self.path)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            out.fail("retrain", exc)
            return
        got = [(c.user_id, c.uar, c.bor, c.bar, c.tr, c.window) for c in counters]
        out.check(got == self.expected, "retrain: ingested counters differ from the log's tally")
        trace = clusters.objective_trace
        rises = [b - a for a, b in zip(trace, trace[1:]) if b - a > 1e-10 * max(1.0, trace[0])]
        out.check(not rises, f"retrain: FCM objective rose by {rises[:3]}")
        out.check(
            len(model.fis.rules) == 25 and len(model.fis.inputs) == 4,
            f"retrain: model has {len(model.fis.rules)} rules over {len(model.fis.inputs)} inputs",
        )
        out.check(reloaded.to_dict() == model.to_dict(), "retrain: saved model reloads differently")


def verify_report(report, test_users, out: Outcome) -> int:
    """Recompute the baseline column and every summary figure from the rows;
    returns the number of untrusted users by the benchmark's own count."""
    rows = report.rows
    out.check([r.user_id for r in rows] == [t[0] for t in test_users], "compare: rows out of order")
    tp = fp = fn = untrusted = 0
    abs_terms, sq_terms = [], []
    for row, (uid, uar, bor, bar, tr) in zip(rows, test_users):
        truth = inputs.baseline(uar, bor, bar, tr)
        out.check(abs(row.baseline - truth) <= 1e-12, f"compare {uid}: baseline {row.baseline} != {truth}")
        out.check(0.0 <= row.predicted <= 1.0, f"compare {uid}: predicted {row.predicted} outside [0, 1]")
        truth_untrusted = not truth > THRESHOLD
        predicted_untrusted = not row.predicted > THRESHOLD
        untrusted += truth_untrusted
        tp += truth_untrusted and predicted_untrusted
        fp += predicted_untrusted and not truth_untrusted
        fn += truth_untrusted and not predicted_untrusted
        residual = row.predicted - row.baseline
        abs_terms.append(abs(residual))
        sq_terms.append(residual * residual)
    n = len(rows)
    abs_sum, sq_sum = math.fsum(abs_terms), math.fsum(sq_terms)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    expected = {
        "mae": abs_sum / n,
        "rmse": math.sqrt(sq_sum / n),
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }
    for name, value in expected.items():
        got = getattr(report, name)
        out.check(abs(got - value) <= 1e-12, f"compare: {name} {got} != recomputed {value}")
    out.check(report.n_untrusted == untrusted, f"compare: n_untrusted {report.n_untrusted} != {untrusted}")
    out.check(report.degenerate == (tp + fp == 0 or tp + fn == 0 or precision + recall == 0), "compare: degenerate flag")
    return untrusted


class ScorePhase:
    """score_batch: load the model and compare over the test population in
    batches of USERS_PER_STEP, then the provider cascade over every
    snapshot in steps of PROVIDERS_PER_STEP."""

    def __init__(self, ctx):
        from fuzzytrust import provider, user

        self.inp, self.out, self.model_path = ctx["inputs"], ctx["outcome"], ctx["model_path"]
        self.gauge: Gauge = ctx["gauge"]
        self.test = [
            user.UserBehaviorCounters(user_id=uid, uar=uar, bor=bor, bar=bar, tr=tr)
            for uid, uar, bor, bar, tr in self.inp.test_users
        ]
        self.snapshots = [provider.ProviderMetrics(*p) for p in self.inp.providers]
        self.user_times: list[tuple[float, float]] = []  # (seconds, scaled) of load + compare per slice
        self.provider_rates: list[tuple[float, float]] = []  # (providers per second, scaled) per step
        self.users_scored = 0
        self.rows = self.assessments = None

    def score_users(self):
        from fuzzytrust import evaluation, user

        test = self.test
        model = user.load_user_model(self.model_path)
        reports = []
        for start in range(0, len(test), USERS_PER_STEP):
            reports.append(evaluation.compare(test[start : start + USERS_PER_STEP], model))
            if start + USERS_PER_STEP >= len(test):
                return reports
            yield

    def assess_providers(self):
        from fuzzytrust import provider

        snapshots = self.snapshots
        for start in range(0, len(snapshots), PROVIDERS_PER_STEP):
            chunk = [provider.evaluate_provider(m) for m in snapshots[start : start + PROVIDERS_PER_STEP]]
            if start + PROVIDERS_PER_STEP >= len(snapshots):
                return chunk
            yield chunk

    def slice(self) -> None:
        out, test, snapshots = self.out, self.test, self.snapshots
        out.attempted += len(test) + len(snapshots)
        self.users_scored += len(test)
        try:
            steps = self.gauge.run(self.score_users())
            self.user_times.append(total(steps))
            reports = steps[-1][2]
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            out.fail("compare", exc, len(test))
        else:
            test_users, untrusted = self.inp.test_users, 0
            for start, report in zip(range(0, len(test_users), USERS_PER_STEP), reports):
                untrusted += verify_report(report, test_users[start : start + USERS_PER_STEP], out)
            out.check(untrusted > 0, "compare: the test population has no untrusted user")
            self.rows = self.rows or [row for report in reports for row in report.rows]
        try:
            steps = self.gauge.run(self.assess_providers())
            self.provider_rates += [(len(chunk) / s, len(chunk) / (s * scale)) for s, scale, chunk in steps]
            assessments = [a for _, _, chunk in steps for a in chunk]
        except Exception as exc:  # noqa: BLE001
            out.fail("evaluate_provider", exc, len(snapshots))
        else:
            for a in assessments:
                out.check(
                    all(0.0 <= v <= 1.0 for v in (a.performance, a.elasticity, a.trust)),
                    f"provider stage outside [0, 1]: {a}",
                )
            self.assessments = self.assessments or assessments


# --------------------------------------------------------------------------
# independent checks against tests/oracles.py


def user_inputs(norm_params, uar, bor, bar, tr) -> dict[str, float]:
    """The four user-engine inputs: counts min-max scaled with the model's
    parameters and clamped into [0, 1]."""

    def scale(value, bounds):
        lo, hi = bounds
        return 0.5 if hi <= lo else min(max((value - lo) / (hi - lo), 0.0), 1.0)

    return {
        "bad_requests": scale(bar, norm_params[0]),
        "bogus_requests": scale(bor, norm_params[1]),
        "unauthorized_requests": scale(uar, norm_params[2]),
        "total_requests": scale(tr, norm_params[3]),
    }


def verify_with_oracle(ctx, decide: DecidePhase, score: ScorePhase) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import oracle_infer

    from fuzzytrust import fuzzy, provider

    out, n = ctx["outcome"], ctx["size"]["oracle_sample"]
    rng = random.Random(f"{ctx['seed']}-oracle")
    document = json.loads(ctx["model_path"].read_text(encoding="utf-8"))
    fis = fuzzy.FuzzyInferenceSystem.from_dict(document["fis"])
    norm = document["norm_params"]

    def close(got, want, what):
        out.check(abs(got - want) <= ORACLE_TOLERANCE, f"{what}: {got} vs oracle {want}")

    for uar, bor, bar, tr, trust in rng.sample(decide.fresh_sample, min(n, len(decide.fresh_sample))):
        close(trust, oracle_infer(fis, user_inputs(norm, uar, bor, bar, tr), ORACLE_SAMPLES), "fresh decide")
    if score.rows:
        for i in rng.sample(range(len(score.rows)), n):
            uid, uar, bor, bar, tr = ctx["inputs"].test_users[i]
            expected = oracle_infer(fis, user_inputs(norm, uar, bor, bar, tr), ORACLE_SAMPLES)
            close(score.rows[i].predicted, expected, f"compare {uid}")
    if score.assessments:
        engines = (provider.build_performance_fis(), provider.build_elasticity_fis(), provider.build_provider_trust_fis())
        for i in rng.sample(range(len(score.assessments)), n):
            wl, rt, sc, av, se, us = ctx["inputs"].providers[i]
            got = score.assessments[i]
            perf = oracle_infer(engines[0], {"workload": wl, "response_time": rt}, ORACLE_SAMPLES)
            elast = oracle_infer(
                engines[1], {"scalability": sc, "availability": av, "security": se, "usability": us}, ORACLE_SAMPLES
            )
            # each stage on the inputs it was given, so stage errors do not compound
            trust = oracle_infer(
                engines[2], {"performance": got.performance, "elasticity": got.elasticity}, ORACLE_SAMPLES
            )
            close(got.performance, perf, f"provider {i} performance")
            close(got.elasticity, elast, f"provider {i} elasticity")
            close(got.trust, trust, f"provider {i} trust")


# --------------------------------------------------------------------------
# metrics


def end_to_end(decide: DecidePhase, retrain: RetrainPhase, score: ScorePhase, rss_mb: float, times=scaled) -> dict:
    """The end-to-end figures from ``times(timings)``: scaled to the
    reference host, or ``unscaled`` for the result file."""
    fresh = times(decide.latencies["F"])
    return {
        "requests_per_s": (median(times(decide.rates)), "1/s"),
        "decide_p50_ms": (median(fresh) * 1e3, "ms"),
        "decide_p99_ms": (p99(fresh) * 1e3, "ms"),
        "setup_s": (median(times(decide.setups)), "s"),
        "retrain_s": (median(times(retrain.times)), "s"),
        "users_per_s": (median([len(score.test) / t for t in times(score.user_times)]), "1/s"),
        "providers_per_s": (median(times(score.provider_rates)), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(decide: DecidePhase, users_scored: int, log_rows: int, spans, notes) -> dict:
    """Span figures are wall time as the wrappers saw it, unscaled."""
    whole = durations(spans)
    own = durations(spans, self_time=True)

    def med(name, scale):
        return median(whole[name]) / scale

    def mean(values, scale):
        return statistics.fmean(values) / scale

    engines = ("user", "performance", "elasticity", "provider_trust")
    infer_self = [v for e in engines for v in own[f"fuzzy.infer.{e}"]]
    infer_calls = len(infer_self)
    decide_us = med("service.decide.fresh", 1e3)
    users_asked = len(decide.latencies["F"]) + users_scored
    fits = whole["clustering.fcm_fit"]
    iterations = notes["clustering.iterations"]
    lat = {kind: unscaled(values) for kind, values in decide.latencies.items()}
    return {
        "service.decide_us": (decide_us, "us"),
        "service.provider_feedback_us": (med("service.provider_feedback", 1e3), "us"),
        "service.provider_trust_us": (med("service.provider_trust", 1e3), "us"),
        "service.ledger_record_us": (med("service.ledger_record", 1e3), "us"),
        "service.ledger_load_s": (med("service.ledger_load", 1e9), "s"),
        "service.http_us": (median(lat["F"]) * 1e6 - decide_us, "us"),
        "service.connections_per_request": (decide.connections / decide.requests, "count"),
        "service.stored_decide_p50_ms": (median(lat["S"]) * 1e3, "ms"),
        "service.feedback_p50_ms": (median(lat["B"]) * 1e3, "ms"),
        "service.provider_read_p50_ms": (median(lat["P"]) * 1e3, "ms"),
        "store.put_us": (med("store.put", 1e3), "us"),
        "store.get_us": (med("store.get", 1e3), "us"),
        "store.load_s": (med("store.load", 1e9), "s"),
        "store.records_loaded": (median(notes["store.records_loaded"]), "count"),
        "user.evaluate_us": (med("user.evaluate", 1e3), "us"),
        "user.fit_s": (med("user.fit", 1e9), "s"),
        "user.build_ms": (med("user.build", 1e6), "ms"),
        "user.save_ms": (med("user.save", 1e6), "ms"),
        "user.load_ms": (med("user.load", 1e6), "ms"),
        **{f"fuzzy.infer_us.{e}": (med(f"fuzzy.infer.{e}", 1e3), "us") for e in engines},
        "fuzzy.fuzzify_us": (mean(whole["fuzzy.fuzzify"], 1e3), "us"),
        "fuzzy.aggregate_us": (mean(own["fuzzy.aggregate"], 1e3), "us"),
        "fuzzy.centroid_us": (mean(infer_self, 1e3), "us"),
        "fuzzy.infer_calls_per_user": (len(whole["fuzzy.infer.user"]) / users_asked, "count"),
        "fuzzy.fuzzify_calls_per_infer": (len(whole["fuzzy.fuzzify"]) / infer_calls, "count"),
        "clustering.fcm_fit_s": (median(fits) / 1e9, "s"),
        "clustering.fcm_iterations": (median(iterations), "count"),
        "clustering.fcm_iteration_ms": (median([f / i for f, i in zip(fits, iterations)]) / 1e6, "ms"),
        "clustering.normalize_ms": (med("clustering.normalize", 1e6), "ms"),
        "ingest.ingest_log_s": (med("ingest.ingest_log", 1e9), "s"),
        "ingest.log_rows_per_s": (log_rows / med("ingest.ingest_log", 1e9), "1/s"),
        "ingest.corpus_matrix_ms": (med("ingest.corpus_matrix", 1e6), "ms"),
        "evaluation.compare_s": (med("evaluation.compare", 1e9), "s"),
        "evaluation.self_ms": (median(own["evaluation.compare"]) / 1e6, "ms"),
        "provider.evaluate_provider_us": (med("provider.evaluate_provider", 1e3), "us"),
        "provider.self_us": (median(own["provider.evaluate_provider"]) / 1e3, "us"),
        "client.cpu_us_per_request": (decide.cpu_s / decide.requests * 1e6, "us"),
    }


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fuzzytrust").is_dir() or not spec_path.is_file():
        print(f"no fuzzytrust sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))

    host_start = host_sample()
    size = inputs.SIZES[args.size]
    workdir = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    outcome = Outcome()
    gauge = Gauge()
    ctx = {"seed": args.seed, "size": size, "outcome": outcome, "workdir": workdir, "gauge": gauge}
    model_path = ctx["model_path"] = workdir / MODEL_FILE
    workdir.mkdir(parents=True)
    service = None
    try:
        service = ctx["service"] = ServiceProcess(workdir, args.trace)  # imports while inputs are made
        inp = ctx["inputs"] = inputs.generate(args.seed, size, workdir)

        from fuzzytrust import clustering, ingest, user

        counters = [
            user.UserBehaviorCounters(user_id=uid, uar=a, bor=b, bar=c, tr=t)
            for uid, (a, b, c, t) in sorted(inp.log_counts.items())
        ]
        clusters = user.fit_user_clusters(ingest.corpus_matrix(counters), clustering.ClusterConfig(**RETRAIN_CLUSTERS))
        user.save_user_model(user.UserTrustModel.from_cluster_model(clusters), model_path)

        tracer = Tracer()
        if args.trace:
            instrument(tracer)
        decide, retrain, score = DecidePhase(ctx), RetrainPhase(ctx), ScorePhase(ctx)
        slices = [decide] * SLICES[args.workload == "decide_http"]
        slices += [retrain] * SLICES[args.workload == "retrain"]
        slices += [score] * SLICES[args.workload == "score_batch"]
        os.sched_setaffinity(0, {service.cpu})  # see ServiceProcess
        start = time.perf_counter()
        cycles = 0
        # whole cycles only, and none that would end after --seconds
        while cycles == 0 or time.perf_counter() + (time.perf_counter() - start) / cycles <= start + args.seconds:
            decide.setup()
            for phase in slices:
                phase.slice()
            cycles += 1
        decide.finish()
        service_report = service.finish()
        bench_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracle's arrays
        verify_with_oracle(ctx, decide, score)
    finally:
        if service is not None:
            service.kill()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's directory is still there

    # the process doing the program's work: the service for decide_http, this one otherwise
    rss_mb = service_report["peak_rss_mb"] if args.workload == "decide_http" else bench_rss_mb
    metrics = end_to_end(decide, retrain, score, rss_mb)
    if args.trace:
        spans = tracer.spans + [tuple(s) for s in service_report["spans"]]
        notes = {
            key: tracer.notes.get(key, []) + service_report["notes"].get(key, [])
            for key in ("store.records_loaded", "clustering.iterations")
        }
        metrics.update(per_layer(decide, score.users_scored, inp.log_rows, spans, notes))
    listed = [m["name"] for m in spec["end_to_end" if not args.trace else "per_layer"]]
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]} for name in listed},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "environment": environment(),
        "host": {"start": host_start, "end": host_sample(), "reference_s": gauge.references},
        "problems": outcome.problems,
        "all_metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "unscaled_metrics": {
            name: {"value": v, "unit": u}
            for name, (v, u) in end_to_end(decide, retrain, score, rss_mb, times=unscaled).items()
        },
        "cycles": cycles,
        "samples": {  # [unscaled, scaled] per timing
            "setup_s": decide.setups,
            "requests_per_s": decide.rates,
            "retrain_s": retrain.times,
            "compare_s": score.user_times,
            "providers_per_s": score.provider_rates,
        },
        **result,
    }
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for problem in outcome.problems:
        print(f"check failed: {problem}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:36s} {value:14.4f} {unit}")
    print(f"attempted {outcome.attempted} failed {outcome.failed} correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
