"""Operator command line tying the pipeline together.

    fuzzytrust ingest         request log -> per-user counters CSV
    fuzzytrust gen-corpus     synthetic train/test corpus CSVs
    fuzzytrust fit            training corpus -> deployable user model JSON
    fuzzytrust eval-user      counters -> classified trust record
    fuzzytrust eval-provider  provider metrics -> performance/elasticity/trust
    fuzzytrust compare        fuzzy model vs baseline over a test corpus
    fuzzytrust surface        response surface of any engine -> grid CSV
    fuzzytrust serve          run the trust management HTTP service

``serve --store`` is required; provider feedback goes to ``<store>.feedback``,
checkpointed in ``<store>.feedback.snapshot``.
Flags are the only configuration, and the baseline weights are fixed.

Exit codes: 0 success, 1 data/model errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from datetime import datetime

from . import clustering, evaluation, ingest, provider, service, user
from .errors import FuzzyTrustError
from .store import TrustStore, save_artifact


_HELD_BY_SERVICE = "refused while a service holds the store"


def _add_counter_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--user-id", default="cli-user")
    p.add_argument("--bad", type=int, required=True, help="requests with status 400")
    p.add_argument("--bogus", type=int, required=True, help="requests with status 404")
    p.add_argument("--unauthorized", type=int, required=True, help="requests with status 401 or 403")
    p.add_argument("--total", type=int, required=True, help="all requests in the window")


def _counters(args) -> user.UserBehaviorCounters:
    return user.UserBehaviorCounters(
        user_id=args.user_id, uar=args.unauthorized, bor=args.bogus, bar=args.bad, tr=args.total
    )


def cmd_ingest(args) -> int:
    window = None
    if args.window_start:  # main() refuses one bound without the other
        window = (datetime.fromisoformat(args.window_start), datetime.fromisoformat(args.window_end))
    counters = ingest.ingest_log(args.log, window)
    ingest.write_counters_csv(args.out, counters)
    print(f"wrote {len(counters)} user counter rows to {args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    spec = ingest.CorpusSpec(
        n_users=args.n_users,
        n_train=args.n_train,
        benign_fraction=args.benign_fraction,
        seed=args.seed,
    )
    train, test = ingest.generate_corpus(spec)
    ingest.write_corpus_csv(args.train_out, train)
    ingest.write_corpus_csv(args.test_out, test)
    print(f"wrote {len(train)} training rows to {args.train_out} and {len(test)} test rows to {args.test_out}")
    return 0


def cmd_fit(args) -> int:
    counters = ingest.read_counters_csv(args.train)
    matrix = ingest.corpus_matrix(counters)
    cfg = clustering.ClusterConfig(
        c=args.clusters, m=args.fuzzifier, tol=args.tol, max_iter=args.max_iter, seed=args.seed
    )
    clusters = user.fit_user_clusters(matrix, cfg)
    user.save_user_model(user.UserTrustModel.from_cluster_model(clusters), args.out)
    print(
        f"fitted {clusters.c} clusters over {matrix.shape[0]} users in "
        f"{len(clusters.objective_trace)} iterations; wrote {args.out}"
    )
    return 0


def _store(path):
    """The trust store at ``path``, closed on exit; None without ``--store``."""
    return contextlib.closing(TrustStore(path)) if path else contextlib.nullcontext()


def cmd_eval_user(args) -> int:
    counters = _counters(args)
    model = user.load_user_model(args.user_model) if args.user_model else None
    trust, provenance = user.evaluate_counters(counters, model)
    with _store(args.store) as store:
        record = service.record_decision(store, "user", counters.user_id, trust, provenance, args.threshold)
    print(json.dumps(record.to_dict(), indent=2))
    return 0


def cmd_eval_provider(args) -> int:
    metrics = provider.ProviderMetrics(
        workload=args.workload,
        response_time=args.response_time,
        scalability=args.scalability,
        availability=args.availability,
        security=args.security,
        usability=args.usability,
    )
    assessment = provider.evaluate_provider(metrics)
    banned = provider.feedback_ban(args.negative_feedback)
    with _store(args.store) as store:
        record = service.record_decision(
            store, "provider", args.provider_id, assessment.trust, "fis", args.threshold, banned=banned
        )
    banned = record.classification == "banned"
    result = {
        "provider_id": args.provider_id,
        "performance": assessment.performance,
        "elasticity": assessment.elasticity,
        "trust": 0.0 if banned else assessment.trust,
        "banned": banned,
    }
    print(json.dumps(result, indent=2))
    return 0


def cmd_compare(args) -> int:
    test_set = ingest.read_counters_csv(args.test)
    if not test_set:
        raise FuzzyTrustError(f"{args.test}: no test users")
    model = user.load_user_model(args.user_model)
    report = evaluation.compare(test_set, model, threshold=args.threshold)
    if args.out:
        save_artifact(report, args.out)
    print(json.dumps(report.to_dict(include_rows=False), indent=2))
    return 0


_SURFACE_ENGINES = {
    "performance": provider.build_performance_fis,
    "elasticity": provider.build_elasticity_fis,
    "provider-trust": provider.build_provider_trust_fis,
}


def _name_value(item: str) -> tuple[str, float]:
    name, sep, value = item.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"needs name=value, got {item!r}")
    return name, float(value)


def cmd_surface(args) -> int:
    fis = _SURFACE_ENGINES[args.engine]() if args.engine else user.load_user_model(args.user_model).fis

    fixed = dict(args.fixed or [])
    for variable in fis.inputs:
        if variable.name not in (args.x, args.y) and variable.name not in fixed:
            lo, hi = variable.domain
            fixed[variable.name] = (lo + hi) / 2.0  # unpinned inputs sit mid-domain

    grid = fis.surface(args.x, args.y, fixed, resolution=args.resolution)
    grid.write_csv(args.out)
    print(f"wrote {args.resolution * args.resolution} grid cells to {args.out}")
    return 0


def cmd_serve(args) -> int:
    config = service.ServiceConfig(
        store_path=args.store,
        user_model_path=args.user_model,
        threshold=args.threshold,
        host=args.host,
        port=args.port,
    )
    service.serve(config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fuzzytrust", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate a request log into per-user counters")
    p.add_argument("--log", required=True, help="CSV with header timestamp,user_id,status")
    p.add_argument("--out", required=True, help="counters CSV to write")
    p.add_argument("--window-start", help="ISO timestamp, inclusive")
    p.add_argument("--window-end", help="ISO timestamp, inclusive")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("gen-corpus", help="generate a synthetic labelled corpus")
    p.add_argument("--train-out", required=True)
    p.add_argument("--test-out", required=True)
    p.add_argument("--n-users", type=int, default=1300)
    p.add_argument("--n-train", type=int, default=1000)
    p.add_argument("--benign-fraction", type=float, default=0.75)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("fit", help="fit the user trust model to a training corpus")
    p.add_argument("--train", required=True, help="corpus CSV")
    p.add_argument("--out", required=True, help="user model JSON to write")
    p.add_argument("--clusters", type=int, default=25)
    p.add_argument("--fuzzifier", type=float, default=2.0)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval-user", help="evaluate one user's trust")
    _add_counter_flags(p)
    p.add_argument("--user-model", help="user model JSON; baseline formula when omitted")
    p.add_argument("--threshold", type=float, default=user.DEFAULT_THRESHOLD)
    p.add_argument("--store", help=f"append the record to this trust store; {_HELD_BY_SERVICE}")
    p.set_defaults(func=cmd_eval_user)

    p = sub.add_parser("eval-provider", help="evaluate one provider's trust")
    p.add_argument("--provider-id", default="cli-provider")
    p.add_argument("--workload", type=float, required=True, help="percent per process, 0..100")
    p.add_argument("--response-time", type=float, required=True, help="milliseconds, 0..100")
    p.add_argument("--scalability", type=float, required=True, help="score in 0..1")
    p.add_argument("--availability", type=float, required=True, help="score in 0..1")
    p.add_argument("--security", type=float, required=True, help="score in 0..1")
    p.add_argument("--usability", type=float, required=True, help="score in 0..1")
    p.add_argument("--negative-feedback", type=float, default=0.0, help="negative feedback ratio 0..1")
    p.add_argument("--threshold", type=float, default=user.DEFAULT_THRESHOLD)
    p.add_argument("--store", help=f"append the record to this trust store; {_HELD_BY_SERVICE}")
    p.set_defaults(func=cmd_eval_provider)

    p = sub.add_parser("compare", help="fuzzy model vs baseline over a test corpus")
    p.add_argument("--test", required=True, help="test corpus CSV")
    p.add_argument("--user-model", required=True, help="user model JSON")
    p.add_argument("--threshold", type=float, default=user.DEFAULT_THRESHOLD)
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("surface", help="export a response-surface grid CSV")
    engine = p.add_mutually_exclusive_group(required=True)
    engine.add_argument("--engine", choices=_SURFACE_ENGINES, help="built-in provider engine")
    engine.add_argument("--user-model", help="user model JSON instead of a built-in engine")
    p.add_argument("--x", required=True, help="variable on the x axis")
    p.add_argument("--y", required=True, help="variable on the y axis")
    p.add_argument("--fixed", action="append", type=_name_value, metavar="NAME=VALUE", help="pin another input")
    p.add_argument("--resolution", type=int, default=25)
    p.add_argument("--out", required=True, help="grid CSV to write")
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("serve", help="run the trust management HTTP service")
    p.add_argument("--host", default=service.ServiceConfig.host)
    p.add_argument("--port", type=int, default=service.ServiceConfig.port)
    p.add_argument("--store", required=True, help="trust store; the feedback ledger is <store>.feedback")
    p.add_argument("--user-model", help="user model JSON; baseline formula when omitted")
    p.add_argument("--threshold", type=float, default=service.ServiceConfig.threshold)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ingest" and bool(args.window_start) != bool(args.window_end):
        parser.error("ingest: --window-start and --window-end must be given together")
    try:
        return args.func(args)
    except (FuzzyTrustError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
