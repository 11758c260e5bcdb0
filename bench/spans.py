"""Spans around the program's public entry points, installed from outside.

``instrument(tracer)`` replaces each traced function or method with a
timing wrapper, in every ``fuzzytrust`` module that refers to it, so the
program's source stays unchanged.  A span is (name, id, parent id,
start ns, end ns, ns spent in direct child spans); spans stay in memory
until the run ends.  Parents are tracked per thread, so the spans of one
HTTP request (one handler thread) form one tree.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int | None, int, int, int]] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, fn, name, note=None):
        """``name`` is a span name or a function of (args, kwargs) giving one;
        ``note(result, args)`` may return {key: value} to keep beside the span."""
        tracer = self
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else None
            frame = [next(tracer._ids), 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name if isinstance(name, str) else name(args, kwargs)
                tracer.spans.append(
                    (label, frame[0], parent[0] if parent else None, start, end, frame[1])
                )
                if parent is not None:
                    parent[1] += end - start
            if note is not None:
                for key, value in note(result, args).items():
                    tracer.notes[key].append(value)
            return result

        traced.__wrapped__ = fn
        return traced


def _engine(args, kwargs) -> str:
    fis = args[0]
    if fis.output.name in ("performance", "elasticity"):
        return "fuzzy.infer." + fis.output.name
    if "performance" in fis.input_names:
        return "fuzzy.infer.provider_trust"
    return "fuzzy.infer.user"


def _decide_route(args, kwargs) -> str:
    counters = kwargs["counters"] if "counters" in kwargs else (args[2] if len(args) > 2 else None)
    return "service.decide.fresh" if counters is not None else "service.decide.stored"


def instrument(tracer: Tracer) -> None:
    """Wrap the entry points of every layer named in the per-layer metrics."""
    from fuzzytrust import clustering, evaluation, fuzzy, ingest, provider, service, store, user

    methods = [
        (service.TrustService, "decide", _decide_route, None),
        (service.TrustService, "provider_feedback", "service.provider_feedback", None),
        (service.TrustService, "provider_trust", "service.provider_trust", None),
        (service.FeedbackLedger, "record", "service.ledger_record", None),
        (service.FeedbackLedger, "__init__", "service.ledger_load", None),
        (store.TrustStore, "put", "store.put", None),
        (store.TrustStore, "get", "store.get", None),
        (store.TrustStore, "__init__", "store.load", lambda r, a: {"store.records_loaded": len(a[0])}),
        (user.UserTrustModel, "evaluate", "user.evaluate", None),
        (user.UserTrustModel, "from_cluster_model", "user.build", None),
        (fuzzy.FuzzyInferenceSystem, "infer", _engine, None),
        (fuzzy.FuzzyInferenceSystem, "aggregate", "fuzzy.aggregate", None),
        (fuzzy.LinguisticVariable, "fuzzify", "fuzzy.fuzzify", None),
    ]
    functions = [
        (user.fit_user_clusters, "user.fit", None),
        (user.save_user_model, "user.save", None),
        (user.load_user_model, "user.load", None),
        (clustering.fcm_fit, "clustering.fcm_fit", lambda r, a: {"clustering.iterations": len(r.objective_trace)}),
        (clustering.normalize, "clustering.normalize", None),
        (ingest.ingest_log, "ingest.ingest_log", None),
        (ingest.corpus_matrix, "ingest.corpus_matrix", None),
        (evaluation.compare, "evaluation.compare", None),
        (provider.evaluate_provider, "provider.evaluate_provider", None),
    ]
    for cls, attr, name, note in methods:
        original = vars(cls)[attr]
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(original.__func__, name, note)))
        else:
            setattr(cls, attr, tracer.wrap(original, name, note))
    modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "fuzzytrust"]
    for original, name, note in functions:
        traced = tracer.wrap(original, name, note)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)


def durations(spans, self_time: bool = False) -> dict[str, list[int]]:
    """Span durations in ns by name; with ``self_time`` minus direct children."""
    out: dict[str, list[int]] = defaultdict(list)
    for name, _, _, start, end, children in spans:
        out[name].append(end - start - (children if self_time else 0))
    return out
