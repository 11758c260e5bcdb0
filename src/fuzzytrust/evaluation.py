"""Comparison harness between the weighted baseline model and the fuzzy
model: regression errors, thresholded-classification metrics, class
agreement and Spearman rank correlation, all computed with numpy alone.

"untrusted" is the positive class throughout: the model exists to
detect misbehaving users.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FuzzyTrustError
from .user import DEFAULT_THRESHOLD, UserBehaviorCounters, UserTrustModel, baseline_trust, classify

POSITIVE_CLASS = "untrusted"


@dataclass(frozen=True)
class ClassificationMetrics:
    precision: float
    recall: float
    f1: float
    degenerate: bool  # some denominator was zero and reported as 0


def classification_metrics(truth: Sequence[str], predicted: Sequence[str]) -> ClassificationMetrics:
    """Binary precision/recall/F1 with "untrusted" as the positive class.

    Zero-denominator cases score 0 and set the degenerate flag instead
    of raising.
    """
    if len(truth) != len(predicted):
        raise FuzzyTrustError(f"truth has {len(truth)} labels, predicted has {len(predicted)}")
    if len(truth) == 0:
        raise FuzzyTrustError("classification metrics need at least one sample")
    tp = sum(1 for t, p in zip(truth, predicted) if t == POSITIVE_CLASS and p == POSITIVE_CLASS)
    fp = sum(1 for t, p in zip(truth, predicted) if t != POSITIVE_CLASS and p == POSITIVE_CLASS)
    fn = sum(1 for t, p in zip(truth, predicted) if t == POSITIVE_CLASS and p != POSITIVE_CLASS)

    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2.0 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return ClassificationMetrics(precision=precision, recall=recall, f1=f1, degenerate=degenerate)


@dataclass(frozen=True)
class UserComparison:
    user_id: str
    baseline: float
    predicted: float
    baseline_class: str
    predicted_class: str


@dataclass(frozen=True)
class EvaluationReport:
    mae: float
    rmse: float
    precision: float
    recall: float
    f1: float
    degenerate: bool
    wall_time_seconds: float
    n: int
    n_trusted: int  # by baseline truth
    n_untrusted: int
    rows: tuple[UserComparison, ...]

    def agreement(self) -> float:
        """Fraction of users where both models give the same class."""
        same = sum(1 for r in self.rows if r.baseline_class == r.predicted_class)
        return same / self.n

    def rank_correlation(self) -> float:
        """Spearman correlation between the two trust series."""
        return spearman(
            [r.baseline for r in self.rows], [r.predicted for r in self.rows]
        )

    def to_dict(self, include_rows: bool = True) -> dict:
        data = {
            "format": "evaluation-report",
            "version": 1,
            "n": self.n,
            "n_trusted": self.n_trusted,
            "n_untrusted": self.n_untrusted,
            "mae": self.mae,
            "rmse": self.rmse,
            "mae_pct": 100.0 * self.mae,
            "rmse_pct": 100.0 * self.rmse,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "degenerate": self.degenerate,
            "wall_time_seconds": self.wall_time_seconds,
            "agreement": self.agreement(),
            "rank_correlation": self.rank_correlation(),
        }
        if include_rows:
            data["rows"] = [
                {
                    "user_id": r.user_id,
                    "baseline": r.baseline,
                    "predicted": r.predicted,
                    "baseline_class": r.baseline_class,
                    "predicted_class": r.predicted_class,
                }
                for r in self.rows
            ]
        return data

def _average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks; tied values share the mean of the ranks they span."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return ((ends - counts + 1 + ends) / 2)[inverse]


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rho, the Pearson correlation of average ranks; 0 when
    either series is constant (no ranking signal)."""
    if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
        return 0.0
    # [1, 0], not [0, 1]: the two can differ in the last bit, and [1, 0] is
    # the value scipy.stats.spearmanr gives
    return float(np.corrcoef(_average_ranks(xs), _average_ranks(ys))[1, 0])


def compare(
    test_set: Sequence[UserBehaviorCounters],
    model: UserTrustModel,
    threshold: float = DEFAULT_THRESHOLD,
) -> EvaluationReport:
    """Evaluate ``model`` against the baseline formula over a test set,
    scoring every user in one ``evaluate_batch`` call; baseline classes
    act as the truth for the classification metrics.
    """
    if len(test_set) == 0:
        raise FuzzyTrustError("compare needs at least one test user")

    start = time.perf_counter()
    predictions = model.evaluate_batch(test_set).tolist()
    rows = []
    for counters, predicted in zip(test_set, predictions):
        truth = baseline_trust(counters)
        rows.append(
            UserComparison(
                user_id=counters.user_id,
                baseline=truth,
                predicted=predicted,
                baseline_class=classify(truth, threshold),
                predicted_class=classify(predicted, threshold),
            )
        )
    wall = time.perf_counter() - start

    residuals = np.array([r.predicted - r.baseline for r in rows])
    metrics = classification_metrics(
        [r.baseline_class for r in rows], [r.predicted_class for r in rows]
    )
    n_untrusted = sum(1 for r in rows if r.baseline_class == POSITIVE_CLASS)
    return EvaluationReport(
        mae=float(np.mean(np.abs(residuals))),
        rmse=float(np.sqrt(np.mean(residuals**2))),
        precision=metrics.precision,
        recall=metrics.recall,
        f1=metrics.f1,
        degenerate=metrics.degenerate,
        wall_time_seconds=wall,
        n=len(rows),
        n_trusted=len(rows) - n_untrusted,
        n_untrusted=n_untrusted,
        rows=tuple(rows),
    )
