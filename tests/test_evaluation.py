"""The comparison harness: classification metrics, the report's figures
and the Spearman rank correlation, held to hand values and to
``oracles.oracle_spearman``."""

import math

import numpy as np
import pytest

from fuzzytrust.errors import FuzzyTrustError
from fuzzytrust.evaluation import classification_metrics, compare, spearman
from fuzzytrust.ingest import CorpusSpec, generate_corpus
from fuzzytrust.user import UserBehaviorCounters

from oracles import oracle_spearman

U, T = "untrusted", "trusted"


class FixedModel:
    """Stands in for a ``UserTrustModel``: predicts the given values in order."""

    def __init__(self, predictions):
        self.predictions = predictions

    def evaluate_batch(self, counters_seq):
        assert len(counters_seq) == len(self.predictions)
        return np.array(self.predictions, dtype=float)


# Baselines 1.0, 0.9, 0.5, 0.7, 0.6 (classes T, T, U, T, T) against the
# predictions 0.8, 0.8, 0.3, 0.45, 0.6 (classes T, T, U, U, T).
HAND_SET = [
    UserBehaviorCounters("u1", uar=0, bor=0, bar=0, tr=10),
    UserBehaviorCounters("u2", uar=2, bor=0, bar=0, tr=10),
    UserBehaviorCounters("u3", uar=10, bor=0, bar=0, tr=10),
    UserBehaviorCounters("u4", uar=0, bor=0, bar=10, tr=10),
    UserBehaviorCounters("u5", uar=6, bor=2, bar=2, tr=10),
]
HAND_PREDICTIONS = [0.8, 0.8, 0.3, 0.45, 0.6]

REPORT_KEYS = {
    "format", "version", "n", "n_trusted", "n_untrusted", "mae", "rmse", "mae_pct", "rmse_pct",
    "precision", "recall", "f1", "degenerate", "wall_time_seconds", "agreement", "rank_correlation",
}


class TestClassificationMetrics:
    def test_regular_case(self):
        m = classification_metrics([U, U, T, T], [U, T, U, T])
        assert (m.precision, m.recall, m.f1, m.degenerate) == (0.5, 0.5, 0.5, False)

    @pytest.mark.parametrize(
        "truth, predicted, expected",
        [
            ([U, T], [T, T], (0.0, 0.0, 0.0)),  # nothing predicted positive: precision's denominator
            ([T, T], [U, T], (0.0, 0.0, 0.0)),  # no positive in the truth: recall's denominator
            ([T, T], [T, T], (0.0, 0.0, 0.0)),  # neither
            ([U, T], [T, U], (0.0, 0.0, 0.0)),  # both denominators nonzero, precision + recall zero
        ],
        ids=["no-predicted-positive", "no-true-positive", "all-negative", "zero-precision-and-recall"],
    )
    def test_zero_denominator_sets_degenerate(self, truth, predicted, expected):
        m = classification_metrics(truth, predicted)
        assert (m.precision, m.recall, m.f1) == expected
        assert m.degenerate

    def test_length_mismatch_and_empty_raise(self):
        with pytest.raises(FuzzyTrustError):
            classification_metrics([U], [U, T])
        with pytest.raises(FuzzyTrustError):
            classification_metrics([], [])
        with pytest.raises(FuzzyTrustError, match="at least one test user"):
            compare([], FixedModel([]))


class TestSpearman:
    def test_hand_value_untied(self):
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-15)

    def test_hand_value_tied(self):
        # ranks (1, 2.5, 2.5, 4) and (1, 2, 3, 4): covariance 4.5, variances 4.5 and 5
        assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(math.sqrt(0.9), abs=1e-15)

    def test_constant_series_gives_zero(self):
        assert spearman([0.3, 0.3, 0.3], [1, 2, 3]) == 0.0
        assert spearman([1, 2, 3], [5, 5, 5]) == 0.0

    @pytest.mark.parametrize("levels", [None, 3, 8], ids=["no-ties", "3-levels", "8-levels"])
    def test_matches_oracle(self, levels):
        rng = np.random.default_rng(1912)
        for _ in range(60):
            n = int(rng.integers(2, 120))
            if levels is None:
                xs, ys = rng.random(n), rng.random(n)
            else:
                xs, ys = rng.integers(0, levels, n) / levels, rng.integers(0, levels, n) / levels
            if np.ptp(xs) == 0.0 or np.ptp(ys) == 0.0:
                continue
            assert abs(spearman(xs, ys) - oracle_spearman(xs, ys)) <= 1e-12


class TestCompare:
    def test_hand_built_set(self):
        report = compare(HAND_SET, FixedModel(HAND_PREDICTIONS))
        assert (report.n, report.n_trusted, report.n_untrusted) == (5, 4, 1)
        assert report.agreement() == 0.8
        # ranks (5, 4, 1, 3, 2) and (4.5, 4.5, 1, 2, 3): covariance 8.5, variances 10 and 9.5
        assert report.rank_correlation() == pytest.approx(8.5 / math.sqrt(95.0), abs=1e-15)
        assert (report.precision, report.recall, report.degenerate) == (0.5, 1.0, False)
        assert report.f1 == pytest.approx(2.0 / 3.0)
        assert report.mae == pytest.approx(0.15)
        assert report.rmse == pytest.approx(math.sqrt((0.04 + 0.01 + 0.04 + 0.0625) / 5))

    def test_report_keys_and_percentages(self, two_cluster_user_model):
        _, test_set = generate_corpus(CorpusSpec(n_users=60, n_train=40, seed=5))
        report = compare(test_set, two_cluster_user_model)
        data = report.to_dict(include_rows=False)
        assert set(data) == REPORT_KEYS
        assert (data["format"], data["version"]) == ("evaluation-report", 1)
        assert data["mae_pct"] == 100.0 * data["mae"] and data["rmse_pct"] == 100.0 * data["rmse"]
        assert data["rank_correlation"] == spearman(
            [r.baseline for r in report.rows], [r.predicted for r in report.rows]
        )
        with_rows = report.to_dict()
        assert set(with_rows) == REPORT_KEYS | {"rows"} and len(with_rows["rows"]) == report.n == 20
