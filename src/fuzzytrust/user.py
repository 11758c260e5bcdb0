"""User-side trust: the weighted baseline formula and the
cluster-derived Mamdani model.

The baseline model scores a user as 1 minus a weighted sum of their
unauthorized/bogus/bad request rates.  The weights are fixed at the
paper's (0.5, 0.2, 0.3), so the labels a model is fitted to, the truth
``compare`` scores it against and the service's baseline decisions all
come from one formula.  The fuzzy model clusters users jointly over
(bad, bogus, unauthorized, total, trust) and emits one rule per
cluster: inputs near cluster i imply trust near cluster i.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clustering import ClusterConfig, ClusterModel, apply_normalization, fcm_fit, norm_pairs, normalize
from .errors import DegenerateOutputError, InvalidModelError, ZeroTotalRequestsError
from .fuzzy import FuzzyInferenceSystem, FuzzyRule, Gaussian, LinguisticVariable, Triangular
from .store import check_format, load_artifact, save_artifact

DEFAULT_THRESHOLD = 0.5
# Severity of the unauthorized, bogus and bad request rates; they sum to 1.
W_UNAUTHORIZED, W_BOGUS, W_BAD = 0.5, 0.2, 0.3
TRUST_OUTPUT_MIN_HALFWIDTH = 0.05

# The joint feature matrix (``ingest.corpus_matrix``) has columns bad,
# bogus, unauthorized, total, then trust.
TRUST_COLUMN = 4

# Input variables in rulebase declaration order, with their matrix column.
USER_FIS_INPUTS = (
    ("bad_requests", 0),
    ("unauthorized_requests", 2),
    ("bogus_requests", 1),
    ("total_requests", 3),
)
_FEATURE_OF_INPUT = dict(USER_FIS_INPUTS)


@dataclass(frozen=True)
class UserBehaviorCounters:
    """Per-user HTTP status counts over one observation window.

    bad = status 400, unauthorized = 401 or 403, bogus = 404.  A zero total
    raises ``ZeroTotalRequestsError``: trust is undefined with no requests.
    """

    user_id: str
    uar: int  # unauthorized requests
    bor: int  # bogus requests
    bar: int  # bad requests
    tr: int  # total requests
    window: tuple[str, str] | None = None

    def __post_init__(self):
        for name in ("uar", "bor", "bar", "tr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.tr < self.uar + self.bor + self.bar:
            raise ValueError(
                f"user {self.user_id!r}: total {self.tr} is less than "
                f"categorized requests {self.uar + self.bor + self.bar}"
            )
        if self.tr == 0:
            raise ZeroTotalRequestsError(f"user {self.user_id!r} has no requests in the window")


def baseline_trust(counters: UserBehaviorCounters) -> float:
    """Weighted-rate trust 1 - (W_UNAUTHORIZED*UARR + W_BOGUS*BORR + W_BAD*BARR),
    each rate a count over TR (never zero)."""
    tr = counters.tr
    return 1.0 - (
        W_UNAUTHORIZED * (counters.uar / tr) + W_BOGUS * (counters.bor / tr) + W_BAD * (counters.bar / tr)
    )


def evaluate_counters(counters: UserBehaviorCounters, model: UserTrustModel | None) -> tuple[float, str]:
    """(trust, provenance) for fresh counters: the fitted model's value and
    ``"fis"``, or the baseline formula's and ``"baseline"`` without one."""
    if model is not None:
        return model.evaluate(counters), "fis"
    return baseline_trust(counters), "baseline"


def classify(trust: float, threshold: float = DEFAULT_THRESHOLD) -> str:
    """"trusted" iff trust strictly exceeds the threshold."""
    if not (0.0 <= trust <= 1.0 and 0.0 <= threshold <= 1.0):
        raise ValueError("trust and threshold must lie in [0, 1]")
    return "trusted" if trust > threshold else "untrusted"


def fit_user_clusters(matrix: np.ndarray, cfg: ClusterConfig | None = None) -> ClusterModel:
    """Cluster the joint 5-column matrix (bad, bogus, unauthorized,
    total, trust).

    Count columns are min-max normalized from the data; the trust
    column keeps its natural [0, 1] scale so cluster trust coordinates
    (and the rulebase built from them) stay in raw trust units.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[1] != 5:
        raise InvalidModelError(f"expected an n x 5 matrix, got shape {matrix.shape}")
    cfg = cfg or ClusterConfig()
    _, feature_params = normalize(matrix[:, :4])
    norm_params = feature_params + ((0.0, 1.0),)
    normalized = apply_normalization(matrix, norm_params)
    return fcm_fit(normalized, cfg, norm_params)


def build_user_fis(model: ClusterModel) -> FuzzyInferenceSystem:
    """One Gaussian input set and one triangular trust set per cluster,
    and the diagonal rulebase "all inputs in cluster i -> trust in
    cluster i"."""
    if model.d != 5:
        raise InvalidModelError(f"user model needs 5 joint dimensions, got {model.d}")
    labels = tuple(f"cluster_{i + 1}" for i in range(model.c))

    inputs = []
    for var_name, col in USER_FIS_INPUTS:
        sets = tuple(
            (labels[i], Gaussian(float(model.centers[i, col]), float(model.spreads[i, col])))
            for i in range(model.c)
        )
        inputs.append(LinguisticVariable(var_name, (0.0, 1.0), sets))

    trust_sets = []
    for i in range(model.c):
        apex = float(model.centers[i, TRUST_COLUMN])
        halfwidth = max(float(model.spreads[i, TRUST_COLUMN]), TRUST_OUTPUT_MIN_HALFWIDTH)
        trust_sets.append(
            (labels[i], Triangular(max(0.0, apex - halfwidth), apex, min(1.0, apex + halfwidth)))
        )
    output = LinguisticVariable("trust", (0.0, 1.0), tuple(trust_sets))

    rules = tuple(
        FuzzyRule(
            tuple((var_name, labels[i]) for var_name, _ in USER_FIS_INPUTS),
            ("trust", labels[i]),
        )
        for i in range(model.c)
    )
    return FuzzyInferenceSystem(inputs=tuple(inputs), output=output, rules=rules)


@dataclass(frozen=True)
class UserTrustModel:
    """Deployable bundle: the fitted rulebase plus the normalization
    parameters needed to feed it raw counters."""

    fis: FuzzyInferenceSystem
    norm_params: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "norm_params", norm_pairs(self.norm_params))
        if len(self.norm_params) < 4:
            raise InvalidModelError("user trust model needs normalization parameters for 4 features")
        if sorted(self.fis.input_names) != sorted(_FEATURE_OF_INPUT):
            raise InvalidModelError(
                f"user trust rulebase inputs must be {sorted(_FEATURE_OF_INPUT)}, "
                f"got {sorted(self.fis.input_names)}"
            )

    def _inputs(self, counters_seq: Sequence[UserBehaviorCounters]) -> np.ndarray:
        """One row of rulebase inputs per user, in the rulebase's input
        order: the four count features normalized with the training
        parameters (clamped into [0, 1])."""
        counts = np.array([[c.bar, c.bor, c.uar, c.tr] for c in counters_seq], dtype=float).reshape(-1, 4)
        features = apply_normalization(counts, self.norm_params[:4])
        return features[:, [_FEATURE_OF_INPUT[name] for name in self.fis.input_names]]

    def evaluate(self, counters: UserBehaviorCounters) -> float:
        return self.fis.infer(dict(zip(self.fis.input_names, self._inputs([counters])[0])))

    def evaluate_batch(self, counters_seq: Sequence[UserBehaviorCounters]) -> np.ndarray:
        """``evaluate`` of every user, as one ``infer_batch``; equal to the
        per-user results bit for bit."""
        trust = self.fis.infer_batch(self._inputs(counters_seq))
        degenerate = np.flatnonzero(np.isnan(trust))
        if degenerate.size:
            raise DegenerateOutputError(
                f"user {counters_seq[degenerate[0]].user_id!r}: no rule fired: aggregated output has zero area"
            )
        return trust

    @classmethod
    def from_cluster_model(cls, model: ClusterModel) -> "UserTrustModel":
        return cls(fis=build_user_fis(model), norm_params=model.norm_params)

    def to_dict(self) -> dict:
        return {
            "format": "user-trust-model",
            "version": 1,
            "fis": self.fis.to_dict(),
            "norm_params": [list(p) for p in self.norm_params],
        }

    @classmethod
    def from_dict(cls, data) -> "UserTrustModel":
        check_format(data, "user-trust-model")
        return cls(
            fis=FuzzyInferenceSystem.from_dict(data["fis"]),
            norm_params=tuple(tuple(p) for p in data["norm_params"]),
        )


def save_user_model(model: UserTrustModel, path) -> None:
    save_artifact(model, path)


def load_user_model(path) -> UserTrustModel:
    return load_artifact(UserTrustModel, path)
