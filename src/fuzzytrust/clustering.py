"""Fuzzy C-means over normalized feature matrices.

Produces a ClusterModel (centers, per-dimension fuzzy spreads,
normalization parameters) that downstream code turns into a Mamdani
rulebase.  Fitting is plain alternating optimization with a seeded
random membership initialization, so a fixed seed gives bit-identical
models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError, NonFiniteDataError, TooFewPointsError
from .store import check_format

SPREAD_FLOOR = 0.01  # keeps generated Gaussian input sets non-degenerate


@dataclass(frozen=True)
class ClusterConfig:
    c: int = 25
    m: float = 2.0
    tol: float = 1e-6
    max_iter: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise ValueError(f"cluster count must be >= 1, got {self.c}")
        if not (self.m > 1.0):
            raise ValueError(f"fuzzifier must be > 1, got {self.m}")
        if not (self.tol > 0.0):
            raise ValueError(f"tolerance must be > 0, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")

    def to_dict(self) -> dict:
        return {"c": self.c, "m": self.m, "tol": self.tol, "max_iter": self.max_iter, "seed": self.seed}


@dataclass(frozen=True, eq=False)
class ClusterModel:
    """Fitted cluster geometry in normalized [0, 1] feature space."""

    centers: np.ndarray  # c x d
    spreads: np.ndarray  # c x d, floored at SPREAD_FLOOR
    norm_params: tuple[tuple[float, float], ...]  # per-dimension (min, max)
    m: float
    objective_trace: tuple[float, ...]
    config: ClusterConfig

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float)
        spreads = np.asarray(self.spreads, dtype=float)
        norm_params = tuple((float(a), float(b)) for a, b in self.norm_params)
        if centers.ndim != 2 or spreads.shape != centers.shape:
            raise ValueError(
                f"centers and spreads must be 2-D arrays of one shape, got {centers.shape} and {spreads.shape}"
            )
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(spreads))):
            raise ValueError("centers and spreads must be finite")
        if not np.all(spreads > 0.0):
            raise ValueError(f"spreads must be > 0, got {spreads.min()}")
        if len(norm_params) != centers.shape[1]:
            raise ValueError(f"need one norm_params pair per dimension ({centers.shape[1]}), got {len(norm_params)}")
        centers.setflags(write=False)
        spreads.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "spreads", spreads)
        object.__setattr__(self, "norm_params", norm_params)
        object.__setattr__(self, "objective_trace", tuple(float(v) for v in self.objective_trace))

    @property
    def c(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    def to_dict(self) -> dict:
        return {
            "format": "cluster-model",
            "version": 1,
            "centers": self.centers.tolist(),
            "spreads": self.spreads.tolist(),
            "norm_params": [list(p) for p in self.norm_params],
            "m": self.m,
            "objective_trace": list(self.objective_trace),
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data) -> "ClusterModel":
        check_format(data, "cluster-model")
        return cls(
            centers=np.array(data["centers"], dtype=float),
            spreads=np.array(data["spreads"], dtype=float),
            norm_params=tuple(tuple(p) for p in data["norm_params"]),
            m=float(data["m"]),
            objective_trace=tuple(data["objective_trace"]),
            config=ClusterConfig(**data["config"]),
        )


def normalize(data: np.ndarray) -> tuple[np.ndarray, tuple[tuple[float, float], ...]]:
    """Min-max scale each column into [0, 1].

    Constant columns map to 0.5 uniformly; their recorded (min, max)
    still allows apply_normalization to reproduce that choice.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDataError("normalize requires a non-empty 2-D matrix")
    if not np.all(np.isfinite(data)):
        raise NonFiniteDataError("normalize requires finite values")
    mins = data.min(axis=0)
    maxs = data.max(axis=0)
    params = tuple((float(mn), float(mx)) for mn, mx in zip(mins, maxs))
    return apply_normalization(data, params), params


def apply_normalization(data: np.ndarray, norm_params) -> np.ndarray:
    """Scale columns with stored (min, max), clamping into [0, 1]."""
    mn, mx = np.array(norm_params, dtype=float).reshape(-1, 2).T
    varying = mx > mn
    # a constant column is scaled as (x - 0) / (1 - 0), which cannot overflow, then set to 0.5
    mn, mx = np.where(varying, mn, 0.0), np.where(varying, mx, 1.0)
    scaled = (np.asarray(data, dtype=float) - mn) / (mx - mn)
    return np.where(varying, np.minimum(np.maximum(scaled, 0.0), 1.0), 0.5)


def _membership_from_sq_distances(d2: np.ndarray, m: float) -> np.ndarray:
    """Standard FCM membership update from squared distances (n x c).

    A point at distance zero from some center gets full membership in
    the nearest coincident center (lowest index on ties).
    """
    exponent = 1.0 / (m - 1.0)
    with np.errstate(divide="ignore"):
        inv = d2 ** -exponent
    hits = d2 == 0.0
    if not hits.any():
        return inv / inv.sum(axis=1, keepdims=True)
    U = np.empty_like(d2)
    singular = hits.any(axis=1)
    regular = ~singular
    U[regular] = inv[regular] / inv[regular].sum(axis=1, keepdims=True)
    U[singular] = 0.0
    U[np.where(singular)[0], np.argmax(hits[singular], axis=1)] = 1.0
    return U


def _sq_distances(X: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (n x c), summed one column at a time
    in column order: the order in which ``.sum(axis=2)`` adds fewer than
    eight terms, so for d < 8 the result is bit-identical to it, without
    its n x c x d temporary."""
    d2 = (X[:, 0, None] - centers[None, :, 0]) ** 2
    for j in range(1, X.shape[1]):
        d2 += (X[:, j, None] - centers[None, :, j]) ** 2
    return d2


def fcm_fit(
    data: np.ndarray,
    cfg: ClusterConfig,
    norm_params: tuple[tuple[float, float], ...] | None = None,
) -> ClusterModel:
    """Alternate membership/center updates until the objective decrease
    drops below ``cfg.tol`` or ``cfg.max_iter`` is reached.

    ``data`` is expected in normalized [0, 1] coordinates; pass the
    ``norm_params`` that produced it so the model can renormalize new
    points later (identity per dimension when omitted).

    Squared distances are accumulated column by column (``_sq_distances``)
    rather than from an n x c x d difference array: building that array
    was over half of each iteration, and adding the columns in order keeps
    every distance, and so every model, bit-identical to the array sum for
    the five-column user matrix.  The expansion |x|^2 - 2 x.c + |c|^2 would
    be cheaper still but rounds differently and loses the exact zero the
    membership update tests for a point on a center.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyDataError("fcm_fit requires a non-empty 2-D matrix")
    if not np.all(np.isfinite(X)):
        raise NonFiniteDataError("fcm_fit requires finite values")
    n, d = X.shape
    if n < cfg.c:
        raise TooFewPointsError(f"need at least {cfg.c} points for {cfg.c} clusters, got {n}")
    if norm_params is None:
        norm_params = tuple((0.0, 1.0) for _ in range(d))

    rng = np.random.default_rng(cfg.seed)
    U = rng.random((n, cfg.c))
    U /= U.sum(axis=1, keepdims=True)

    centers = np.zeros((cfg.c, d))
    trace: list[float] = []
    Um = U ** cfg.m
    for _ in range(cfg.max_iter):
        weight = Um.sum(axis=0)
        new_centers = (Um.T @ X) / np.where(weight > 0.0, weight, 1.0)[:, None]
        centers = np.where(weight[:, None] > 0.0, new_centers, centers)
        d2 = _sq_distances(X, centers)
        U = _membership_from_sq_distances(d2, cfg.m)
        Um = U ** cfg.m  # the objective's weights and the next centers'
        objective = float((Um * d2).sum())
        trace.append(objective)
        if len(trace) > 1 and abs(trace[-2] - trace[-1]) < cfg.tol:
            break

    weight = Um.sum(axis=0)
    diffs = X[:, None, :] - centers[None, :, :]
    variance = (Um[:, :, None] * diffs ** 2).sum(axis=0) / np.where(weight > 0.0, weight, 1.0)[:, None]
    spreads = np.maximum(np.sqrt(variance), SPREAD_FLOOR)

    return ClusterModel(
        centers=centers,
        spreads=spreads,
        norm_params=norm_params,
        m=cfg.m,
        objective_trace=tuple(trace),
        config=cfg,
    )
