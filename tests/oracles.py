"""Independent oracles and random fixtures used by the test suite.

The inference oracle re-implements the whole Mamdani pipeline from the
membership formulas up: its own set evaluation, per-rule clipping (no
grouping by consequent), running pointwise max, and a Riemann-sample
centroid on an arbitrarily fine grid.  It never calls into the
package's inference path.

The FCM oracle is the plain alternating loop (Bezdek, Ehrlich & Full,
*Computers & Geosciences* 10(2-3), 1984) with an (n, c, d) difference
array and masked membership copies on every iteration; ``fcm_fit`` must
give its model dictionary exactly.

The Spearman oracle ranks by sorting and walking runs of equal values
(tied values share the mean of their ranks), then takes the Pearson
correlation of the ranks, all in plain Python floats.
"""

from __future__ import annotations

import math

import numpy as np

from fuzzytrust.fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    Triangular,
    TwoSidedGaussian,
)


class OracleDegenerate(Exception):
    pass


def oracle_degree(mf, x: float) -> float:
    """Scalar membership evaluation written independently of the package."""
    if isinstance(mf, Gaussian):
        return math.exp(-((x - mf.center) ** 2) / (2.0 * mf.sigma**2))
    if isinstance(mf, TwoSidedGaussian):
        if x < mf.left_center:
            return math.exp(-((x - mf.left_center) ** 2) / (2.0 * mf.left_sigma**2))
        if x > mf.right_center:
            return math.exp(-((x - mf.right_center) ** 2) / (2.0 * mf.right_sigma**2))
        return 1.0
    if isinstance(mf, Triangular):
        if x < mf.left or x > mf.right:
            return 0.0
        if x == mf.apex:
            return 1.0
        if x < mf.apex:
            return (x - mf.left) / (mf.apex - mf.left)
        return (mf.right - x) / (mf.right - mf.apex)
    raise TypeError(f"unknown membership function {type(mf)}")


def _oracle_degree_grid(mf, xs: np.ndarray) -> np.ndarray:
    if isinstance(mf, Gaussian):
        return np.exp(-((xs - mf.center) ** 2) / (2.0 * mf.sigma**2))
    if isinstance(mf, TwoSidedGaussian):
        left = np.exp(-((xs - mf.left_center) ** 2) / (2.0 * mf.left_sigma**2))
        right = np.exp(-((xs - mf.right_center) ** 2) / (2.0 * mf.right_sigma**2))
        out = np.ones_like(xs)
        out[xs < mf.left_center] = left[xs < mf.left_center]
        out[xs > mf.right_center] = right[xs > mf.right_center]
        return out
    if isinstance(mf, Triangular):
        out = np.zeros_like(xs)
        if mf.apex > mf.left:
            mask = (xs >= mf.left) & (xs <= mf.apex)
            out[mask] = (xs[mask] - mf.left) / (mf.apex - mf.left)
        else:
            out[xs == mf.apex] = 1.0
        if mf.right > mf.apex:
            mask = (xs > mf.apex) & (xs <= mf.right)
            out[mask] = (mf.right - xs[mask]) / (mf.right - mf.apex)
        elif mf.apex > mf.left:
            out[xs == mf.apex] = 1.0
        return out
    raise TypeError(f"unknown membership function {type(mf)}")


def oracle_infer(fis: FuzzyInferenceSystem, inputs: dict[str, float], samples: int = 1_000_000) -> float:
    """Brute-force Mamdani: clip every rule's consequent at its firing
    strength, max-aggregate across rules, take the sampled centroid."""
    variables = {v.name: v for v in fis.inputs}
    lo, hi = fis.output.domain
    xs = np.linspace(lo, hi, samples)
    label_grids = {
        label: _oracle_degree_grid(mf, xs) for label, mf in fis.output.sets
    }  # memoized per label; rules are still clipped one by one
    agg = np.zeros(samples)
    clipped = np.empty(samples)
    for rule in fis.rules:
        strength = 1.0
        for var_name, label in rule.antecedents:
            var = variables[var_name]
            x = min(max(inputs[var_name], var.domain[0]), var.domain[1])
            strength = min(strength, oracle_degree(var.mf(label), x))
        np.minimum(strength, label_grids[rule.consequent[1]], out=clipped)
        np.maximum(agg, clipped, out=agg)
    area = float(agg.sum())
    if area == 0.0:
        raise OracleDegenerate("no rule fired")
    return float(np.dot(xs, agg) / area)


def random_fis(rng: np.random.Generator, max_rules: int = 100) -> FuzzyInferenceSystem:
    """Random well-conditioned system: <=4 inputs, <=5 sets per variable,
    <=``max_rules`` rules, each set drawn from the three shape families
    (Gaussian, triangular, two-sided Gaussian)."""
    n_inputs = int(rng.integers(1, 5))

    def random_domain():
        lo = float(rng.uniform(-50.0, 50.0))
        return (lo, lo + float(rng.uniform(1.0, 100.0)))

    def random_set(domain):
        lo, hi = domain
        span = hi - lo
        center = float(rng.uniform(lo, hi))
        kind = rng.integers(0, 3)
        if kind == 0:
            return Gaussian(center, float(rng.uniform(0.05, 0.3)) * span)
        if kind == 1:
            halfwidth = float(rng.uniform(0.08, 0.5)) * span
            return Triangular(center - halfwidth, center, center + halfwidth)
        plateau = float(rng.uniform(0.05, 0.3)) * span
        return TwoSidedGaussian(
            center - plateau / 2,
            float(rng.uniform(0.05, 0.3)) * span,
            center + plateau / 2,
            float(rng.uniform(0.05, 0.3)) * span,
        )

    def random_variable(name):
        domain = random_domain()
        n_sets = int(rng.integers(2, 6))
        sets = tuple((f"{name}_s{i}", random_set(domain)) for i in range(n_sets))
        return LinguisticVariable(name, domain, sets)

    inputs = tuple(random_variable(f"in{i}") for i in range(n_inputs))
    output = random_variable("out")

    n_rules = 1 + int((max_rules - 1) * rng.random() ** 2)
    rules = []
    for _ in range(n_rules):
        used = [v for v in inputs if rng.random() < 0.8]
        if not used:
            used = [inputs[int(rng.integers(0, n_inputs))]]
        antecedents = tuple((v.name, v.labels[int(rng.integers(0, len(v.labels)))]) for v in used)
        consequent = ("out", output.labels[int(rng.integers(0, len(output.labels)))])
        rules.append(FuzzyRule(antecedents, consequent))
    return FuzzyInferenceSystem(inputs=inputs, output=output, rules=tuple(rules))


def random_inputs(rng: np.random.Generator, fis: FuzzyInferenceSystem) -> dict[str, float]:
    return {v.name: float(rng.uniform(*v.domain)) for v in fis.inputs}


def oracle_fcm(X: np.ndarray, cfg, norm_params) -> dict:
    """The ``centers``, ``spreads``, ``norm_params`` and ``objective_trace``
    the fit ``fcm_fit(X, cfg, norm_params)`` should give, by the
    straightforward loop."""
    n, d = X.shape
    exponent = 1.0 / (cfg.m - 1.0)

    def memberships(d2):
        with np.errstate(divide="ignore"):
            inv = d2 ** -exponent
        U = np.empty_like(d2)
        singular = (d2 == 0.0).any(axis=1)
        regular = ~singular
        U[regular] = inv[regular] / inv[regular].sum(axis=1, keepdims=True)
        if singular.any():
            U[singular] = 0.0
            U[np.where(singular)[0], np.argmax(d2[singular] == 0.0, axis=1)] = 1.0
        return U

    rng = np.random.default_rng(cfg.seed)
    U = rng.random((n, cfg.c))
    U /= U.sum(axis=1, keepdims=True)
    centers = np.zeros((cfg.c, d))
    trace = []
    for _ in range(cfg.max_iter):
        Um = U**cfg.m
        weight = Um.sum(axis=0)
        new_centers = (Um.T @ X) / np.where(weight > 0.0, weight, 1.0)[:, None]
        centers = np.where(weight[:, None] > 0.0, new_centers, centers)
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        U = memberships(d2)
        trace.append(float(((U**cfg.m) * d2).sum()))
        if len(trace) > 1 and abs(trace[-2] - trace[-1]) < cfg.tol:
            break

    Um = U**cfg.m
    weight = Um.sum(axis=0)
    diffs = X[:, None, :] - centers[None, :, :]
    variance = (Um[:, :, None] * diffs**2).sum(axis=0) / np.where(weight > 0.0, weight, 1.0)[:, None]
    return {
        "centers": centers,
        "spreads": np.maximum(np.sqrt(variance), 0.01),
        "norm_params": tuple((float(a), float(b)) for a, b in norm_params),
        "objective_trace": tuple(trace),
    }


def oracle_spearman(xs, ys) -> float:
    """Spearman rho with average ranks for ties, in plain Python."""

    def ranks(values):
        values = [float(v) for v in values]
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        start = 0
        while start < len(order):
            end = start
            while end + 1 < len(order) and values[order[end + 1]] == values[order[start]]:
                end += 1
            for i in order[start : end + 1]:
                out[i] = (start + 1 + end + 1) / 2.0  # mean of ranks start+1 .. end+1
            start = end + 1
        return out

    rx, ry = ranks(xs), ranks(ys)
    mx, my = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = sum((a - mx) ** 2 for a in rx)
    vy = sum((b - my) ** 2 for b in ry)
    return cov / math.sqrt(vx * vy)
