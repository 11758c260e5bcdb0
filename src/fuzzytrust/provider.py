"""Service-provider trust: performance and elasticity engines cascaded
into a final trust engine, plus the negative-feedback ban rule.

The workload and response-time set parameters and all published rule
rows are compiled-in calibration constants.  The elasticity rulebase is
published only partially (14 of 81 rows) and the trust rulebase 9 of
15; the missing combinations are filled deterministically.  An
elasticity row takes the consequent of the nearest published row
(``build_elasticity_fis``); a trust row takes the one score rule
``trust_completion_score``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import DegenerateOutputError, OutOfRangeError
from .fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    Triangular,
    TwoSidedGaussian,
)

FEEDBACK_BAN_THRESHOLD = 0.40

THREE_LEVELS = ("low", "medium", "high")
FIVE_QUALITY = ("very_poor", "poor", "good", "very_good", "excellent")

# Calibration rows: (label, mean_start, mean_end, sd_start, sd_end).
# A zero sd marks a boundary set whose membership stays 1 out to the
# domain edge on that side.
WORKLOAD_QUANTIFICATION = (
    ("very_low", 0.0, 26.0, 0.0, 8.2),
    ("low", 23.0, 41.0, 7.2, 6.95),
    ("medium", 37.0, 65.0, 5.8, 3.9),
    ("high", 62.0, 83.0, 4.6, 6.7),
    ("very_high", 79.0, 100.0, 6.3, 0.0),
)

RESPONSE_QUANTIFICATION = (
    ("instantaneous", 0.0, 7.1, 0.0, 5.2),
    ("fast", 6.0, 19.0, 4.1, 5.3),
    ("medium", 18.5, 40.5, 5.5, 8.5),
    ("slow", 37.5, 62.5, 7.1, 9.4),
    ("very_slow", 60.0, 100.0, 7.8, 0.0),
)

# All 25 workload x response combinations.
PERFORMANCE_RULES = (
    ("very_low", "very_slow", "low"),
    ("very_low", "slow", "low"),
    ("very_low", "medium", "medium"),
    ("very_low", "fast", "medium"),
    ("very_low", "instantaneous", "medium"),
    ("low", "very_slow", "low"),
    ("low", "slow", "medium"),
    ("low", "medium", "medium"),
    ("low", "fast", "medium"),
    ("low", "instantaneous", "medium"),
    ("medium", "very_slow", "medium"),
    ("medium", "slow", "medium"),
    ("medium", "medium", "medium"),
    ("medium", "fast", "medium"),
    ("medium", "instantaneous", "high"),
    ("high", "very_slow", "medium"),
    ("high", "slow", "medium"),
    ("high", "medium", "medium"),
    ("high", "fast", "high"),
    ("high", "instantaneous", "high"),
    ("very_high", "very_slow", "medium"),
    ("very_high", "slow", "medium"),
    ("very_high", "medium", "high"),
    ("very_high", "fast", "high"),
    ("very_high", "instantaneous", "high"),
)

# Published elasticity rows: (scalability, availability, security, usability, elasticity).
ELASTICITY_PUBLISHED_RULES = (
    ("low", "low", "low", "low", "very_poor"),
    ("medium", "low", "low", "medium", "poor"),
    ("medium", "medium", "low", "medium", "good"),
    ("low", "medium", "medium", "low", "poor"),
    ("medium", "low", "medium", "medium", "good"),
    ("high", "low", "low", "high", "poor"),
    ("medium", "medium", "medium", "medium", "good"),
    ("high", "high", "low", "high", "good"),
    ("low", "high", "high", "low", "good"),
    ("high", "low", "high", "high", "very_good"),
    ("high", "medium", "medium", "high", "good"),
    ("medium", "high", "medium", "medium", "good"),
    ("high", "medium", "high", "high", "very_good"),
    ("high", "high", "high", "high", "excellent"),
)

# Published provider-trust rows: (performance, elasticity, trust).
TRUST_PUBLISHED_RULES = (
    ("low", "very_poor", "low"),
    ("low", "good", "low"),
    ("low", "excellent", "medium"),
    ("medium", "poor", "low"),
    ("medium", "good", "medium"),
    ("medium", "very_good", "high"),
    ("high", "very_poor", "medium"),
    ("high", "good", "high"),
    ("high", "excellent", "high"),
)

ELASTICITY_INPUTS = ("scalability", "availability", "security", "usability")
# Level-index distance weights of the elasticity fill, in
# ELASTICITY_INPUTS order: security counts double.
ELASTICITY_COMPLETION_WEIGHTS = (1.0, 1.0, 2.0, 1.0)

# Set geometry for the unit-interval variables.  Input Gaussians are
# sized at 0.2x the center spacing; wider lobes leak enough into
# neighboring rules to drag centroids across label boundaries.
INPUT_SIGMA_3 = 0.1
INPUT_SIGMA_5 = 0.05

# Three-level output partitions pull the boundary apexes inside the
# domain and keep the triangles narrower than the apex spacing.  With
# feet-touching triangles on the domain ends, weakly-fired neighboring
# sets drag the centroid across the argmax boundary and the label no
# longer round-trips at rule prototypes (worst case under the workload
# tables: the label flips for 8 of the 25 rows).
OUTPUT_TRIANGLES_3 = (
    (0.0, 0.2, 0.4),
    (0.3, 0.5, 0.7),
    (0.6, 0.8, 1.0),
)
OUTPUT_TRIANGLES_5 = (
    (0.0, 0.0, 0.25),
    (0.0, 0.25, 0.5),
    (0.25, 0.5, 0.75),
    (0.5, 0.75, 1.0),
    (0.75, 1.0, 1.0),
)

# Each ProviderMetrics field's upper bound; every lower bound is 0.
_METRIC_BOUNDS = (("workload", 100.0), ("response_time", 100.0), ("scalability", 1.0),
                  ("availability", 1.0), ("security", 1.0), ("usability", 1.0))


@dataclass(frozen=True)
class ProviderMetrics:
    """One provider's monitored quality snapshot."""

    workload: float  # percent of capacity per process, 0..100
    response_time: float  # milliseconds, 0..100
    scalability: float  # scores in 0..1
    availability: float
    security: float
    usability: float

    def __post_init__(self):
        for name, hi in _METRIC_BOUNDS:
            value = getattr(self, name)
            if not (0.0 <= value <= hi):
                raise OutOfRangeError(f"{name} must be in [0, {hi:g}], got {value}")


def _unit_gaussian_sets(levels: tuple[str, ...], sigma: float) -> tuple[tuple[str, Gaussian], ...]:
    centers = [i / (len(levels) - 1) for i in range(len(levels))]
    return tuple((label, Gaussian(center, sigma)) for label, center in zip(levels, centers))


def _unit_triangle_sets(levels: tuple[str, ...]) -> tuple[tuple[str, Triangular], ...]:
    params = OUTPUT_TRIANGLES_3 if len(levels) == 3 else OUTPUT_TRIANGLES_5
    return tuple(
        (label, Triangular(*corners)) for label, corners in zip(levels, params)
    )


def _quantified_variable(name: str, rows, domain=(0.0, 100.0)) -> LinguisticVariable:
    """Variable from (label, mean_start, mean_end, sd_start, sd_end) rows.

    A zero sd pins that lobe's center to the domain boundary (the
    partner sd keeps the lobe valid); combined with the plateau this
    holds membership at 1 out to the edge.
    """
    lo, hi = domain
    sets = []
    for label, mean_start, mean_end, sd_start, sd_end in rows:
        if sd_start == 0.0 and sd_end == 0.0:
            raise ValueError(f"set {label!r}: both sds are zero")
        left_center, left_sigma = mean_start, sd_start
        right_center, right_sigma = mean_end, sd_end
        if sd_start == 0.0:
            left_center, left_sigma = lo, sd_end
        if sd_end == 0.0:
            right_center, right_sigma = hi, sd_start
        sets.append((label, TwoSidedGaussian(left_center, left_sigma, right_center, right_sigma)))
    return LinguisticVariable(name=name, domain=domain, sets=tuple(sets))


@lru_cache(maxsize=None)
def build_performance_fis() -> FuzzyInferenceSystem:
    """Workload x response-time engine: 25 rules, output on [0, 1]."""
    workload = _quantified_variable("workload", WORKLOAD_QUANTIFICATION)
    response = _quantified_variable("response_time", RESPONSE_QUANTIFICATION)
    output = LinguisticVariable("performance", (0.0, 1.0), _unit_triangle_sets(THREE_LEVELS))
    rules = tuple(
        FuzzyRule((("workload", w), ("response_time", r)), ("performance", p))
        for w, r, p in PERFORMANCE_RULES
    )
    return FuzzyInferenceSystem(inputs=(workload, response), output=output, rules=rules)


def _nearest_published_fill(combo: tuple[int, ...], published: dict[tuple[int, ...], int]) -> int:
    return min(
        (sum(w * abs(a - b) for w, a, b in zip(ELASTICITY_COMPLETION_WEIGHTS, combo, levels)), out_idx)
        for levels, out_idx in published.items()
    )[1]


@lru_cache(maxsize=None)
def build_elasticity_fis() -> FuzzyInferenceSystem:
    """Scalability/availability/security/usability engine: all 81
    level combinations, the 14 published rows verbatim and each other
    row the consequent of the closest published row under the
    ``ELASTICITY_COMPLETION_WEIGHTS`` level-index distance, ties toward
    the lower output index.
    """
    inputs = tuple(
        LinguisticVariable(name, (0.0, 1.0), _unit_gaussian_sets(THREE_LEVELS, INPUT_SIGMA_3))
        for name in ELASTICITY_INPUTS
    )
    output = LinguisticVariable("elasticity", (0.0, 1.0), _unit_triangle_sets(FIVE_QUALITY))

    published = {}
    for sc, a, s, u, e in ELASTICITY_PUBLISHED_RULES:
        combo = tuple(THREE_LEVELS.index(level) for level in (sc, a, s, u))
        published[combo] = FIVE_QUALITY.index(e)

    rules = []
    for combo in itertools.product(range(3), repeat=4):
        out_idx = published[combo] if combo in published else _nearest_published_fill(combo, published)
        antecedents = tuple(
            (name, THREE_LEVELS[level]) for name, level in zip(ELASTICITY_INPUTS, combo)
        )
        rules.append(FuzzyRule(antecedents, ("elasticity", FIVE_QUALITY[out_idx])))
    return FuzzyInferenceSystem(inputs=inputs, output=output, rules=tuple(rules))


def trust_completion_score(perf_index: int, elasticity_index: int) -> str:
    """Completion rule for the provider-trust rulebase.

    The score 2*performance + elasticity with cutoffs (<=3 low, ==4
    medium, >=5 high) reproduces every published row; Tier-1 asserts
    that consistency, and the build keeps the published rows verbatim.
    """
    score = 2 * perf_index + elasticity_index
    if score <= 3:
        return "low"
    if score == 4:
        return "medium"
    return "high"


@lru_cache(maxsize=None)
def build_provider_trust_fis() -> FuzzyInferenceSystem:
    """Performance x elasticity engine: 15 rules (9 published + 6 scored)."""
    perf_var = LinguisticVariable(
        "performance", (0.0, 1.0), _unit_gaussian_sets(THREE_LEVELS, INPUT_SIGMA_3)
    )
    elast_var = LinguisticVariable(
        "elasticity", (0.0, 1.0), _unit_gaussian_sets(FIVE_QUALITY, INPUT_SIGMA_5)
    )
    output = LinguisticVariable("trust", (0.0, 1.0), _unit_triangle_sets(THREE_LEVELS))

    published = {
        (THREE_LEVELS.index(p), FIVE_QUALITY.index(e)): t for p, e, t in TRUST_PUBLISHED_RULES
    }
    rules = []
    for perf_idx, elast_idx in itertools.product(range(3), range(5)):
        label = published.get((perf_idx, elast_idx)) or trust_completion_score(perf_idx, elast_idx)
        rules.append(
            FuzzyRule(
                (("performance", THREE_LEVELS[perf_idx]), ("elasticity", FIVE_QUALITY[elast_idx])),
                ("trust", label),
            )
        )
    return FuzzyInferenceSystem(inputs=(perf_var, elast_var), output=output, rules=tuple(rules))


@dataclass(frozen=True)
class ProviderAssessment:
    performance: float
    elasticity: float
    trust: float


def _stage(name: str, fis: FuzzyInferenceSystem, inputs: dict[str, float]) -> float:
    """``fis.infer(inputs)``; a degenerate output names the cascade stage."""
    try:
        return fis.infer(inputs)
    except DegenerateOutputError as exc:
        raise DegenerateOutputError(f"{name} stage: {exc}") from exc


def evaluate_provider(metrics: ProviderMetrics) -> ProviderAssessment:
    """Run the full cascade; every stage output lies in [0, 1]."""
    performance = _stage(
        "performance",
        build_performance_fis(),
        {"workload": metrics.workload, "response_time": metrics.response_time},
    )
    elasticity = _stage(
        "elasticity",
        build_elasticity_fis(),
        {
            "scalability": metrics.scalability,
            "availability": metrics.availability,
            "security": metrics.security,
            "usability": metrics.usability,
        },
    )
    trust = _stage(
        "trust", build_provider_trust_fis(), {"performance": performance, "elasticity": elasticity}
    )
    return ProviderAssessment(performance=performance, elasticity=elasticity, trust=trust)


def feedback_ban(negative_ratio: float) -> bool:
    """Ban a provider whose negative-feedback share strictly exceeds 40%."""
    if not (0.0 <= negative_ratio <= 1.0):
        raise OutOfRangeError(f"negative feedback ratio must be in [0, 1], got {negative_ratio}")
    return negative_ratio > FEEDBACK_BAN_THRESHOLD
