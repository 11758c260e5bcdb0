import hashlib
import itertools
import json

import numpy as np
import pytest

from fuzzytrust.errors import DegenerateOutputError, OutOfRangeError
from fuzzytrust.evaluation import spearman
from fuzzytrust.fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    Triangular,
    TwoSidedGaussian,
)
from fuzzytrust.provider import (
    ELASTICITY_PUBLISHED_RULES,
    PERFORMANCE_RULES,
    TRUST_PUBLISHED_RULES,
    ProviderMetrics,
    _quantified_variable,
    build_elasticity_fis,
    build_performance_fis,
    build_provider_trust_fis,
    evaluate_provider,
    feedback_ban,
    trust_completion_score,
)

# Calibration tables re-encoded here as independent fixtures so an edit
# to the production constants cannot silently pass.
WORKLOAD_TABLE = {
    "very_low": (0.0, 26.0, 0.0, 8.2),
    "low": (23.0, 41.0, 7.2, 6.95),
    "medium": (37.0, 65.0, 5.8, 3.9),
    "high": (62.0, 83.0, 4.6, 6.7),
    "very_high": (79.0, 100.0, 6.3, 0.0),
}
RESPONSE_TABLE = {
    "instantaneous": (0.0, 7.1, 0.0, 5.2),
    "fast": (6.0, 19.0, 4.1, 5.3),
    "medium": (18.5, 40.5, 5.5, 8.5),
    "slow": (37.5, 62.5, 7.1, 9.4),
    "very_slow": (60.0, 100.0, 7.8, 0.0),
}
PERFORMANCE_TABLE = {
    ("very_low", "very_slow"): "low",
    ("very_low", "slow"): "low",
    ("very_low", "medium"): "medium",
    ("very_low", "fast"): "medium",
    ("very_low", "instantaneous"): "medium",
    ("low", "very_slow"): "low",
    ("low", "slow"): "medium",
    ("low", "medium"): "medium",
    ("low", "fast"): "medium",
    ("low", "instantaneous"): "medium",
    ("medium", "very_slow"): "medium",
    ("medium", "slow"): "medium",
    ("medium", "medium"): "medium",
    ("medium", "fast"): "medium",
    ("medium", "instantaneous"): "high",
    ("high", "very_slow"): "medium",
    ("high", "slow"): "medium",
    ("high", "medium"): "medium",
    ("high", "fast"): "high",
    ("high", "instantaneous"): "high",
    ("very_high", "very_slow"): "medium",
    ("very_high", "slow"): "medium",
    ("very_high", "medium"): "high",
    ("very_high", "fast"): "high",
    ("very_high", "instantaneous"): "high",
}
ELASTICITY_TABLE = {
    ("low", "low", "low", "low"): "very_poor",
    ("medium", "low", "low", "medium"): "poor",
    ("medium", "medium", "low", "medium"): "good",
    ("low", "medium", "medium", "low"): "poor",
    ("medium", "low", "medium", "medium"): "good",
    ("high", "low", "low", "high"): "poor",
    ("medium", "medium", "medium", "medium"): "good",
    ("high", "high", "low", "high"): "good",
    ("low", "high", "high", "low"): "good",
    ("high", "low", "high", "high"): "very_good",
    ("high", "medium", "medium", "high"): "good",
    ("medium", "high", "medium", "medium"): "good",
    ("high", "medium", "high", "high"): "very_good",
    ("high", "high", "high", "high"): "excellent",
}
TRUST_TABLE = {
    ("low", "very_poor"): "low",
    ("low", "good"): "low",
    ("low", "excellent"): "medium",
    ("medium", "poor"): "low",
    ("medium", "good"): "medium",
    ("medium", "very_good"): "high",
    ("high", "very_poor"): "medium",
    ("high", "good"): "high",
    ("high", "excellent"): "high",
}


def rulebase_map(fis: FuzzyInferenceSystem) -> dict:
    mapping = {}
    for rule in fis.rules:
        key = tuple(label for _, label in rule.antecedents)
        mapping[key] = rule.consequent[1]
    return mapping


def prototype(mf) -> float:
    """The input a set stands for: a Gaussian's center, a plateau's midpoint."""
    if isinstance(mf, Gaussian):
        return mf.center
    assert isinstance(mf, TwoSidedGaussian)
    return 0.5 * (mf.left_center + mf.right_center)


def prototype_inputs(fis: FuzzyInferenceSystem, labels: tuple[str, ...]) -> dict:
    return {variable.name: prototype(variable.mf(label)) for variable, label in zip(fis.inputs, labels)}


def rulebase_sha256(fis: FuzzyInferenceSystem) -> str:
    return hashlib.sha256(json.dumps(fis.to_dict(), sort_keys=True).encode()).hexdigest()


class TestPerformanceFis:
    def test_rulebase_matches_table_verbatim(self):
        fis = build_performance_fis()
        assert len(fis.rules) == 25
        assert rulebase_map(fis) == PERFORMANCE_TABLE

    def test_variable_structure(self):
        fis = build_performance_fis()
        workload, response = fis.inputs
        assert workload.domain == (0.0, 100.0)
        assert response.domain == (0.0, 100.0)
        assert len(workload.sets) == 5 and len(response.sets) == 5
        assert len(fis.output.sets) == 3

    def test_interior_sets_match_quantification_rows(self):
        workload, response = build_performance_fis().inputs
        for var, table in ((workload, WORKLOAD_TABLE), (response, RESPONSE_TABLE)):
            for label, (m_start, m_end, sd_start, sd_end) in table.items():
                mf = var.mf(label)
                assert isinstance(mf, TwoSidedGaussian)
                if sd_start > 0.0:
                    assert (mf.left_center, mf.left_sigma) == (m_start, sd_start)
                if sd_end > 0.0:
                    assert (mf.right_center, mf.right_sigma) == (m_end, sd_end)

    def test_zero_sd_edges_stay_flat_to_boundary(self):
        workload, response = build_performance_fis().inputs
        # membership holds at 1 from the plateau edge to the domain edge
        for x in (0.0, 5.0, 13.0, 26.0):
            assert workload.mf("very_low")(x) == 1.0
        for x in (79.0, 90.0, 100.0):
            assert workload.mf("very_high")(x) == 1.0
        for x in (0.0, 3.0, 7.1):
            assert response.mf("instantaneous")(x) == 1.0
        for x in (60.0, 80.0, 100.0):
            assert response.mf("very_slow")(x) == 1.0
        with pytest.raises(ValueError, match="'flat': both sds are zero"):  # no lobe is left to keep the set valid
            _quantified_variable("workload", [("flat", 20.0, 40.0, 0.0, 0.0)])

    def test_prototype_argmax_round_trips_every_rule(self):
        fis = build_performance_fis()
        for (w, r), expected in PERFORMANCE_TABLE.items():
            assert fis.dominant_label(prototype_inputs(fis, (w, r))) == expected

    def test_known_operating_points(self):
        fis = build_performance_fis()
        assert fis.dominant_label({"workload": 90.0, "response_time": 3.0}) == "high"
        assert fis.dominant_label({"workload": 10.0, "response_time": 90.0}) == "low"
        assert fis.dominant_label({"workload": 12.0, "response_time": 80.0}) == "low"


class TestElasticityFis:
    def test_full_lattice_with_published_rows_verbatim(self):
        fis = build_elasticity_fis()
        mapping = rulebase_map(fis)
        assert len(mapping) == 81
        assert set(mapping) == set(itertools.product(("low", "medium", "high"), repeat=4))
        for combo, expected in ELASTICITY_TABLE.items():
            assert mapping[combo] == expected

    def test_completion_is_deterministic(self):
        # two fresh builds, past the cache
        assert build_elasticity_fis.__wrapped__() == build_elasticity_fis.__wrapped__()

    @pytest.mark.parametrize(
        "digest", ["ff527e14a45b7e08f4e22fc3bd166bd0c10cf5f8f2946ff7cbb273622785cc8f"], ids=["default"]
    )
    def test_rulebase_pinned(self, digest):
        assert rulebase_sha256(build_elasticity_fis.__wrapped__()) == digest

    def test_prototype_argmax_round_trips_published_rows(self):
        fis = build_elasticity_fis()
        for combo, expected in ELASTICITY_TABLE.items():
            assert fis.dominant_label(prototype_inputs(fis, combo)) == expected

    def test_security_trend_non_negative(self):
        fis = build_elasticity_fis()
        svals = np.linspace(0.0, 1.0, 25)
        z = [
            fis.infer(
                {"scalability": 0.5, "availability": 0.5, "security": float(s), "usability": 0.5}
            )
            for s in svals
        ]
        assert spearman(svals, z) >= 0.0


class TestTrustFis:
    def test_fifteen_rules_with_published_rows_verbatim(self):
        fis = build_provider_trust_fis()
        mapping = rulebase_map(fis)
        assert len(mapping) == 15
        for combo, expected in TRUST_TABLE.items():
            assert mapping[combo] == expected

    def test_completion_score_reproduces_every_published_row(self):
        levels3 = ("low", "medium", "high")
        levels5 = ("very_poor", "poor", "good", "very_good", "excellent")
        for (perf, elast), expected in TRUST_TABLE.items():
            assert trust_completion_score(levels3.index(perf), levels5.index(elast)) == expected

    def test_completed_rows(self):
        assert trust_completion_score(0, 1) == "low"  # low performance, poor elasticity
        assert trust_completion_score(2, 3) == "high"  # high performance, very good elasticity
        assert trust_completion_score(1, 4) == "high"  # medium performance, excellent elasticity
        assert trust_completion_score(1, 0) == "low"

    def test_prototype_argmax_round_trips_published_rows(self):
        fis = build_provider_trust_fis()
        for combo, expected in TRUST_TABLE.items():
            assert fis.dominant_label(prototype_inputs(fis, combo)) == expected


class TestProviderMetrics:
    def test_validation(self):
        with pytest.raises(OutOfRangeError):
            ProviderMetrics(workload=101, response_time=10, scalability=0.5, availability=0.5, security=0.5, usability=0.5)
        with pytest.raises(OutOfRangeError):
            ProviderMetrics(workload=10, response_time=10, scalability=1.5, availability=0.5, security=0.5, usability=0.5)


class TestEvaluateProvider:
    def test_all_high_cascade(self):
        metrics = ProviderMetrics(
            workload=90.0, response_time=3.0, scalability=1.0, availability=1.0, security=1.0, usability=1.0
        )
        result = evaluate_provider(metrics)
        assert 0.0 <= result.performance <= 1.0
        assert 0.0 <= result.elasticity <= 1.0
        trust_fis = build_provider_trust_fis()
        assert (
            trust_fis.dominant_label({"performance": result.performance, "elasticity": result.elasticity})
            == "high"
        )

    def test_all_low_cascade(self):
        metrics = ProviderMetrics(
            workload=12.0, response_time=80.0, scalability=0.0, availability=0.0, security=0.0, usability=0.0
        )
        result = evaluate_provider(metrics)
        trust_fis = build_provider_trust_fis()
        assert (
            trust_fis.dominant_label({"performance": result.performance, "elasticity": result.elasticity})
            == "low"
        )
        assert result.trust < 0.5

    def test_outputs_always_in_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            metrics = ProviderMetrics(
                workload=float(rng.uniform(0, 100)),
                response_time=float(rng.uniform(0, 100)),
                scalability=float(rng.random()),
                availability=float(rng.random()),
                security=float(rng.random()),
                usability=float(rng.random()),
            )
            result = evaluate_provider(metrics)
            for value in (result.performance, result.elasticity, result.trust):
                assert 0.0 <= value <= 1.0

    def test_deterministic(self):
        metrics = ProviderMetrics(
            workload=55.0, response_time=22.0, scalability=0.7, availability=0.4, security=0.9, usability=0.6
        )
        assert evaluate_provider(metrics) == evaluate_provider(metrics)

    def test_degenerate_stage_is_identified(self, monkeypatch):
        import fuzzytrust.provider as prov

        # an elasticity engine with a coverage hole: triangular inputs miss x=1
        inputs = tuple(
            LinguisticVariable(name, (0.0, 1.0), (("lo", Triangular(0.0, 0.0, 0.5)),))
            for name in ("scalability", "availability", "security", "usability")
        )
        broken = FuzzyInferenceSystem(
            inputs=inputs,
            output=LinguisticVariable("elasticity", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),)),
            rules=(
                FuzzyRule(
                    tuple((v.name, "lo") for v in inputs),
                    ("elasticity", "mid"),
                ),
            ),
        )
        metrics = ProviderMetrics(
            workload=50.0, response_time=50.0, scalability=1.0, availability=1.0, security=1.0, usability=1.0
        )
        monkeypatch.setattr(prov, "build_elasticity_fis", lambda: broken)
        with pytest.raises(DegenerateOutputError, match="elasticity stage"):
            evaluate_provider(metrics)


class TestFeedbackBan:
    def test_boundary_semantics(self):
        assert feedback_ban(0.41) is True
        assert feedback_ban(0.40) is False
        assert feedback_ban(0.0) is False
        assert feedback_ban(1.0) is True

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            feedback_ban(-0.1)
        with pytest.raises(OutOfRangeError):
            feedback_ban(1.1)


class TestCompletionPolicyInternals:
    def test_incomplete_policy_detected(self, monkeypatch):
        import fuzzytrust.provider as prov

        monkeypatch.setattr(
            prov, "ELASTICITY_PUBLISHED_RULES", prov.ELASTICITY_PUBLISHED_RULES[:3]
        )
        prov.build_elasticity_fis.cache_clear()
        try:
            fis = prov.build_elasticity_fis()  # still completes: the fill copies from 3 rows
            assert len(fis.rules) == 81
        finally:
            prov.build_elasticity_fis.cache_clear()
