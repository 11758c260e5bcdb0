"""The package's public names, pinned: a change to ``fuzzytrust.__all__``
has to change this list too."""

import fuzzytrust

PUBLIC_NAMES = [
    "ClusterConfig",
    "ClusterModel",
    "CorpusSpec",
    "EvaluationReport",
    "FuzzyInferenceSystem",
    "FuzzyRule",
    "FuzzyTrustError",
    "Gaussian",
    "LinguisticVariable",
    "MembershipFunction",
    "ProviderMetrics",
    "Triangular",
    "TrustRecord",
    "TrustStore",
    "TwoSidedGaussian",
    "UserBehaviorCounters",
    "UserTrustModel",
    "baseline_trust",
    "build_elasticity_fis",
    "build_performance_fis",
    "build_provider_trust_fis",
    "build_user_fis",
    "classification_metrics",
    "classify",
    "compare",
    "evaluate_provider",
    "fcm_fit",
    "feedback_ban",
    "fit_user_clusters",
    "generate_corpus",
    "ingest_log",
    "normalize",
]


def test_public_names_pinned():
    assert sorted(fuzzytrust.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    missing = [name for name in fuzzytrust.__all__ if not hasattr(fuzzytrust, name)]
    assert missing == []
