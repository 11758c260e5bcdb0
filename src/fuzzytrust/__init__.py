"""Fuzzy trust evaluation for cloud access control.

Two trust models share one Mamdani inference core: a user-side model
that scores HTTP request behavior (a weighted-rate baseline plus a
cluster-derived fuzzy system) and a provider-side model that cascades
performance and elasticity engines into a final trust value.  A small
HTTP service renders grant/deny decisions from either model.
"""

from .clustering import ClusterConfig, ClusterModel, fcm_fit, normalize
from .errors import FuzzyTrustError
from .evaluation import EvaluationReport, classification_metrics, compare
from .fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    MembershipFunction,
    Triangular,
    TwoSidedGaussian,
)
from .ingest import CorpusSpec, generate_corpus, ingest_log
from .provider import (
    ProviderMetrics,
    build_elasticity_fis,
    build_performance_fis,
    build_provider_trust_fis,
    evaluate_provider,
    feedback_ban,
)
from .store import TrustRecord, TrustStore
from .user import (
    UserBehaviorCounters,
    UserTrustModel,
    baseline_trust,
    build_user_fis,
    classify,
    fit_user_clusters,
)

__version__ = "0.1.0"

__all__ = [
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
