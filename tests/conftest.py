import numpy as np
import pytest

from fuzzytrust import store as store_module
from fuzzytrust.clustering import ClusterConfig, ClusterModel
from fuzzytrust.user import UserTrustModel, build_user_fis


@pytest.fixture
def two_cluster_model() -> ClusterModel:
    """Hand-built joint model: a clean cluster (low counts, high trust)
    and a hostile cluster (high counts, low trust)."""
    centers = np.array(
        [
            [0.05, 0.05, 0.05, 0.30, 0.90],
            [0.70, 0.60, 0.80, 0.70, 0.30],
        ]
    )
    spreads = np.full((2, 5), 0.08)
    return ClusterModel(
        centers=centers,
        spreads=spreads,
        norm_params=((0.0, 100.0), (0.0, 100.0), (0.0, 100.0), (0.0, 500.0), (0.0, 1.0)),
        objective_trace=(1.0, 0.5),
        config=ClusterConfig(c=2),
    )


@pytest.fixture
def two_cluster_user_model(two_cluster_model) -> UserTrustModel:
    return UserTrustModel(
        fis=build_user_fis(two_cluster_model),
        norm_params=two_cluster_model.norm_params,
    )


@pytest.fixture
def replay_starts(monkeypatch):
    """The position each store or ledger open starts replaying each of its
    files from: a sealed segment, then the active file."""
    starts = []

    replay = store_module.FoldedLog._replay

    def spy(log, file, start, digest):
        starts.append(start)
        return replay(log, file, start, digest)

    monkeypatch.setattr(store_module.FoldedLog, "_replay", spy)
    return starts
