import numpy as np
import pytest

from fuzzytrust.clustering import (
    SPREAD_FLOOR,
    ClusterConfig,
    ClusterModel,
    _membership_from_sq_distances,
    apply_normalization,
    fcm_fit,
    normalize,
)
from fuzzytrust.errors import EmptyDataError, NonFiniteDataError, TooFewPointsError
from fuzzytrust.store import load_artifact, save_artifact


def membership_row(model: ClusterModel, x: np.ndarray) -> np.ndarray:
    """Cluster memberships of one normalized point, by the update fcm_fit uses."""
    d2 = ((model.centers - x[None, :]) ** 2).sum(axis=1)[None, :]
    return _membership_from_sq_distances(d2, model.m)[0]


def two_blob_data(rng, n_per_blob=100, radius=0.05):
    a = rng.uniform(-radius, radius, size=(n_per_blob, 2)) + [0.1, 0.1]
    b = rng.uniform(-radius, radius, size=(n_per_blob, 2)) + [0.9, 0.9]
    return np.vstack([a, b])


class TestNormalize:
    def test_endpoints_and_midpoint(self):
        normed, params = normalize(np.array([[0.0], [50.0], [100.0]]))
        assert normed[:, 0].tolist() == [0.0, 0.5, 1.0]
        assert params == ((0.0, 100.0),)

    def test_constant_column_maps_to_half(self):
        normed, params = normalize(np.array([[7.0], [7.0], [7.0]]))
        assert normed[:, 0].tolist() == [0.5, 0.5, 0.5]
        assert params == ((7.0, 7.0),)

    def test_direct_min_max_arithmetic(self):
        normed, _ = normalize(np.array([[10.0], [20.0], [40.0]]))
        assert normed[:, 0] == pytest.approx([0.0, 1.0 / 3.0, 1.0])

    def test_errors(self):
        with pytest.raises(EmptyDataError):
            normalize(np.empty((0, 3)))
        with pytest.raises(NonFiniteDataError):
            normalize(np.array([[1.0], [np.nan]]))

    def test_apply_clamps_unseen_values(self):
        _, params = normalize(np.array([[0.0], [10.0]]))
        out = apply_normalization(np.array([[-5.0], [15.0]]), params)
        assert out[:, 0].tolist() == [0.0, 1.0]


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(c=0)
        with pytest.raises(ValueError):
            ClusterConfig(m=1.0)
        with pytest.raises(ValueError):
            ClusterConfig(tol=0.0)
        with pytest.raises(ValueError):
            ClusterConfig(max_iter=0)


class TestFit:
    def test_single_cluster_center_is_mean(self):
        rng = np.random.default_rng(0)
        data = rng.random((60, 3))
        model = fcm_fit(data, ClusterConfig(c=1, seed=1))
        assert np.allclose(model.centers[0], data.mean(axis=0), atol=1e-9)

    def test_two_blob_recovery(self):
        rng = np.random.default_rng(42)
        data = two_blob_data(rng)
        model = fcm_fit(data, ClusterConfig(c=2, seed=3))
        centers = model.centers[np.argsort(model.centers[:, 0])]
        blob_means = np.array([data[:100].mean(axis=0), data[100:].mean(axis=0)])
        assert np.all(np.abs(centers - blob_means) < 0.05)

    def test_objective_trace_non_increasing(self):
        rng = np.random.default_rng(9)
        data = rng.random((200, 4))
        model = fcm_fit(data, ClusterConfig(c=6, seed=2))
        trace = np.array(model.objective_trace)
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-10 * max(1.0, trace[0]))

    def test_deterministic_for_fixed_seed(self):
        rng = np.random.default_rng(1)
        data = rng.random((120, 3))
        a = fcm_fit(data, ClusterConfig(c=5, seed=77))
        b = fcm_fit(data, ClusterConfig(c=5, seed=77))
        assert np.array_equal(a.centers, b.centers)
        assert np.array_equal(a.spreads, b.spreads)
        assert a.objective_trace == b.objective_trace

    def test_centers_stay_inside_data_bounding_box(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(0.2, 0.7, size=(150, 3))
        model = fcm_fit(data, ClusterConfig(c=8, seed=5))
        assert np.all(model.centers >= data.min(axis=0) - 1e-12)
        assert np.all(model.centers <= data.max(axis=0) + 1e-12)

    def test_spreads_floored(self):
        data = np.array([[0.5, 0.5]] * 40)  # zero-variance data
        model = fcm_fit(data, ClusterConfig(c=2, seed=0))
        assert np.all(model.spreads >= SPREAD_FLOOR)

    def test_errors(self):
        with pytest.raises(TooFewPointsError):
            fcm_fit(np.random.default_rng(0).random((3, 2)), ClusterConfig(c=5))
        with pytest.raises(NonFiniteDataError):
            fcm_fit(np.array([[0.1], [np.inf]]), ClusterConfig(c=1))
        with pytest.raises(EmptyDataError):
            fcm_fit(np.empty((0, 2)), ClusterConfig(c=1))


class TestMembershipRow:
    @pytest.fixture
    def model(self):
        rng = np.random.default_rng(10)
        return fcm_fit(two_blob_data(rng), ClusterConfig(c=2, seed=6))

    def test_row_at_center_is_one_hot(self, model):
        for i in range(model.c):
            row = membership_row(model, model.centers[i])
            expected = np.zeros(model.c)
            expected[i] = 1.0
            assert np.array_equal(row, expected)

    def test_equidistant_point_splits_evenly(self):
        model = ClusterModel(
            centers=np.array([[0.0, 0.0], [1.0, 1.0]]),
            spreads=np.full((2, 2), 0.1),
            norm_params=((0.0, 1.0), (0.0, 1.0)),
            m=2.0,
            objective_trace=(1.0,),
            config=ClusterConfig(c=2),
        )
        row = membership_row(model, np.array([0.5, 0.5]))
        assert row == pytest.approx([0.5, 0.5])

    def test_matches_direct_formula(self, model):
        rng = np.random.default_rng(8)
        exponent = 2.0 / (model.m - 1.0)
        for _ in range(25):
            x = rng.random(2)
            row = membership_row(model, x)
            dists = np.sqrt(((model.centers - x) ** 2).sum(axis=1))
            expected = np.array(
                [1.0 / sum((dists[i] / dists[j]) ** exponent for j in range(model.c)) for i in range(model.c)]
            )
            assert row == pytest.approx(expected, abs=1e-12)

    def test_rows_sum_to_one_and_bounded(self, model):
        rng = np.random.default_rng(14)
        for _ in range(200):
            row = membership_row(model, rng.random(2))
            assert abs(row.sum() - 1.0) < 1e-9
            assert np.all((row >= 0.0) & (row <= 1.0))


class TestSerialization:
    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        model = fcm_fit(rng.random((80, 3)), ClusterConfig(c=4, seed=11))
        path = tmp_path / "model.json"
        save_artifact(model, path)
        loaded = load_artifact(ClusterModel, path)
        assert np.array_equal(loaded.centers, model.centers)
        assert np.array_equal(loaded.spreads, model.spreads)
        assert loaded.norm_params == model.norm_params
        assert loaded.objective_trace == model.objective_trace
        assert loaded.config == model.config

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            ClusterModel.from_dict({"format": "nope"})
        with pytest.raises(ValueError, match="version"):
            ClusterModel.from_dict({"format": "cluster-model", "version": 2})
