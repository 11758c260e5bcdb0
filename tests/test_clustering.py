import json
import warnings

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
from oracles import oracle_fcm


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

    def test_apply_equals_the_per_column_formula_bit_for_bit(self):
        def per_column(data, norm_params):
            out = np.empty_like(data)
            for j, (mn, mx) in enumerate(norm_params):
                out[..., j] = np.clip((data[..., j] - mn) / (mx - mn), 0.0, 1.0) if mx > mn else 0.5
            return out

        rng = np.random.default_rng(41)
        params = ((0.0, 12.0), (3.0, 3.0), (-2.5, 40.0), (1e308, 1e308), (7.0, 1.0), (0.0, 1.0))
        data = rng.uniform(-20.0, 60.0, size=(300, len(params)))
        data[:, 3] = rng.choice([-1e308, 0.0, 1e308], size=300)  # constant column, far off its value
        data[:5] = [p[0] for p in params]
        data[5:10] = [p[1] for p in params]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for rows in (data, data[0], data[:1]):
                got, expected = apply_normalization(rows, params), per_column(rows, params)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
        assert (apply_normalization(data, params)[:, [1, 3, 4]] == 0.5).all()  # constant or inverted bounds

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


def _fits_like_the_oracle(X, cfg, norm_params=None) -> ClusterModel:
    norm_params = norm_params or tuple((0.0, 1.0) for _ in range(X.shape[1]))
    model = fcm_fit(X, cfg, norm_params)
    assert model.to_dict() == oracle_fcm(X, cfg, norm_params)
    return model


def _hits_a_center(model: ClusterModel, X) -> bool:
    return bool((X[:, None, :] == model.centers[None, :, :]).all(axis=2).any())


class TestFitAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("c, d", [(1, 5), (3, 2), (25, 5), (4, 7)])
    def test_random_data(self, seed, c, d):
        rng = np.random.default_rng(100 + seed)
        X = rng.random((int(rng.integers(c, 300)), d))
        _fits_like_the_oracle(X, ClusterConfig(c=c, seed=seed, max_iter=60, tol=1e-300))

    def test_the_user_matrix_columns(self):
        # five columns as fit_user_clusters gives them: four normalized counts and a trust
        rng = np.random.default_rng(7)
        counts = rng.integers(0, 150, size=(400, 4)).astype(float)
        X = np.column_stack([counts / counts.max(axis=0), rng.uniform(0.5, 1.0, 400)])
        params = tuple((0.0, float(mx)) for mx in counts.max(axis=0)) + ((0.0, 1.0),)
        _fits_like_the_oracle(X, ClusterConfig(c=25, seed=0, max_iter=120, tol=1e-300), params)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicate_points(self, seed):
        rng = np.random.default_rng(seed)
        X = np.repeat(rng.random((12, 5)), 6, axis=0)
        _fits_like_the_oracle(X, ClusterConfig(c=12, seed=seed, max_iter=80))

    def test_points_on_a_center(self):
        # every point is the origin, and so is every center: every row is singular
        model = _fits_like_the_oracle(np.zeros((20, 5)), ClusterConfig(c=2, seed=1, max_iter=10))
        assert _hits_a_center(model, np.zeros((20, 5)))
        # one cluster's center is the mean, and one point lies on it among regular rows
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.25, 0.75], [0.75, 0.25]])
        model = _fits_like_the_oracle(X, ClusterConfig(c=1, seed=4, max_iter=5))
        assert _hits_a_center(model, X)

    @pytest.mark.parametrize("seed", range(3))
    def test_tolerance_stops_early(self, seed):
        X = np.random.default_rng(seed).random((150, 5))
        model = _fits_like_the_oracle(X, ClusterConfig(c=6, seed=seed, tol=1e-3, max_iter=300))
        assert 1 < len(model.objective_trace) < 300


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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"spreads": [[0.1, 0.1]]}, "2-D arrays of one shape"),
            ({"centers": [0.2, 0.8], "spreads": [0.1, 0.1]}, "2-D arrays of one shape"),
            ({"centers": [[0.2, float("nan")], [0.8, 0.8]]}, "finite"),
            ({"spreads": [[0.1, float("inf")], [0.1, 0.1]]}, "finite"),
            ({"spreads": [[0.1, 0.0], [0.1, 0.1]]}, "spreads must be > 0"),
            ({"spreads": [[0.1, 0.1], [-0.1, 0.1]]}, "spreads must be > 0"),
            ({"norm_params": [[0.0, 1.0]]}, "one norm_params pair per dimension"),
        ],
        ids=["spreads-short", "one-dimensional", "nan-center", "inf-spread", "zero-spread", "negative-spread",
             "norm-params-short"],
    )
    def test_malformed_document_names_the_file(self, tmp_path, change, message):
        valid = ClusterModel(
            centers=np.array([[0.2, 0.2], [0.8, 0.8]]),
            spreads=np.full((2, 2), 0.1),
            norm_params=((0.0, 1.0), (0.0, 1.0)),
            m=2.0,
            objective_trace=(1.0,),
            config=ClusterConfig(c=2),
        )
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**valid.to_dict(), **change}))
        with pytest.raises(ValueError, match=message) as exc_info:
            load_artifact(ClusterModel, path)
        assert str(exc_info.value).startswith(f"{path}: ValueError: ")

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            ClusterModel.from_dict({"format": "nope"})
        with pytest.raises(ValueError, match="version"):
            ClusterModel.from_dict({"format": "cluster-model", "version": 2})
