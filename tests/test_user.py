import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzytrust.clustering import ClusterConfig
from fuzzytrust.errors import DegenerateOutputError, InvalidModelError, ZeroTotalRequestsError
from fuzzytrust.evaluation import compare
from fuzzytrust.fuzzy import FuzzyInferenceSystem, FuzzyRule, Gaussian, LinguisticVariable, Triangular
from fuzzytrust.ingest import CorpusSpec, corpus_matrix, generate_corpus
from fuzzytrust.user import (
    W_BAD,
    W_BOGUS,
    W_UNAUTHORIZED,
    UserBehaviorCounters,
    UserTrustModel,
    baseline_trust,
    build_user_fis,
    classify,
    fit_user_clusters,
    load_user_model,
    save_user_model,
)
from oracles import oracle_infer


class TestCounters:
    def test_total_must_cover_categorized(self):
        with pytest.raises(ValueError):
            UserBehaviorCounters(user_id="u", uar=5, bor=5, bar=5, tr=10)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            UserBehaviorCounters(user_id="u", uar=-1, bor=0, bar=0, tr=5)

    def test_zero_total_is_an_error(self):
        # trust is undefined without requests, so neither the baseline nor a fitted model is ever handed them
        with pytest.raises(ZeroTotalRequestsError, match="^user 'idle' has no requests in the window$"):
            UserBehaviorCounters(user_id="idle", uar=0, bor=0, bar=0, tr=0)

    def test_feature_vector_order(self):
        # corpus_matrix columns: bad, bogus, unauthorized, total, baseline trust
        c = UserBehaviorCounters(user_id="u", uar=3, bor=2, bar=1, tr=10)
        assert corpus_matrix([c]).tolist() == [[1.0, 2.0, 3.0, 10.0, baseline_trust(c)]]


class TestBaselineTrust:
    def test_fixed_weights(self):
        assert (W_UNAUTHORIZED, W_BOGUS, W_BAD) == (0.5, 0.2, 0.3)

    def test_no_malicious_activity(self):
        assert baseline_trust(UserBehaviorCounters("u", 0, 0, 0, 10)) == 1.0

    def test_hand_case(self):
        assert baseline_trust(UserBehaviorCounters("u", 10, 10, 10, 100)) == pytest.approx(0.9, abs=1e-12)

    def test_all_unauthorized(self):
        assert baseline_trust(UserBehaviorCounters("u", 7, 0, 0, 7)) == pytest.approx(0.5, abs=1e-12)

    def test_zero_total_is_an_error(self):
        # the counters refuse a zero total, so the baseline is never handed one
        with pytest.raises(ZeroTotalRequestsError):
            baseline_trust(UserBehaviorCounters(user_id="u", uar=0, bor=0, bar=0, tr=0))

    def test_formula_exact_over_a_corpus(self):
        train, test = generate_corpus(CorpusSpec(n_users=400, n_train=300, seed=5))
        for c in train + test:
            expected = 1.0 - (0.5 * (c.uar / c.tr) + 0.2 * (c.bor / c.tr) + 0.3 * (c.bar / c.tr))
            assert baseline_trust(c) == expected, c

    def test_affine_slopes_via_finite_differences(self):
        # rates 2/8 stepped by 1/8: dyadic, so the arithmetic is exact
        base = {"uar": 2, "bor": 2, "bar": 2}
        t0 = baseline_trust(UserBehaviorCounters("u", tr=8, **base))
        for field, weight in (("uar", W_UNAUTHORIZED), ("bor", W_BOGUS), ("bar", W_BAD)):
            bumped = UserBehaviorCounters("u", tr=8, **{**base, field: base[field] + 1})
            assert baseline_trust(bumped) - t0 == pytest.approx(-weight * 0.125, abs=1e-12)

    def test_monotone_in_each_malicious_count(self):
        tr = 100
        previous = 1.1
        for uar in range(0, tr + 1, 5):
            trust = baseline_trust(UserBehaviorCounters("u", uar, 0, 0, tr))
            assert trust <= previous
            previous = trust

    def test_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            parts = rng.multinomial(100, [0.25, 0.25, 0.25, 0.25])
            assert 0.0 <= baseline_trust(UserBehaviorCounters("u", *parts[:3], tr=100)) <= 1.0


class TestClassify:
    def test_cases(self):
        assert classify(0.9, 0.5) == "trusted"
        assert classify(0.5, 0.5) == "untrusted"  # strictly-greater rule
        assert classify(0.49, 0.5) == "untrusted"

    @given(trust=st.floats(0, 1), threshold=st.floats(0, 1))
    def test_agrees_with_predicate(self, trust, threshold):
        assert (classify(trust, threshold) == "trusted") == (trust > threshold)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            classify(1.5, 0.5)


class TestFitUserClusters:
    def test_trust_column_keeps_natural_scale(self):
        train, _ = generate_corpus(CorpusSpec(n_users=120, n_train=100, seed=1))
        model = fit_user_clusters(corpus_matrix(train), ClusterConfig(c=5, seed=2))
        assert model.norm_params[4] == (0.0, 1.0)
        assert np.all(model.centers >= 0.0) and np.all(model.centers <= 1.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(InvalidModelError):
            fit_user_clusters(np.zeros((10, 4)))


class TestBuildUserFis:
    def test_structure_matches_cluster_count(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        assert len(fis.rules) == 2
        assert [v.name for v in fis.inputs] == [
            "bad_requests",
            "unauthorized_requests",
            "bogus_requests",
            "total_requests",
        ]
        for variable in fis.inputs:
            assert len(variable.sets) == 2
        assert fis.output.name == "trust"

    def test_sets_copy_cluster_geometry(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        column_of = {"bad_requests": 0, "unauthorized_requests": 2, "bogus_requests": 1, "total_requests": 3}
        for variable in fis.inputs:
            col = column_of[variable.name]
            for i, (label, mf) in enumerate(variable.sets):
                assert label == f"cluster_{i + 1}"
                assert isinstance(mf, Gaussian)
                assert mf.center == two_cluster_model.centers[i, col]
                assert mf.sigma == two_cluster_model.spreads[i, col]
        for i, (label, mf) in enumerate(fis.output.sets):
            assert isinstance(mf, Triangular)
            assert mf.apex == two_cluster_model.centers[i, 4]

    def test_diagonal_rules(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        for i, rule in enumerate(fis.rules):
            label = f"cluster_{i + 1}"
            assert all(set_label == label for _, set_label in rule.antecedents)
            assert rule.consequent == ("trust", label)

    def test_output_feet_floored_and_clamped(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        for _, mf in fis.output.sets:
            assert mf.left >= 0.0 and mf.right <= 1.0
            assert (mf.apex - mf.left >= 0.05 - 1e-12) or mf.left == 0.0
            assert (mf.right - mf.apex >= 0.05 - 1e-12) or mf.right == 1.0

    def test_c25_model_shape(self):
        train, _ = generate_corpus(CorpusSpec(n_users=150, n_train=150, seed=3))
        model = fit_user_clusters(corpus_matrix(train), ClusterConfig(c=25, seed=4))
        fis = build_user_fis(model)
        assert len(fis.rules) == 25
        assert all(len(v.sets) == 25 for v in fis.inputs)
        assert len(fis.output.sets) == 25

    def test_single_cluster_defuzzifies_to_lone_apex(self):
        from fuzzytrust.clustering import ClusterModel

        model = ClusterModel(
            centers=np.array([[0.2, 0.2, 0.2, 0.5, 0.6]]),
            spreads=np.full((1, 5), 0.1),
            norm_params=tuple((0.0, 1.0) for _ in range(5)),
            objective_trace=(1.0,),
            config=ClusterConfig(c=1),
        )
        fis = build_user_fis(model)
        crisp = fis.infer(
            {"bad_requests": 0.9, "unauthorized_requests": 0.1, "bogus_requests": 0.4, "total_requests": 0.0}
        )
        assert crisp == pytest.approx(0.6, abs=1e-6)

    def test_deterministic(self, two_cluster_model):
        assert build_user_fis(two_cluster_model) == build_user_fis(two_cluster_model)

    def test_wrong_dimensionality(self, two_cluster_model):
        from dataclasses import replace

        bad = replace(
            two_cluster_model,
            centers=two_cluster_model.centers[:, :4],
            spreads=two_cluster_model.spreads[:, :4],
            norm_params=two_cluster_model.norm_params[:4],
        )
        with pytest.raises(InvalidModelError):
            build_user_fis(bad)


class TestEvaluateUserTrust:
    def test_counters_at_cluster_center(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        # raw counts that normalize exactly onto cluster 0's coordinates
        counters = UserBehaviorCounters(user_id="u", bar=5, bor=5, uar=5, tr=150)
        crisp = UserTrustModel(fis, two_cluster_model.norm_params).evaluate(counters)
        apex = two_cluster_model.centers[0, 4]
        assert abs(crisp - apex) < 0.05
        inputs = {
            "bad_requests": 0.05,
            "unauthorized_requests": 0.05,
            "bogus_requests": 0.05,
            "total_requests": 0.30,
        }
        assert crisp == pytest.approx(oracle_infer(fis, inputs, samples=200_000), abs=1e-3)

    def test_hostile_center_maps_to_low_trust(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        counters = UserBehaviorCounters(user_id="u", bar=70, bor=60, uar=80, tr=350)
        crisp = UserTrustModel(fis, two_cluster_model.norm_params).evaluate(counters)
        assert abs(crisp - two_cluster_model.centers[1, 4]) < 0.05

    def test_zero_total(self, two_cluster_model):
        fis = build_user_fis(two_cluster_model)
        with pytest.raises(ZeroTotalRequestsError):
            UserTrustModel(fis, two_cluster_model.norm_params).evaluate(
                UserBehaviorCounters(user_id="u", uar=0, bor=0, bar=0, tr=0)
            )

    def test_output_bounded_for_random_counters(self, two_cluster_user_model):
        rng = np.random.default_rng(6)
        for _ in range(200):
            tr = int(rng.integers(1, 2000))
            split = rng.multinomial(tr, [0.2, 0.2, 0.2, 0.4])
            counters = UserBehaviorCounters("u", int(split[0]), int(split[1]), int(split[2]), tr)
            trust = two_cluster_user_model.evaluate(counters)
            assert 0.0 <= trust <= 1.0 and math.isfinite(trust)


def _random_counters(rng, n):
    users = []
    for i in range(n):
        tr = int(rng.integers(1, 600))
        split = rng.multinomial(tr, [0.15, 0.15, 0.15, 0.55])
        users.append(UserBehaviorCounters(f"u{i}", int(split[0]), int(split[1]), int(split[2]), tr))
    return users


class TestEvaluateBatch:
    def test_equals_per_user_evaluate_bit_for_bit(self, two_cluster_user_model):
        users = _random_counters(np.random.default_rng(8), 60)
        batch = two_cluster_user_model.evaluate_batch(users)
        assert batch.tolist() == [two_cluster_user_model.evaluate(c) for c in users]

    def test_compare_rows_equal_evaluate(self, two_cluster_user_model):
        users = _random_counters(np.random.default_rng(9), 40)
        report = compare(users, two_cluster_user_model)
        assert [r.predicted for r in report.rows] == [two_cluster_user_model.evaluate(c) for c in users]

    def test_zero_total_raises_like_evaluate(self, two_cluster_user_model):
        users = _random_counters(np.random.default_rng(10), 5)
        # the idle user is built inside the block: its counters raise at construction
        with pytest.raises(ZeroTotalRequestsError, match="idle"):
            users.insert(3, UserBehaviorCounters(user_id="idle", uar=0, bor=0, bar=0, tr=0))
            two_cluster_user_model.evaluate_batch(users)

    def test_a_user_no_rule_fires_for_is_named_like_evaluate(self, two_cluster_user_model):
        # a Gaussian set never reaches degree 0, so the one rule here is over triangles
        names = two_cluster_user_model.fis.input_names
        fis = FuzzyInferenceSystem(
            inputs=tuple(LinguisticVariable(name, (0.0, 1.0), (("low", Triangular(0.0, 0.1, 0.4)),)) for name in names),
            output=LinguisticVariable("trust", (0.0, 1.0), (("high", Triangular(0.6, 0.9, 1.0)),)),
            rules=(FuzzyRule(tuple((name, "low") for name in names), ("trust", "high")),),
        )
        model = UserTrustModel(fis, two_cluster_user_model.norm_params)
        near, far = UserBehaviorCounters("near", 5, 5, 5, 150), UserBehaviorCounters("far", 50, 50, 50, 150)
        assert model.evaluate_batch([near]).tolist() == [model.evaluate(near)]
        with pytest.raises(DegenerateOutputError, match="user 'far': no rule fired"):
            model.evaluate_batch([near, far])
        with pytest.raises(DegenerateOutputError):
            model.evaluate(far)

    def test_empty_batch(self, two_cluster_user_model):
        assert two_cluster_user_model.evaluate_batch([]).shape == (0,)

    def test_rulebase_must_take_the_user_inputs(self, two_cluster_user_model):
        fis = two_cluster_user_model.fis
        old_name = fis.inputs[0].name

        def rename(rule):
            antecedents = tuple(("other" if v == old_name else v, s) for v, s in rule.antecedents)
            return FuzzyRule(antecedents, rule.consequent)

        renamed = dataclasses.replace(
            fis,
            inputs=(dataclasses.replace(fis.inputs[0], name="other"),) + fis.inputs[1:],
            rules=tuple(rename(r) for r in fis.rules),
        )
        with pytest.raises(InvalidModelError):
            UserTrustModel(renamed, two_cluster_user_model.norm_params)
        with pytest.raises(InvalidModelError, match="normalization parameters for 4 features"):
            UserTrustModel(fis, two_cluster_user_model.norm_params[:3])


class TestTracedCallChain:
    """The per-layer benchmark wraps these methods by name on their classes
    and derives its figures from the spans of each; a refactor that stops
    calling one of them breaks its traced runs."""

    def test_evaluate_reaches_infer_aggregate_and_fuzzify(self, monkeypatch, two_cluster_user_model):
        calls = {"infer": 0, "aggregate": 0, "fuzzify": 0}
        for cls, attr in (
            (FuzzyInferenceSystem, "infer"),
            (FuzzyInferenceSystem, "aggregate"),
            (LinguisticVariable, "fuzzify"),
        ):
            original = vars(cls)[attr]

            def counted(*args, _original=original, _attr=attr, **kwargs):
                calls[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, attr, counted)
        assert "evaluate" in vars(UserTrustModel)

        two_cluster_user_model.evaluate(UserBehaviorCounters("u", uar=3, bor=2, bar=1, tr=40))
        assert calls["infer"] == 1
        assert calls["aggregate"] >= 1
        assert calls["fuzzify"] == len(two_cluster_user_model.fis.inputs)


class TestUserTrustModelBundle:
    def test_round_trip(self, tmp_path, two_cluster_user_model):
        path = tmp_path / "user-model.json"
        save_user_model(two_cluster_user_model, path)
        loaded = load_user_model(path)
        assert loaded.fis == two_cluster_user_model.fis
        assert loaded.norm_params == two_cluster_user_model.norm_params

    def test_from_cluster_model(self, two_cluster_model):
        bundle = UserTrustModel.from_cluster_model(two_cluster_model)
        assert bundle.norm_params == two_cluster_model.norm_params
        assert len(bundle.fis.rules) == two_cluster_model.c

    @pytest.mark.parametrize("pair", [[5.0, float("nan")], [float("-inf"), 3.0], [2.0, 1.0]],
                             ids=["nan", "inf", "inverted"])
    def test_bad_norm_params_name_the_file(self, tmp_path, two_cluster_user_model, pair):
        document = two_cluster_user_model.to_dict()
        document["norm_params"][0] = pair
        path = tmp_path / "user-model.json"
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match=r"norm_params\[0\] must be a finite \(min, max\) with min <= max") as exc_info:
            load_user_model(path)
        assert str(exc_info.value).startswith(f"{path}: ValueError: ")

    def test_constant_column_norm_params_are_valid(self, two_cluster_user_model):
        norm_params = ((4.0, 4.0),) + two_cluster_user_model.norm_params[1:]
        assert UserTrustModel(two_cluster_user_model.fis, norm_params).norm_params == norm_params

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            UserTrustModel.from_dict({"format": "nope"})
        with pytest.raises(ValueError, match="version"):
            UserTrustModel.from_dict({"format": "user-trust-model", "version": 2})
