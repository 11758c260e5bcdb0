import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzytrust.fuzzy as fuzzy_module
from fuzzytrust.errors import DegenerateOutputError, MissingInputError
from fuzzytrust.fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    ShoulderLeft,
    ShoulderRight,
    Triangular,
    TwoSidedGaussian,
)
from fuzzytrust.store import load_artifact, save_artifact
from oracles import OracleDegenerate, oracle_infer, random_fis, random_inputs


class TestMembershipFunctions:
    def test_gaussian_peaks_at_center(self):
        assert float(Gaussian(0.5, 0.1)(0.5)) == 1.0

    def test_gaussian_symmetry(self):
        mf = Gaussian(2.0, 0.7)
        assert float(mf(1.0)) == pytest.approx(float(mf(3.0)))

    def test_triangular_midpoint_of_rise(self):
        assert float(Triangular(0.0, 0.5, 1.0)(0.25)) == pytest.approx(0.5)

    def test_triangular_outside_support_is_zero(self):
        mf = Triangular(0.0, 0.5, 1.0)
        assert float(mf(-0.1)) == 0.0
        assert float(mf(1.1)) == 0.0

    def test_triangular_half_shapes(self):
        left_edge = Triangular(0.0, 0.0, 0.5)
        assert float(left_edge(0.0)) == 1.0
        assert float(left_edge(0.25)) == pytest.approx(0.5)
        right_edge = Triangular(0.5, 1.0, 1.0)
        assert float(right_edge(1.0)) == 1.0
        assert float(right_edge(0.75)) == pytest.approx(0.5)

    def test_two_sided_gaussian_plateau(self):
        # workload calibration row: plateau spans [23, 41]
        mf = TwoSidedGaussian(23.0, 7.2, 41.0, 6.95)
        assert float(mf(30.0)) == 1.0
        assert float(mf(23.0)) == 1.0
        assert float(mf(41.0)) == 1.0
        assert float(mf(10.0)) < 1.0
        assert float(mf(55.0)) < 1.0

    def test_shoulders(self):
        left = ShoulderLeft(0.2, 0.6)
        assert float(left(0.0)) == 1.0
        assert float(left(0.2)) == 1.0
        assert float(left(0.4)) == pytest.approx(0.5)
        assert float(left(0.7)) == 0.0
        right = ShoulderRight(0.4, 0.8)
        assert float(right(1.0)) == 1.0
        assert float(right(0.6)) == pytest.approx(0.5)
        assert float(right(0.3)) == 0.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            TwoSidedGaussian(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Triangular(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            Triangular(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            ShoulderLeft(0.5, 0.5)
        with pytest.raises(ValueError):
            ShoulderRight(0.9, 0.1)

    def test_non_finite_input_rejected(self):
        fis = single_rule_fis((("mid", Triangular(0.0, 0.5, 1.0)),), "mid")
        for x in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                fis.infer({"x": x})

    @given(
        center=st.floats(-1e3, 1e3),
        sigma=st.floats(1e-3, 1e3),
        x=st.floats(-1e6, 1e6),
    )
    def test_gaussian_degree_bounded(self, center, sigma, x):
        assert 0.0 <= float(Gaussian(center, sigma)(x)) <= 1.0

    @given(
        left=st.floats(-1e3, 1e3),
        rise=st.floats(0.0, 1e3),
        fall=st.floats(0.0, 1e3),
        x=st.floats(-1e6, 1e6),
    )
    def test_triangular_degree_bounded(self, left, rise, fall, x):
        apex, right = left + rise, left + rise + fall
        if right <= left:  # widths can collapse in float arithmetic
            return
        mf = Triangular(left, apex, right)
        assert 0.0 <= float(mf(x)) <= 1.0

    def test_sets_a_subnormal_width_from_an_edge_stay_exact(self):
        # the rise over a width of 5e-324 overflows to inf, which the fall or the clip bounds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mf = Triangular(0.0, 5e-324, 1.0)
            assert [float(mf(x)) for x in (0.5, 1e-300, -1e-300)] == [0.5, 1.0, 0.0]
            assert mf(np.array([0.5, 1e-300, -1e-300])).tolist() == [0.5, 1.0, 0.0]
            assert float(ShoulderLeft(0.0, 5e-324)(-1.0)) == 1.0
            assert float(ShoulderRight(0.0, 5e-324)(1.0)) == 1.0

    @given(
        lc=st.floats(-1e3, 1e3),
        plateau=st.floats(0.0, 1e3),
        ls=st.floats(1e-3, 1e3),
        rs=st.floats(1e-3, 1e3),
        x=st.floats(-1e6, 1e6),
    )
    def test_two_sided_degree_bounded_and_plateau(self, lc, plateau, ls, rs, x):
        mf = TwoSidedGaussian(lc, ls, lc + plateau, rs)
        assert 0.0 <= float(mf(x)) <= 1.0
        mid = lc + plateau / 2
        if math.isfinite(mid):
            assert float(mf(mid)) == 1.0


def single_rule_fis(output_sets, consequent, antecedent_mf=None):
    antecedent_mf = antecedent_mf or Gaussian(0.5, 0.2)
    var = LinguisticVariable("x", (0.0, 1.0), (("on", antecedent_mf),))
    out = LinguisticVariable("y", (0.0, 1.0), output_sets)
    rule = FuzzyRule((("x", "on"),), ("y", consequent))
    return FuzzyInferenceSystem(inputs=(var,), output=out, rules=(rule,))


class TestInfer:
    def test_single_rule_full_strength_symmetric_triangle(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        assert fis.infer({"x": 0.5}) == pytest.approx(0.5, abs=1e-9)

    def test_two_equal_rules_symmetric_aggregate(self):
        var = LinguisticVariable(
            "x",
            (0.0, 1.0),
            (("lo", Triangular(-1.0, 0.0, 1.0)), ("hi", Triangular(0.0, 1.0, 2.0))),
        )
        out = LinguisticVariable(
            "y",
            (0.0, 1.0),
            (("low", Triangular(0.0, 0.25, 0.5)), ("high", Triangular(0.5, 0.75, 1.0))),
        )
        rules = (
            FuzzyRule((("x", "lo"),), ("y", "low")),
            FuzzyRule((("x", "hi"),), ("y", "high")),
        )
        fis = FuzzyInferenceSystem(inputs=(var,), output=out, rules=rules)
        # both rules fire at strength 0.5; the aggregate is mirror-symmetric
        assert fis.infer({"x": 0.5}) == pytest.approx(0.5, abs=1e-9)

    def test_missing_input(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        with pytest.raises(MissingInputError):
            fis.infer({})

    def test_unknown_input_rejected(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        with pytest.raises(ValueError):
            fis.infer({"x": 0.5, "bogus": 1.0})

    def test_degenerate_output_is_an_error(self):
        fis = single_rule_fis(
            (("mid", Triangular(0.4, 0.5, 0.6)),),
            "mid",
            antecedent_mf=Triangular(0.0, 0.1, 0.2),
        )
        with pytest.raises(DegenerateOutputError):
            fis.infer({"x": 0.9})

    def test_inputs_clamped_to_domain(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        assert fis.infer({"x": 99.0}) == fis.infer({"x": 1.0})
        assert fis.infer({"x": -99.0}) == fis.infer({"x": 0.0})

    def test_rule_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            fis = random_fis(rng, max_rules=40)
            inputs = random_inputs(rng, fis)
            perm = rng.permutation(len(fis.rules))
            shuffled = dataclasses.replace(fis, rules=tuple(fis.rules[i] for i in perm))
            try:
                expected = fis.infer(inputs)
            except DegenerateOutputError:
                with pytest.raises(DegenerateOutputError):
                    shuffled.infer(inputs)
                continue
            assert shuffled.infer(inputs) == expected

    def test_centroid_stays_in_output_domain(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            fis = random_fis(rng, max_rules=30)
            inputs = random_inputs(rng, fis)
            try:
                crisp = fis.infer(inputs)
            except DegenerateOutputError:
                continue
            lo, hi = fis.output.domain
            assert lo <= crisp <= hi

    def test_grid_convergence_at_default_resolution(self):
        rng = np.random.default_rng(3)
        for _ in range(15):
            fis = random_fis(rng, max_rules=30)
            inputs = random_inputs(rng, fis)
            doubled = dataclasses.replace(fis, defuzz_resolution=2 * fis.defuzz_resolution - 1)
            try:
                coarse = fis.infer(inputs)
            except DegenerateOutputError:
                continue
            span = fis.output.domain[1] - fis.output.domain[0]
            assert abs(doubled.infer(inputs) - coarse) / span < 1e-3

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(12):
            fis = random_fis(rng, max_rules=60)
            inputs = random_inputs(rng, fis)
            span = fis.output.domain[1] - fis.output.domain[0]
            try:
                crisp = fis.infer(inputs)
            except DegenerateOutputError:
                with pytest.raises(OracleDegenerate):
                    oracle_infer(fis, inputs, samples=200_000)
                continue
            assert abs(crisp - oracle_infer(fis, inputs, samples=200_000)) / span < 1e-3
            checked += 1
        assert checked >= 6

    def test_deterministic_repeat(self):
        rng = np.random.default_rng(5)
        fis = random_fis(rng, max_rules=20)
        inputs = random_inputs(rng, fis)
        try:
            first = fis.infer(inputs)
        except DegenerateOutputError:
            return
        assert all(fis.infer(inputs) == first for _ in range(5))


class TestDominantLabel:
    def test_single_rule_returns_consequent(self):
        out_sets = (
            ("low", Triangular(0.0, 0.2, 0.4)),
            ("high", Triangular(0.6, 0.8, 1.0)),
        )
        fis = single_rule_fis(out_sets, "high")
        assert fis.dominant_label({"x": 0.5}) == "high"

    def test_tie_breaks_toward_declaration_order(self):
        mf = Triangular(0.0, 0.5, 1.0)
        fis = single_rule_fis((("first", mf), ("second", mf)), "second")
        # identical sets: every degree ties, the earlier label wins
        assert fis.dominant_label({"x": 0.5}) == "first"


class TestValidation:
    def test_rules_must_reference_known_variables(self):
        var = LinguisticVariable("x", (0.0, 1.0), (("on", Gaussian(0.5, 0.2)),))
        out = LinguisticVariable("y", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),))
        with pytest.raises(ValueError):
            FuzzyInferenceSystem(
                inputs=(var,),
                output=out,
                rules=(FuzzyRule((("nope", "on"),), ("y", "mid")),),
            )
        with pytest.raises(KeyError):
            FuzzyInferenceSystem(
                inputs=(var,),
                output=out,
                rules=(FuzzyRule((("x", "nope"),), ("y", "mid")),),
            )
        with pytest.raises(ValueError):
            FuzzyInferenceSystem(inputs=(var,), output=out, rules=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", (0.0, 1.0), (("a", Gaussian(0.2, 0.1)), ("a", Gaussian(0.8, 0.1)))
            )

    def test_out_of_domain_support_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", (0.0, 1.0), (("far", Triangular(2.0, 3.0, 4.0)),))

    def test_rule_needs_antecedents(self):
        with pytest.raises(ValueError):
            FuzzyRule((), ("y", "mid"))


class TestSerialization:
    def test_round_trip_equality(self):
        rng = np.random.default_rng(13)
        fis = random_fis(rng, max_rules=25)
        assert FuzzyInferenceSystem.from_dict(fis.to_dict()) == fis

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        fis = random_fis(rng, max_rules=25)
        path = tmp_path / "system.json"
        save_artifact(fis, path)
        assert load_artifact(FuzzyInferenceSystem, path) == fis
        data = json.loads(path.read_text())
        assert data["format"] == "fis"
        assert data["version"] == 1

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError):
            FuzzyInferenceSystem.from_dict({"format": "other"})
        with pytest.raises(ValueError, match="version"):
            FuzzyInferenceSystem.from_dict({"format": "fis", "version": 2})


class TestSurface:
    def _simple_fis(self):
        def var(name):
            return LinguisticVariable(
                name,
                (0.0, 1.0),
                (("lo", Gaussian(0.0, 0.2)), ("hi", Gaussian(1.0, 0.2))),
            )

        out = LinguisticVariable(
            "z", (0.0, 1.0), (("low", Triangular(0.0, 0.25, 0.5)), ("high", Triangular(0.5, 0.75, 1.0)))
        )
        rules = (
            FuzzyRule((("a", "lo"), ("b", "lo")), ("z", "low")),
            FuzzyRule((("a", "hi"), ("b", "hi")), ("z", "high")),
        )
        return FuzzyInferenceSystem(inputs=(var("a"), var("b")), output=out, rules=rules)

    def test_resolution_two_hits_domain_corners(self):
        fis = self._simple_fis()
        grid = fis.surface("a", "b", resolution=2)
        cells = list(grid.rows())
        assert len(cells) == 4
        assert [(x, y) for x, y, _ in cells] == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_constant_system_gives_flat_surface(self):
        var_a = LinguisticVariable("a", (0.0, 1.0), (("any", Gaussian(0.5, 100.0)),))
        var_b = LinguisticVariable("b", (0.0, 1.0), (("any", Gaussian(0.5, 100.0)),))
        out = LinguisticVariable("z", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),))
        fis = FuzzyInferenceSystem(
            inputs=(var_a, var_b),
            output=out,
            rules=(FuzzyRule((("a", "any"), ("b", "any")), ("z", "mid")),),
        )
        grid = fis.surface("a", "b", resolution=5)
        assert np.allclose(grid.z, grid.z[0, 0])

    def test_degenerate_cells_become_nan_in_csv(self, tmp_path):
        var_a = LinguisticVariable("a", (0.0, 1.0), (("edge", Triangular(0.0, 0.0, 0.1)),))
        var_b = LinguisticVariable("b", (0.0, 1.0), (("edge", Triangular(0.0, 0.0, 0.1)),))
        out = LinguisticVariable("z", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),))
        fis = FuzzyInferenceSystem(
            inputs=(var_a, var_b),
            output=out,
            rules=(FuzzyRule((("a", "edge"), ("b", "edge")), ("z", "mid")),),
        )
        grid = fis.surface("a", "b", resolution=3)
        assert math.isnan(grid.z[2, 2]) and not math.isnan(grid.z[0, 0])
        path = tmp_path / "grid.csv"
        grid.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 10
        assert lines[-1].endswith(",NaN")

    def test_axis_and_fixed_validation(self):
        fis = self._simple_fis()
        with pytest.raises(ValueError):
            fis.surface("a", "a")
        with pytest.raises(ValueError):
            fis.surface("a", "nope")
        with pytest.raises(ValueError):
            fis.surface("a", "b", fixed={"a": 0.5})
        with pytest.raises(ValueError):
            fis.surface("a", "b", resolution=1)

    def test_fixed_inputs_required_for_extra_variables(self):
        fis3 = FuzzyInferenceSystem(
            inputs=(
                LinguisticVariable("a", (0.0, 1.0), (("on", Gaussian(0.5, 0.3)),)),
                LinguisticVariable("b", (0.0, 1.0), (("on", Gaussian(0.5, 0.3)),)),
                LinguisticVariable("c", (0.0, 1.0), (("on", Gaussian(0.5, 0.3)),)),
            ),
            output=LinguisticVariable("z", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),)),
            rules=(FuzzyRule((("a", "on"), ("b", "on"), ("c", "on")), ("z", "mid")),),
        )
        with pytest.raises(MissingInputError):
            fis3.surface("a", "b", resolution=3)
        grid = fis3.surface("a", "b", fixed={"c": 0.5}, resolution=3)
        assert grid.z.shape == (3, 3)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_property_centroid_in_domain_and_deterministic(seed):
    rng = np.random.default_rng(seed)
    fis = random_fis(rng, max_rules=20)
    inputs = random_inputs(rng, fis)
    try:
        crisp = fis.infer(inputs)
    except DegenerateOutputError:
        return
    lo, hi = fis.output.domain
    assert lo <= crisp <= hi
    assert fis.infer(inputs) == crisp


def _input_matrix(rng, fis, n):
    return np.array([[random_inputs(rng, fis)[name] for name in fis.input_names] for _ in range(n)])


class TestInferBatch:
    def test_scalar_infer_is_a_batch_of_one_bit_for_bit(self):
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(40):
            fis = random_fis(rng, max_rules=40)
            inputs = random_inputs(rng, fis)
            batch = fis.infer_batch([[inputs[name] for name in fis.input_names]])
            assert batch.shape == (1,)
            try:
                crisp = fis.infer(inputs)
            except DegenerateOutputError:
                assert math.isnan(batch[0])
                continue
            assert crisp == batch[0]
            checked += 1
        assert checked >= 20

    def test_degenerate_rows_are_nan(self):
        fis = single_rule_fis(
            (("mid", Triangular(0.4, 0.5, 0.6)),),
            "mid",
            antecedent_mf=Triangular(0.0, 0.1, 0.2),
        )
        out = fis.infer_batch([[0.9], [0.1], [0.95]])
        assert math.isnan(out[0]) and math.isnan(out[2])
        assert out[1] == fis.infer({"x": 0.1})

    def test_empty_batch(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        assert fis.infer_batch(np.empty((0, 1))).shape == (0,)

    def test_raises_what_the_scalar_path_raises(self):
        two = FuzzyInferenceSystem(
            inputs=(
                LinguisticVariable("a", (0.0, 1.0), (("on", Gaussian(0.5, 0.3)),)),
                LinguisticVariable("b", (0.0, 1.0), (("on", Gaussian(0.5, 0.3)),)),
            ),
            output=LinguisticVariable("z", (0.0, 1.0), (("mid", Triangular(0.4, 0.5, 0.6)),)),
            rules=(FuzzyRule((("a", "on"), ("b", "on")), ("z", "mid")),),
        )
        with pytest.raises(MissingInputError, match="b"):
            two.infer_batch([[0.5]])
        with pytest.raises(ValueError, match="unknown input"):
            two.infer_batch([[0.5, 0.5, 0.5]])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                two.infer_batch([[0.5, 0.5], [0.5, bad]])
            with pytest.raises(ValueError, match="non-finite"):
                two.infer({"a": 0.5, "b": bad})
        with pytest.raises(ValueError):
            two.infer_batch([0.5, 0.5])

    def test_table_and_per_set_fuzzify_agree_bit_for_bit(self):
        x = np.linspace(-20.0, 120.0, 301)
        for mfs in (
            (Gaussian(10.0, 4.0), Gaussian(50.0, 0.5), Gaussian(90.0, 30.0)),
            (TwoSidedGaussian(0.0, 5.0, 20.0, 3.0), TwoSidedGaussian(40.0, 1.0, 40.0, 9.0)),
        ):
            var = LinguisticVariable("v", (0.0, 100.0), tuple((f"s{i}", mf) for i, mf in enumerate(mfs)))
            assert var._table is not None
            expected = np.stack([mf(x) for mf in mfs], axis=1)
            assert np.array_equal(var.fuzzify(x), expected)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40))
def test_property_batch_rows_independent_of_order_and_chunking(seed, n):
    """Each row's result is the same whether it is inferred alone, in a
    reversed batch, or with one row per chunk (random_fis covers all five
    shape families and rules that leave out inputs)."""
    rng = np.random.default_rng(seed)
    fis = random_fis(rng, max_rules=40)
    X = _input_matrix(rng, fis, n)
    batch = fis.infer_batch(X)
    assert np.array_equal(fis.infer_batch(X[::-1])[::-1], batch, equal_nan=True)
    alone = np.array([fis.infer_batch(X[i : i + 1])[0] for i in range(n)])
    assert np.array_equal(alone, batch, equal_nan=True)
    saved = fuzzy_module._CHUNK_FLOATS
    fuzzy_module._CHUNK_FLOATS = 1
    try:
        assert np.array_equal(fis.infer_batch(X), batch, equal_nan=True)
    finally:
        fuzzy_module._CHUNK_FLOATS = saved


def test_surface_cells_equal_scalar_infer_bit_for_bit():
    fis = TestSurface()._simple_fis()
    grid = fis.surface("a", "b", resolution=5)
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            assert grid.z[i, j] == fis.infer({"a": float(x), "b": float(y)})
