import contextlib
import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fuzzytrust.fuzzy as fuzzy_module
from fuzzytrust.clustering import ClusterConfig
from fuzzytrust.errors import DegenerateOutputError, MissingInputError
from fuzzytrust.fuzzy import (
    FuzzyInferenceSystem,
    FuzzyRule,
    Gaussian,
    LinguisticVariable,
    Triangular,
    TwoSidedGaussian,
)
from fuzzytrust.ingest import CorpusSpec, corpus_matrix, generate_corpus
from fuzzytrust.provider import build_elasticity_fis, build_performance_fis, build_provider_trust_fis
from fuzzytrust.store import load_artifact, save_artifact
from fuzzytrust.user import build_user_fis, fit_user_clusters
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

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Gaussian(0.0, 0.0)
        with pytest.raises(ValueError):
            TwoSidedGaussian(0.0, 1.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            Triangular(1.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            Triangular(0.5, 0.5, 0.5)
        # 2 * sigma**2 rounds to 0.0: the degree at the center would be 0/0
        for mf in (lambda: Gaussian(0.5, 1e-300), lambda: TwoSidedGaussian(0.2, 1e-300, 0.6, 0.1),
                   lambda: TwoSidedGaussian(0.2, 0.1, 0.6, 1e-170)):
            with pytest.raises(ValueError, match=r"2 \* sigma\*\*2 > 0"):
                mf()
        assert Gaussian(0.5, 1e-160)(0.5) == 1.0  # 2 * sigma**2 is subnormal, not 0.0

    @pytest.mark.parametrize(
        "mf", [Gaussian(0.5, 0.1), TwoSidedGaussian(0.2, 0.1, 0.6, 0.1), Triangular(0.0, 0.5, 1.0)]
    )
    def test_every_field_must_be_a_finite_number(self, mf):
        for field in dataclasses.fields(mf):
            for bad in (math.nan, math.inf, -math.inf, 10**400, "0.5", None, True):
                with pytest.raises(ValueError, match=f"{field.name} must be a finite number"):
                    dataclasses.replace(mf, **{field.name: bad})

    def test_domain_ends_must_be_finite_numbers(self):
        sets = (("on", Gaussian(0.5, 0.2)),)
        for bad in (math.nan, math.inf, -math.inf, 10**400, "0.5", None):
            for domain in ((bad, 1.0), (0.0, bad)):
                with pytest.raises(ValueError, match="domain end must be a finite number"):
                    LinguisticVariable("x", domain, sets)
        for domain in ((0.5, 0.5), (1.0, 0.0)):
            with pytest.raises(ValueError, match="lo < hi"):
                LinguisticVariable("x", domain, sets)

    def test_pairs_must_have_two_elements(self):
        sets = (("on", Gaussian(0.5, 0.2)),)
        for domain in ((0.0,), (0.0, 0.5, 1.0)):
            with pytest.raises(ValueError, match="unpack"):
                LinguisticVariable("x", domain, sets)
        with pytest.raises(ValueError, match="unpack"):
            FuzzyRule((("x", "on"),), ("y",))

    def test_every_shape_gives_nan_on_nan(self):
        for mf in (Gaussian(0.5, 0.1), TwoSidedGaussian(0.2, 0.1, 0.6, 0.1), Triangular(0.0, 0.5, 1.0)):
            assert math.isnan(mf(math.nan))

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
        rule = FuzzyRule((("x", "on"),), ("y", "mid"))
        for inputs, output, message in (
            ((), out, "at least one input"),
            ((var, var), out, "duplicate input variable names"),
            ((var,), dataclasses.replace(out, name="x"), "collides with an input"),
        ):
            with pytest.raises(ValueError, match=message):
                FuzzyInferenceSystem(inputs=inputs, output=output, rules=(rule,))
        with pytest.raises(ValueError, match="'x' is not the output"):
            FuzzyInferenceSystem(inputs=(var,), output=out, rules=(FuzzyRule((("x", "on"),), ("x", "on")),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", (0.0, 1.0), (("a", Gaussian(0.2, 0.1)), ("a", Gaussian(0.8, 0.1)))
            )
        with pytest.raises(ValueError, match="needs at least one set"):
            LinguisticVariable("x", (0.0, 1.0), ())

    def test_out_of_domain_support_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", (0.0, 1.0), (("far", Triangular(2.0, 3.0, 4.0)),))

    def test_a_gaussian_whose_exponent_overflows_in_the_domain_is_rejected(self, tmp_path):
        """(x - center)**2 / (2 sigma**2) must stay finite up to both domain
        ends, or every set call and inference out there would overflow."""
        for mf in (Gaussian(0.5, 1e-160), TwoSidedGaussian(0.2, 1e-160, 0.6, 0.1),
                   TwoSidedGaussian(0.2, 0.1, 0.6, 1e-160), Gaussian(1e300, 1e140)):
            with pytest.raises(ValueError, match="variable 'x': set 'narrow' is too narrow for the domain"):
                LinguisticVariable("x", (0.0, 1.0), (("narrow", mf),))
        # still valid: a finite exponent, and lobes that lie outside the domain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mf in (Gaussian(0.5, 1e-150), TwoSidedGaussian(-1.0, 1e-160, 2.0, 1e-160)):
                fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid", antecedent_mf=mf)
                assert np.isfinite(fis.infer_batch([[0.0], [0.6], [1.0]])).all()
                assert 0.0 < mf(0.6) <= 1.0
        doc = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid").to_dict()
        doc["inputs"][0]["sets"][0]["mf"]["sigma"] = 1e-160
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=r"narrow\.json: .*variable 'x': set 'on' is too narrow"):
            load_artifact(FuzzyInferenceSystem, path)

    def test_defuzz_resolution_must_be_an_integer(self):
        fis = single_rule_fis((("mid", Triangular(0.4, 0.5, 0.6)),), "mid")
        for bad in ("7", 2.9, 7.0, True):
            with pytest.raises(ValueError, match="defuzz_resolution must be an integer"):
                dataclasses.replace(fis, defuzz_resolution=bad)
            with pytest.raises(ValueError, match="defuzz_resolution must be an integer"):
                FuzzyInferenceSystem.from_dict({**fis.to_dict(), "defuzz_resolution": bad})

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
        x = np.concatenate([np.linspace(-20.0, 120.0, 301), [5e-324, -5e-324, 1e-300]])
        for runs, mfs in (
            (1, (Gaussian(10.0, 4.0), Gaussian(50.0, 0.5), Gaussian(90.0, 30.0))),
            (1, (TwoSidedGaussian(0.0, 5.0, 20.0, 3.0), TwoSidedGaussian(40.0, 1.0, 40.0, 9.0))),
            (1, (Triangular(0.0, 0.0, 30.0), Triangular(20.0, 50.0, 80.0), Triangular(70.0, 100.0, 100.0),
                 Triangular(0.0, 5e-324, 1.0))),
            (4, (Gaussian(10.0, 4.0), Triangular(20.0, 50.0, 80.0), Gaussian(90.0, 30.0),
                 TwoSidedGaussian(40.0, 1.0, 60.0, 9.0))),
        ):
            var = LinguisticVariable("v", (0.0, 100.0), tuple((f"s{i}", mf) for i, mf in enumerate(mfs)))
            assert len(var._table) == runs
            expected = np.stack([mf(x) for mf in mfs], axis=1)
            assert np.array_equal(var.fuzzify(x), expected)


@contextlib.contextmanager
def _chunk_sizes():
    """The row counts of the ``aggregate`` calls made inside the block."""
    sizes = []
    aggregate = FuzzyInferenceSystem.aggregate

    def counted(self, rows):
        sizes.append(len(rows))
        return aggregate(self, rows)

    FuzzyInferenceSystem.aggregate = counted
    try:
        yield sizes
    finally:
        FuzzyInferenceSystem.aggregate = aggregate


def _dense_aggregate(fis, X):
    """The clip-max over every output grid point, each fired set sampled on
    the whole grid: the formula the span-trimmed ``aggregate`` replaces."""
    c = fis._compiled
    rows = np.minimum(np.maximum(X, c.lo), c.hi)
    degrees = np.concatenate([v.fuzzify(rows[:, j]) for j, v in enumerate(fis.inputs)] + [np.ones((len(rows), 1))], 1)
    strengths = degrees[:, c.antecedents].min(axis=2)
    clip = np.maximum.reduceat(strengths, c.label_starts, axis=1)
    labels = fis.output.labels
    fired = sorted({labels.index(rule.consequent[1]) for rule in fis.rules})
    full_grid = np.stack([fis.output.sets[k][1](fis._output_xs) for k in fired])
    return np.minimum(clip[:, :, None], full_grid).max(axis=1)


def _dense_infer(fis, X):
    agg = _dense_aggregate(fis, X)
    area = agg.sum(axis=1)
    out = np.full(len(X), math.nan)
    np.divide((agg * fis._output_xs).sum(axis=1), area, out=out, where=area != 0.0)
    return out


@pytest.fixture(scope="module")
def production_engines():
    train, _ = generate_corpus(CorpusSpec(seed=0))
    clusters = fit_user_clusters(corpus_matrix(train), ClusterConfig(c=25, seed=0, max_iter=60))
    return {
        "user": build_user_fis(clusters),
        "performance": build_performance_fis(),
        "elasticity": build_elasticity_fis(),
        "provider_trust": build_provider_trust_fis(),
    }


def _one_input_fis(output_sets):
    """One rule per output set, each fired by its own Gaussian input set."""
    n = len(output_sets)
    sets = tuple((f"s{i}", Gaussian((i + 0.5) / n, 0.5 / n)) for i in range(n))
    return FuzzyInferenceSystem(
        inputs=(LinguisticVariable("x", (0.0, 1.0), sets),),
        output=LinguisticVariable("y", (0.0, 1.0), output_sets),
        rules=tuple(FuzzyRule((("x", f"s{i}"),), ("y", label)) for i, (label, _) in enumerate(output_sets)),
    )


class TestSpanTrimmedClipMax:
    """The clip-max, run tile by tile over the fired sets' non-zero columns,
    against the formula over the whole grid."""

    def _check(self, fis, rng, ns=None):
        c = fis._compiled
        # the largest tile's temporary and the aggregate together stay within the bound
        largest = max((block.size for _, _, block in c.tiles), default=0)
        step = max(1, fuzzy_module._CHUNK_FLOATS // (largest + fis.defuzz_resolution))
        assert c.rows_per_chunk == step
        for n in ns or (1, step, step + 1, 500):
            X = rng.uniform(c.lo - 1.0, c.hi + 1.0, size=(n, len(fis.inputs)))
            with _chunk_sizes() as sizes:
                batch = fis.infer_batch(X)
            assert sizes == [step] * (n // step) + [n % step] * (n % step > 0)
            assert np.array_equal(fis.aggregate(np.minimum(np.maximum(X, c.lo), c.hi)), _dense_aggregate(fis, X))
            assert np.array_equal(batch, _dense_infer(fis, X), equal_nan=True)

    def test_production_engines_match_the_dense_clip_max(self, production_engines):
        rng = np.random.default_rng(23)
        for fis in production_engines.values():
            self._check(fis, rng)
        # the user engine's triangles leave most of their joint span at zero, so the tiles keep
        # under half of its (labels, span) cells: 4 709 of 9 625 in two tiles for this model
        user = production_engines["user"]._compiled
        span = user.tiles[-1][0].stop - user.tiles[0][0].start
        assert len(user.tiles) > 1
        assert sum(block.size for _, _, block in user.tiles) < 25 * span / 2
        assert span < 1001 / 2

    def test_each_provider_engine_is_one_tile_over_all_its_labels(self, production_engines):
        for name in ("performance", "elasticity", "provider_trust"):
            fis = production_engines[name]
            c = fis._compiled
            [(columns, labels, block)] = c.tiles
            assert labels == slice(0, len(c.label_starts))  # a view of every fired label's clip level
            fired = sorted({fis.output.labels.index(rule.consequent[1]) for rule in fis.rules})
            grid = np.stack([fis.output.sets[k][1](fis._output_xs) for k in fired])
            non_zero = np.flatnonzero(grid.any(axis=0))
            assert (columns.start, columns.stop) == (non_zero[0], non_zero[-1] + 1)
            assert np.array_equal(block, grid[:, columns])

    def test_random_systems_match_the_dense_clip_max(self):
        rng = np.random.default_rng(29)
        for _ in range(12):
            self._check(random_fis(rng, max_rules=40), rng)

    def test_span_is_where_some_fired_set_is_non_zero(self):
        mid = Triangular(0.3, 0.5, 0.7)
        fis = single_rule_fis((("low", Triangular(0.0, 0.1, 0.2)), ("mid", mid)), "mid")  # "low" never fires
        [(columns, labels, block)] = fis._compiled.tiles
        non_zero = np.flatnonzero(mid(fis._output_xs))
        assert (columns.start, columns.stop) == (non_zero[0], non_zero[-1] + 1)
        assert 0 < columns.start and columns.stop < 1001
        assert np.array_equal(block, [mid(fis._output_xs[columns])])

    def test_a_fired_set_between_grid_points_leaves_an_empty_span(self):
        """No grid point falls inside the only output set: every row is
        degenerate, as it was when the whole grid was sampled."""
        fis = single_rule_fis((("tiny", Triangular(0.0001, 0.0002, 0.0003)),), "tiny")
        assert np.array_equal(fis.infer_batch([[0.5]]), [math.nan], equal_nan=True)
        with pytest.raises(DegenerateOutputError):
            fis.infer({"x": 0.5})
        assert fis._compiled.tiles == ()
        X = np.linspace(0.0, 1.0, 600)[:, None]
        with _chunk_sizes() as sizes:
            assert np.isnan(fis.infer_batch(X)).all()
        step = fuzzy_module._CHUNK_FLOATS // fis.defuzz_resolution  # bounded by the (rows, resolution) aggregate
        assert sizes == [min(step, 600 - start) for start in range(0, 600, step)]

    def test_columns_where_every_set_is_zero_get_no_tile(self):
        """8 triangles in [0, 0.1] and 8 in [0.9, 1]: the columns between
        them are in no tile, and their aggregate stays 0.0."""
        apexes = [0.01 * k for k in range(1, 9)] + [0.9 + 0.01 * k for k in range(1, 9)]
        fis = _one_input_fis(tuple((f"t{i}", Triangular(a - 0.01, a, a + 0.01)) for i, a in enumerate(apexes)))
        c = fis._compiled
        assert len(c.tiles) == 2
        assert c.tiles[0][0].stop <= 100 and c.tiles[1][0].start >= 900
        self._check(fis, np.random.default_rng(31))

    def test_a_300_label_output_compiles_and_matches_the_dense_formula(self):
        rng = np.random.default_rng(37)
        apexes = rng.uniform(0.0, 1.0, 300)
        widths = rng.uniform(0.002, 0.2, 300)
        fis = _one_input_fis(tuple(
            (f"t{i}", Triangular(max(0.0, a - w), a, min(1.0, a + w))) for i, (a, w) in enumerate(zip(apexes, widths))
        ))
        tracemalloc.start()
        try:
            c = fis._compiled
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(c.tiles) > 1
        assert peak < 32 * 2**20  # the tiling is O(cuts**2): a (cuts, cuts, labels) mask alone is ~100 MB
        self._check(fis, rng, ns=(1, 2, 7, 20))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 40))
def test_property_batch_rows_independent_of_order_and_chunking(seed, n):
    """Each row's result is the same whether it is inferred alone, in a
    reversed batch, or with one row per chunk (random_fis covers all three
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
        one_row = dataclasses.replace(fis)  # a fresh system: its rows per chunk are fixed when it compiles
        assert one_row._compiled.rows_per_chunk == 1
        with _chunk_sizes() as sizes:
            twice = one_row.infer_batch(np.concatenate([X, X]))
        assert np.array_equal(twice, np.concatenate([batch, batch]), equal_nan=True)
    finally:
        fuzzy_module._CHUNK_FLOATS = saved
    assert sizes == [1] * (2 * n)  # one row per chunk, so at least two chunks


def test_surface_cells_equal_scalar_infer_bit_for_bit():
    fis = TestSurface()._simple_fis()
    grid = fis.surface("a", "b", resolution=5)
    for i, x in enumerate(grid.xs):
        for j, y in enumerate(grid.ys):
            assert grid.z[i, j] == fis.infer({"a": float(x), "b": float(y)})
