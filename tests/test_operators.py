"""Operator builders, evaluation, skew round trips, and the preset zoo."""

import numpy as np
import pytest

from qsodyn import (
    ClassificationError,
    CubicMatrix,
    DimensionError,
    FQsoSpec,
    SimplexPoint,
    SingleMaleCoefficients,
    SkewMatrix,
    apply,
    apply_normalized,
    apply_unnormalized,
    build_f_qso,
    build_fqso_m2,
    build_single_male,
    classify,
    cubic_from_skew,
    preset,
    sample_random_f_qso,
    skew_from_cubic,
    validate_stochastic,
    volterra_from_skew,
)
from helpers import random_cubic, random_simplex, random_skew


def m2_formulas(a, b, c, x):
    """Independent oracle: the coordinate formulas of the three-state family."""
    t = x[1] * x[2]
    return np.array([1.0 - 2.0 * (1.0 - a) * t, 2.0 * b * t, 2.0 * c * t])


def single_male_formulas(table, x):
    """Independent oracle: coordinate formulas of the single-male family."""
    m = table.shape[0] + 1
    out = np.empty(m + 1)
    out[0] = 1.0 - 2.0 * x[1] * sum((1.0 - table[i - 2, 0]) * x[i] for i in range(2, m + 1))
    for k in range(1, m + 1):
        out[k] = 2.0 * x[1] * sum(table[i - 2, k] * x[i] for i in range(2, m + 1))
    return out


class TestApply:
    def test_m2_oracle(self):
        """(0, 1/2, 1/2) maps to (1/2, 1/4, 1/4) under (a,b,c) = (0, 1/2, 1/2)."""
        P = build_fqso_m2(0.0, 0.5, 0.5)
        out = apply(P, SimplexPoint(np.array([0.0, 0.5, 0.5])))
        assert np.array_equal(out.coords, [0.5, 0.25, 0.25])

    def test_vertex_is_fixed_for_two_sex_operators(self):
        P = build_f_qso(sample_random_f_qso(4, {2, 3}, seed=1))
        vertex = SimplexPoint.vertex(5)
        assert np.array_equal(apply(P, vertex).coords, vertex.coords)

    def test_single_male_uniform_oracle(self):
        """Uniform quarter table, start (0, 1/2, 1/4, 1/4) -> (5/8, 1/8, 1/8, 1/8)."""
        coeffs = SingleMaleCoefficients(np.full((2, 4), 0.25))
        P = build_single_male(coeffs)
        out = apply(P, SimplexPoint(np.array([0.0, 0.5, 0.25, 0.25])))
        np.testing.assert_allclose(out.coords, [5 / 8, 1 / 8, 1 / 8, 1 / 8], rtol=0, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            apply(build_fqso_m2(0.0, 0.5, 0.5), SimplexPoint(np.array([0.5, 0.5])))

    def test_simplex_preservation(self):
        """Pre-renormalization images of valid matrices stay within 1e-12 of the simplex."""
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            P = random_cubic(rng, n)
            raw = apply_unnormalized(P, random_simplex(rng, n))
            assert np.all(raw >= 0.0)
            assert abs(raw.sum() - 1.0) <= 1e-12


class TestKernel:
    """The one quadratic kernel, pinned bitwise to a plain einsum reference."""

    @pytest.mark.parametrize("n", [2, 3, 9, 17, 33])
    def test_matches_reference_bitwise(self, n):
        rng = np.random.default_rng(n)
        P = random_cubic(rng, n)
        X = rng.standard_exponential((16, n))
        X /= X.sum(axis=1, keepdims=True)
        reference = np.stack([np.einsum("ijk,i,j->k", P.p, x, x) for x in X])
        for x, ref in zip(X, reference):
            assert np.array_equal(apply_unnormalized(P, x), ref)
            assert np.array_equal(apply_normalized(P, x), ref / ref.sum())
        assert np.array_equal(apply_unnormalized(P, X), reference)
        assert np.array_equal(apply_normalized(P, X), reference / reference.sum(axis=1, keepdims=True))

    def test_batch_shape_checked(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        for shape in [(4, 2), (4, 4), (2, 4, 3), ()]:
            with pytest.raises(DimensionError):
                apply_unnormalized(P, np.ones(shape))


class TestFQsoSpec:
    def test_rejects_empty_or_full_female_set(self):
        with pytest.raises(ValueError):
            FQsoSpec(n=4, females=frozenset(), mixed={})
        with pytest.raises(ValueError):
            FQsoSpec(n=4, females=frozenset({1, 2, 3}), mixed={})

    def test_rejects_two_states(self):
        """n = 2 leaves no room for a nonempty proper female set."""
        with pytest.raises(ValueError):
            FQsoSpec(n=2, females=frozenset({1}), mixed={})

    def test_rejects_missing_or_extra_pairs(self):
        dist = np.array([0.5, 0.25, 0.25, 0.0])
        with pytest.raises(ValueError):
            FQsoSpec(n=4, females=frozenset({2}), mixed={(2, 1): dist})
        with pytest.raises(ValueError):
            FQsoSpec(
                n=4,
                females=frozenset({2}),
                mixed={(2, 1): dist, (2, 3): dist, (1, 2): dist},
            )

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            FQsoSpec(n=3, females=frozenset({2}), mixed={(2, 1): np.array([0.5, 0.2, 0.2])})
        with pytest.raises(ValueError):
            FQsoSpec(n=3, females=frozenset({2}), mixed={(2, 1): np.array([np.nan, 0.5, 0.5])})


class TestBuildFQso:
    def test_matches_explicit_m2_matrix(self):
        """Expansion with F = {2} reproduces the explicit three-state matrix."""
        a, b, c = 0.3, 0.45, 0.25
        spec = FQsoSpec(n=3, females=frozenset({2}), mixed={(2, 1): np.array([a, b, c])})
        P = build_f_qso(spec)
        expected = np.zeros((3, 3, 3))
        for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]:
            expected[i, j, 0] = expected[j, i, 0] = 1.0
        expected[1, 2, :] = expected[2, 1, :] = [a, b, c]
        assert np.array_equal(P.p, expected)
        assert np.array_equal(P.p, build_fqso_m2(a, b, c).p)

    def test_expansion_is_valid_and_classified(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            from qsodyn import proper_subsets

            subsets = proper_subsets(m)
            females = subsets[int(rng.integers(len(subsets)))]
            spec = sample_random_f_qso(m, females, int(rng.integers(2**32)))
            P = build_f_qso(spec)
            assert validate_stochastic(P).ok
            assert females in classify(P).f_qso_sets

    def test_all_mass_to_empty_body_is_constant(self):
        """Mixed pairs pointing at state 0 collapse everything in one step."""
        point_mass = np.array([1.0, 0.0, 0.0, 0.0])
        spec = FQsoSpec(
            n=4,
            females=frozenset({2, 3}),
            mixed={(2, 1): point_mass, (3, 1): point_mass},
        )
        P = build_f_qso(spec)
        rng = np.random.default_rng(3)
        vertex = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(50):
            out = apply(P, SimplexPoint(random_simplex(rng, 4)))
            assert np.array_equal(out.coords, vertex)

    def test_one_step_absorption(self):
        """Zero mass on either sex sends the next step exactly to the vertex."""
        P = build_f_qso(sample_random_f_qso(4, {2, 3}, seed=17))
        vertex = np.zeros(5)
        vertex[0] = 1.0
        no_females = SimplexPoint(np.array([0.2, 0.3, 0.0, 0.0, 0.5]))
        no_males = SimplexPoint(np.array([0.2, 0.0, 0.3, 0.5, 0.0]))
        assert np.array_equal(apply(P, no_females).coords, vertex)
        assert np.array_equal(apply(P, no_males).coords, vertex)


class TestM2Family:
    def test_all_mass_to_empty_body(self):
        """(a, b, c) = (1, 0, 0) maps every point to the vertex."""
        P = build_fqso_m2(1.0, 0.0, 0.0)
        rng = np.random.default_rng(4)
        for _ in range(50):
            out = apply(P, SimplexPoint(random_simplex(rng, 3)))
            assert np.array_equal(out.coords, [1.0, 0.0, 0.0])

    def test_coordinate_formulas(self):
        """apply agrees with the closed-form coordinate expressions."""
        rng = np.random.default_rng(5)
        for _ in range(50):
            abc = random_simplex(rng, 3)
            P = build_fqso_m2(*abc)
            x = random_simplex(rng, 3)
            expected = m2_formulas(*abc, x)
            np.testing.assert_allclose(
                apply(P, SimplexPoint(x)).coords, expected, rtol=1e-15, atol=1e-15
            )

    def test_third_oracle(self):
        """(1/3, 1/3, 1/3) from (0, 1/2, 1/2): x1' = x2' = 1/6, x0' = 2/3."""
        P = build_fqso_m2(1 / 3, 1 / 3, 1 / 3)
        out = apply(P, SimplexPoint(np.array([0.0, 0.5, 0.5])))
        np.testing.assert_allclose(out.coords, [2 / 3, 1 / 6, 1 / 6], rtol=0, atol=1e-15)

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            build_fqso_m2(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            build_fqso_m2(-0.1, 0.6, 0.5)
        with pytest.raises(ValueError):
            build_fqso_m2(np.nan, 0.5, 0.5)


class TestSingleMaleFamily:
    def test_m2_agrees_with_m2_builder_exactly(self):
        a, b, c = 0.2, 0.5, 0.3
        coeffs = SingleMaleCoefficients(np.array([[a, b, c]]))
        assert np.array_equal(build_single_male(coeffs).p, build_fqso_m2(a, b, c).p)

    def test_coordinate_formulas(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            table = rng.standard_exponential((m - 1, m + 1))
            table /= table.sum(axis=1, keepdims=True)
            P = build_single_male(SingleMaleCoefficients(table))
            x = random_simplex(rng, m + 1)
            np.testing.assert_allclose(
                apply(P, SimplexPoint(x)).coords,
                single_male_formulas(table, x),
                rtol=1e-13,
                atol=1e-15,
            )

    def test_no_male_mass_absorbs_in_one_step(self):
        rng = np.random.default_rng(7)
        table = rng.standard_exponential((3, 5))
        table /= table.sum(axis=1, keepdims=True)
        P = build_single_male(SingleMaleCoefficients(table))
        x = np.array([0.25, 0.0, 0.25, 0.25, 0.25])
        out = apply(P, SimplexPoint(x))
        assert np.array_equal(out.coords, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_rejects_bad_table(self):
        with pytest.raises(DimensionError):
            SingleMaleCoefficients(np.full((2, 3), 0.5))
        with pytest.raises(ValueError):
            SingleMaleCoefficients(np.array([[0.5, 0.5, 0.2]]))
        with pytest.raises(ValueError):
            SingleMaleCoefficients(np.array([[0.5, np.nan, 0.5]]))


class TestSkewForms:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.5, 0.0], [0.0, 0.0]]))  # nonzero diagonal
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.0, 0.5], [0.5, 0.0]]))  # not antisymmetric
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.0, 1.5], [-1.5, 0.0]]))  # |a| > 1
        with pytest.raises(ValueError):
            SkewMatrix(np.array([[0.0, np.nan], [np.nan, 0.0]]))  # NaN off the diagonal

    def test_zero_skew_is_identity(self):
        op = volterra_from_skew(SkewMatrix(np.zeros((4, 4))))
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = SimplexPoint(random_simplex(rng, 4))
            np.testing.assert_allclose(op(x).coords, x.coords, rtol=0, atol=1e-15)

    def test_rps_skew_reproduces_volterra_preset(self):
        """a[0,1] = a[1,2] = a[2,0] = 1 is the rock-paper-scissors operator."""
        a = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])
        P = cubic_from_skew(SkewMatrix(a))
        assert np.array_equal(P.p, preset("ganikhodzhaev_v0").p)

    def test_half_coefficients_give_zero_skew(self):
        p = np.zeros((3, 3, 3))
        for i in range(3):
            p[i, i, i] = 1.0
        for i in range(3):
            for k in range(i + 1, 3):
                p[i, k, i] = p[i, k, k] = 0.5
                p[k, i, i] = p[k, i, k] = 0.5
        A = skew_from_cubic(CubicMatrix(p))
        assert np.array_equal(A.a, np.zeros((3, 3)))

    def test_round_trip_operator_equality(self):
        """skew -> cubic -> skew is the identity, and both evaluations agree."""
        rng = np.random.default_rng(10)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            a = random_skew(rng, m)
            A = SkewMatrix(a)
            P = cubic_from_skew(A)
            assert classify(P).is_volterra
            A2 = skew_from_cubic(P)
            np.testing.assert_allclose(A2.a, a, rtol=0, atol=1e-15)
            op = volterra_from_skew(A)
            for _ in range(20):
                x = SimplexPoint(random_simplex(rng, m))
                np.testing.assert_allclose(
                    op(x).coords, apply(P, x).coords, rtol=0, atol=1e-12
                )

    def test_vertices_fixed(self):
        rng = np.random.default_rng(12)
        A = SkewMatrix(random_skew(rng, 5))
        op = volterra_from_skew(A)
        for k in range(5):
            v = SimplexPoint.vertex(5, k)
            assert np.array_equal(op(v).coords, v.coords)

    def test_skew_from_non_volterra_rejected(self):
        with pytest.raises(ClassificationError):
            skew_from_cubic(preset("ganikhodzhaev_v1"))


class TestPresets:
    def test_barycenter_fixed_for_volterra_endpoint(self):
        P = preset("ganikhodzhaev_v0")
        x = SimplexPoint.uniform(3)
        np.testing.assert_allclose(apply(P, x).coords, x.coords, rtol=0, atol=1e-15)

    def test_lambda_endpoints(self):
        assert np.array_equal(preset("ganikhodzhaev_lambda", lam=0.0).p, preset("ganikhodzhaev_v0").p)
        assert np.array_equal(preset("ganikhodzhaev_lambda", lam=1.0).p, preset("ganikhodzhaev_v1").p)

    def test_lambda_one_fixes_vertex(self):
        P = preset("ganikhodzhaev_lambda", lam=1.0)
        v = SimplexPoint.vertex(3, 0)
        assert np.array_equal(apply(P, v).coords, v.coords)

    def test_blend_linearity(self):
        """Evaluating the blend equals blending the evaluations."""
        p0 = preset("ganikhodzhaev_v0")
        p1 = preset("ganikhodzhaev_v1")
        rng = np.random.default_rng(13)
        for lam in (0.25, 0.5, 0.9):
            blend = preset("ganikhodzhaev_lambda", lam=lam)
            for _ in range(20):
                x = SimplexPoint(random_simplex(rng, 3))
                expected = (1 - lam) * apply(p0, x).coords + lam * apply(p1, x).coords
                np.testing.assert_allclose(apply(blend, x).coords, expected, rtol=0, atol=1e-14)

    def test_constant_preset(self):
        P = preset("constant_m1")
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = SimplexPoint(random_simplex(rng, 2))
            assert np.array_equal(apply(P, x).coords, [1.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset("no_such_operator")

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            preset("ganikhodzhaev_lambda", lam=1.5)
