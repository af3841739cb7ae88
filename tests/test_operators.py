"""Operator builders, evaluation, skew round trips, and the preset zoo."""

import re

import numpy as np
import pytest

from qsodyn import (
    ClassificationError,
    CubicMatrix,
    DimensionError,
    SimplexPoint,
    SkewMatrix,
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
)
from qsodyn.operators import _orbit
from helpers import (
    apply,
    assert_frozen,
    proper_subsets,
    random_cubic,
    random_simplex,
    random_simplex_batch,
    random_skew,
    volterra_from_skew,
)


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
        P = sample_random_f_qso(4, {2, 3}, seed=1)
        vertex = SimplexPoint.vertex(5)
        assert np.array_equal(apply(P, vertex).coords, vertex.coords)

    def test_single_male_uniform_oracle(self):
        """Uniform quarter table, start (0, 1/2, 1/4, 1/4) -> (5/8, 1/8, 1/8, 1/8)."""
        P = build_single_male(np.full((2, 4), 0.25))
        out = apply(P, SimplexPoint(np.array([0.0, 0.5, 0.25, 0.25])))
        np.testing.assert_allclose(out.coords, [5 / 8, 1 / 8, 1 / 8, 1 / 8], rtol=0, atol=1e-15)

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
    """The one quadratic kernel: a few ulps from the dense einsum reference, and bitwise row-invariant."""

    @pytest.mark.parametrize("n", [2, 3, 9, 17, 33])
    def test_matches_einsum_reference(self, n):
        """Max |delta| <= 4 n eps against the per-point einsum on a stochastic cube, alone or batched."""
        rng = np.random.default_rng(n)
        P = random_cubic(rng, n)
        X = rng.standard_exponential((16, n))
        X /= X.sum(axis=1, keepdims=True)
        reference = np.stack([np.einsum("ijk,i,j->k", P.p, x, x) for x in X])
        bound = 4 * n * np.finfo(float).eps
        for x, ref in zip(X, reference):
            assert np.max(np.abs(apply_unnormalized(P, x) - ref)) <= bound
        assert np.max(np.abs(apply_unnormalized(P, X) - reference)) <= bound

    @pytest.mark.parametrize("n", [2, 3, 9, 17, 33])
    def test_rows_are_bitwise_invariant(self, n):
        """Each row of a batch's image equals that point's image computed alone, whatever the batch's layout."""
        rng = np.random.default_rng(100 + n)
        P = random_cubic(rng, n)
        for B in (1, 2, 7, 64):
            X = rng.standard_exponential((B, n))
            X /= X.sum(axis=1, keepdims=True)
            for apply_kernel in (apply_unnormalized, apply_normalized):
                alone = np.stack([apply_kernel(P, x) for x in X])
                for batch, rows in [(X, alone), (np.asfortranarray(X), alone), (X[::2], alone[::2])]:
                    assert np.array_equal(apply_kernel(P, batch), rows)
                    assert np.array_equal(np.stack([apply_kernel(P, x) for x in batch]), rows)

    @pytest.mark.parametrize("n", [2, 3, 9, 17, 33, 64])
    def test_point_step_is_bitwise_apply_normalized_and_its_batch_row(self, n):
        """The orbit's path (two ``np.dot`` calls) and the batch path (``np.vecmat``) give the same bits."""
        rng = np.random.default_rng(200 + n)
        P = random_cubic(rng, n)
        X = rng.standard_exponential((9, n))
        X /= X.sum(axis=1, keepdims=True)
        batch = apply_normalized(P, X)
        bound = 4 * n * np.finfo(float).eps
        orbits = [_orbit(P, x) for x in X]
        images = []
        for x, row, orbit in zip(X, batch, orbits):
            y = next(orbit)
            assert y.tobytes() == apply_normalized(P, x).tobytes() == row.tobytes()
            reference = np.einsum("ijk,i,j->k", P.p, x, x)
            assert np.max(np.abs(y - reference / reference.sum())) <= bound
            images.append(y)
        # Each image is a fresh array: the orbit's own intermediate is never handed out, and a later image leaves it as it was.
        seconds = [next(orbit) for orbit in orbits]
        assert np.array_equal(np.stack(images), batch)
        assert np.stack(seconds).tobytes() == apply_normalized(P, batch).tobytes()

    def test_batch_shape_checked(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        for apply_kernel in (apply_unnormalized, apply_normalized):
            for shape in [(2,), (4, 2), (4, 4), (2, 4, 3), ()]:
                with pytest.raises(DimensionError):
                    apply_kernel(P, np.ones(shape))


class TestFQsoSpec:
    """``build_f_qso`` refuses every (n, females, rows) that specifies no two-sex operator."""

    def test_rejects_empty_or_full_female_set(self):
        with pytest.raises(ValueError, match="nonempty proper subset"):
            build_f_qso(4, set(), np.empty((0, 4)))
        with pytest.raises(ValueError, match="nonempty proper subset"):
            build_f_qso(4, {1, 2, 3}, np.empty((0, 4)))

    def test_rejects_two_states(self):
        """n = 2 leaves no room for a nonempty proper female set."""
        with pytest.raises(ValueError, match="nonempty proper subset"):
            build_f_qso(2, {1}, [[0.5, 0.5]])

    def test_rejects_wrong_row_count_or_length(self):
        """F = {2} on four states has the two mixed pairs (2, 1) and (2, 3), so rows must stack to (2, 4)."""
        dist = [0.5, 0.25, 0.25, 0.0]
        for rows, shape in [([dist], (1, 4)), ([dist] * 3, (3, 4)), ([dist[:3]] * 2, (2, 3)), (dist, (4,))]:
            with pytest.raises(ValueError, match=re.escape(f"need 4 entries each; they stack to {shape}")):
                build_f_qso(4, {2}, rows)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError, match=r"not probability vectors: pair \(2, 1\)"):
            build_f_qso(3, {2}, [[0.5, 0.2, 0.2]])
        with pytest.raises(ValueError, match=r"not probability vectors: pair \(2, 1\)"):
            build_f_qso(3, {2}, [[np.nan, 0.5, 0.5]])


def mask_built(n, females, rows):
    """Reference expansion: the same-class pairs found by a mask, then the mixed rows pair by pair."""
    p = np.zeros((n, n, n))
    in_f = np.zeros(n, dtype=bool)
    in_f[list(females)] = True
    f_side = in_f.copy()
    f_side[0] = True
    m_side = ~in_f
    same_class = (f_side[:, None] & f_side[None, :]) | (m_side[:, None] & m_side[None, :])
    p[same_class, 0] = 1.0
    males = sorted(set(range(1, n)) - set(females))
    for (i, j), dist in zip([(i, j) for i in sorted(females) for j in males], rows, strict=True):
        p[i, j, :] = dist
        p[j, i, :] = dist
    return p


class TestBuildFQso:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_matches_mask_built_reference(self, m):
        rng = np.random.default_rng(40 + m)
        subsets = proper_subsets(m)
        for _ in range(12):
            females = subsets[int(rng.integers(len(subsets)))]
            rows = random_simplex_batch(rng, len(females) * (m - len(females)), m + 1)
            assert np.array_equal(build_f_qso(m + 1, females, rows).p, mask_built(m + 1, females, rows))
        table = random_simplex_batch(rng, m - 1, m + 1)
        assert np.array_equal(build_single_male(table).p, mask_built(m + 1, range(2, m + 1), table))
        if m == 2:
            assert np.array_equal(build_fqso_m2(*table[0]).p, mask_built(3, {2}, table))

    def test_matches_explicit_m2_matrix(self):
        """Expansion with F = {2} reproduces the explicit three-state matrix."""
        a, b, c = 0.3, 0.45, 0.25
        P = build_f_qso(3, {2}, [[a, b, c]])
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
            subsets = proper_subsets(m)
            females = subsets[int(rng.integers(len(subsets)))]
            P = sample_random_f_qso(m, females, int(rng.integers(2**32)))
            assert validate_stochastic(P).ok
            assert females in classify(P).f_qso_sets

    def test_all_mass_to_empty_body_is_constant(self):
        """Mixed pairs pointing at state 0 collapse everything in one step."""
        point_mass = np.array([1.0, 0.0, 0.0, 0.0])
        P = build_f_qso(4, {2, 3}, [point_mass, point_mass])
        rng = np.random.default_rng(3)
        vertex = np.array([1.0, 0.0, 0.0, 0.0])
        for _ in range(50):
            out = apply(P, SimplexPoint(random_simplex(rng, 4)))
            assert np.array_equal(out.coords, vertex)

    def test_one_step_absorption(self):
        """Zero mass on either sex sends the next step exactly to the vertex."""
        P = sample_random_f_qso(4, {2, 3}, seed=17)
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
        for not_a_number in ("0.5", None, [0.5]):
            with pytest.raises(TypeError):
                build_fqso_m2(not_a_number, 0.3, 0.2)


class TestSingleMaleFamily:
    def test_m2_agrees_with_m2_builder_exactly(self):
        a, b, c = 0.2, 0.5, 0.3
        assert np.array_equal(build_single_male(np.array([[a, b, c]])).p, build_fqso_m2(a, b, c).p)

    def test_coordinate_formulas(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            m = int(rng.integers(2, 7))
            table = rng.standard_exponential((m - 1, m + 1))
            table /= table.sum(axis=1, keepdims=True)
            P = build_single_male(table)
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
        P = build_single_male(table)
        x = np.array([0.25, 0.0, 0.25, 0.25, 0.25])
        out = apply(P, SimplexPoint(x))
        assert np.array_equal(out.coords, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_rejects_bad_table(self):
        with pytest.raises(DimensionError):
            build_single_male(np.full((2, 3), 0.5))
        with pytest.raises(DimensionError):
            build_single_male([])
        with pytest.raises(ValueError):
            build_single_male(np.array([[0.5, 0.5, 0.2]]))
        with pytest.raises(ValueError):
            build_single_male(np.array([[0.5, np.nan, 0.5]]))


def cubic_from_skew_loop(A):
    """The per-entry construction cubic_from_skew replaced, kept as its reference."""
    m = A.m
    p = np.zeros((m, m, m))
    half = (1.0 + A.a) / 2.0
    for k in range(m):
        for i in range(m):
            if i == k:
                continue
            p[i, k, k] = half[k, i]
            p[k, i, k] = half[k, i]
        p[k, k, k] = 1.0
    return CubicMatrix(p)


def skew_from_cubic_loop(P):
    """The per-entry extraction skew_from_cubic replaced, kept as its reference."""
    m = P.n
    a = np.zeros((m, m))
    for i in range(m):
        for k in range(i + 1, m):
            val = 2.0 * float(P.p[i, k, k]) - 1.0
            val = min(1.0, max(-1.0, val))
            a[k, i] = val
            a[i, k] = -val
    return SkewMatrix(a)


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

    def test_matrix_is_frozen_in_every_copy(self):
        assert_frozen(SkewMatrix(random_skew(np.random.default_rng(4), 5)), lambda copied: copied.a)

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

    @pytest.mark.parametrize("m", [2, 3, 4, 7, 12, 17])
    def test_vectorised_forms_match_loop_reference(self, m):
        """The cube is byte-identical and the skew equal to the per-entry loops."""
        rng = np.random.default_rng(60 + m)
        for trial in range(60):
            a = random_skew(rng, m)
            if trial % 3 == 1:
                a = np.round(a)  # entries -1, 0 and 1 exactly
            A = SkewMatrix(a)
            P = cubic_from_skew(A)
            assert P.p.tobytes() == cubic_from_skew_loop(A).p.tobytes()
            assert np.array_equal(skew_from_cubic(P).a, skew_from_cubic_loop(P).a)

    def test_slack_above_one_is_clipped_like_the_loop(self):
        """p[i, k, k] a little above 1 (row sum within tolerance) clips the skew entry to 1."""
        p = np.array(cubic_from_skew(SkewMatrix(random_skew(np.random.default_rng(7), 4))).p)
        p[0, 2] = p[2, 0] = 0.0
        p[0, 2, 2] = p[2, 0, 2] = 1.0 + 4e-13
        P = CubicMatrix(p)
        assert classify(P).is_volterra
        A = skew_from_cubic(P)
        assert A.a[2, 0] == 1.0 and A.a[0, 2] == -1.0
        assert np.array_equal(A.a, skew_from_cubic_loop(P).a)


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

    def test_rps_presets_match_hand_written_cubes(self):
        """The skew-built and index-built presets equal, to the bit, the cubes once written entry by entry."""
        v0 = np.zeros((3, 3, 3))
        v0[0, 0, 0] = v0[1, 1, 1] = v0[2, 2, 2] = 1.0
        v0[0, 1, 0] = v0[1, 0, 0] = 1.0
        v0[1, 2, 1] = v0[2, 1, 1] = 1.0
        v0[0, 2, 2] = v0[2, 0, 2] = 1.0
        v1 = np.zeros((3, 3, 3))
        v1[0, 0, 0] = v1[1, 1, 1] = v1[2, 2, 2] = 1.0
        v1[1, 2, 0] = v1[2, 1, 0] = 1.0
        v1[0, 2, 1] = v1[2, 0, 1] = 1.0
        v1[0, 1, 2] = v1[1, 0, 2] = 1.0
        assert preset("ganikhodzhaev_v0").p.tobytes() == v0.tobytes()
        assert preset("ganikhodzhaev_v1").p.tobytes() == v1.tobytes()
        for lam in (0.0, 0.3, 0.5, 0.7345, 1.0):
            assert preset("ganikhodzhaev_lambda", lam=lam).p.tobytes() == ((1.0 - lam) * v0 + lam * v1).tobytes()

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            preset("ganikhodzhaev_lambda", lam=1.5)
