"""Core types: simplex points, cubic matrices, validation, classification."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import (
    CubicMatrix,
    DimensionError,
    FemaleSets,
    InvalidPointError,
    SimplexPoint,
    StochasticityError,
    build_f_qso,
    build_fqso_m2,
    classify,
    female_sets,
    preset,
    proper_subsets,
    renormalize,
    sample_random_f_qso,
    validate_stochastic,
)
from helpers import random_cubic


class TestSimplexPoint:
    def test_valid_point(self):
        pt = SimplexPoint(np.array([0.25, 0.25, 0.5]))
        assert pt.dim == 3
        assert not pt.coords.flags.writeable

    def test_rejects_negative(self):
        with pytest.raises(InvalidPointError):
            SimplexPoint(np.array([1.1, -0.1]))

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidPointError):
            SimplexPoint(np.array([0.5, 0.6]))

    def test_rejects_dim_one(self):
        with pytest.raises(DimensionError):
            SimplexPoint(np.array([1.0]))

    def test_rejects_nan(self):
        with pytest.raises(InvalidPointError):
            SimplexPoint(np.array([np.nan, 1.0]))

    def test_uniform_and_vertex(self):
        assert np.allclose(SimplexPoint.uniform(4).coords, 0.25)
        v = SimplexPoint.vertex(3, 1)
        assert np.array_equal(v.coords, [0.0, 1.0, 0.0])


class TestRenormalize:
    def test_already_on_simplex_unchanged(self):
        pt = renormalize([0.5, 0.5, 0.0])
        assert np.array_equal(pt.coords, [0.5, 0.5, 0.0])

    def test_uniform_scaling(self):
        pt = renormalize([1.0, 1.0])
        assert np.array_equal(pt.coords, [0.5, 0.5])

    def test_clamps_within_tolerance(self):
        pt = renormalize([1.0 + 5e-13, -5e-13, 0.0])
        assert np.array_equal(pt.coords, [1.0, 0.0, 0.0])

    def test_rejects_large_negative(self):
        with pytest.raises(InvalidPointError):
            renormalize([1.0, -1e-6])

    def test_rejects_zero_sum(self):
        with pytest.raises(InvalidPointError):
            renormalize([0.0, 0.0, 0.0])

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=8).filter(
            lambda vals: sum(vals) > 1e-9
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_output_invariants(self, values):
        pt = renormalize(values)
        assert np.all(pt.coords >= 0.0)
        assert abs(pt.coords.sum() - 1.0) <= 1e-12


class TestCubicMatrix:
    def test_rejects_non_cube(self):
        with pytest.raises(DimensionError):
            CubicMatrix(np.zeros((2, 3, 2)))

    def test_rejects_declared_n_mismatch(self):
        with pytest.raises(DimensionError):
            CubicMatrix(np.zeros((3, 3, 3)), declared_n=4)

    def test_rejects_tiny(self):
        with pytest.raises(DimensionError):
            CubicMatrix(np.zeros((1, 1, 1)))

    def test_immutable(self):
        P = build_fqso_m2(0.0, 0.5, 0.5)
        with pytest.raises(ValueError):
            P.p[0, 0, 0] = 2.0


class TestValidateStochastic:
    def test_single_pair_family_matrix_ok(self):
        report = validate_stochastic(build_fqso_m2(0.0, 0.5, 0.5))
        assert report.ok
        assert report.violations == ()

    def test_zero_matrix_every_pair_violated(self):
        report = validate_stochastic(CubicMatrix(np.zeros((3, 3, 3))))
        assert not report.ok
        row_violations = [v for v in report.violations if v.kind == "row_sum"]
        assert {(v.i, v.j) for v in row_violations} == {
            (i, j) for i in range(3) for j in range(i, 3)
        }

    def test_asymmetry_witness(self):
        p = np.array(build_fqso_m2(0.0, 0.5, 0.5).p)
        p[0, 1, 0] = p[1, 0, 0] + 1e-6
        report = validate_stochastic(CubicMatrix(p))
        assert not report.ok
        witnesses = [(v.i, v.j, v.k) for v in report.violations if v.kind == "asymmetry"]
        assert (0, 1, 0) in witnesses

    def test_negative_entry_reported(self):
        p = np.zeros((2, 2, 2))
        p[:, :, 0] = 1.0
        p[0, 0, :] = [1.5, -0.5]
        report = validate_stochastic(CubicMatrix(p))
        kinds = {v.kind for v in report.violations}
        assert "negative" in kinds


def _strictly_non_volterra_3() -> CubicMatrix:
    # Every child type differs from both parents.
    p = np.zeros((3, 3, 3))
    p[0, 0, :] = [0.0, 0.5, 0.5]
    p[1, 1, :] = [0.5, 0.0, 0.5]
    p[2, 2, :] = [0.5, 0.5, 0.0]
    p[0, 1, 2] = p[1, 0, 2] = 1.0
    p[0, 2, 1] = p[2, 0, 1] = 1.0
    p[1, 2, 0] = p[2, 1, 0] = 1.0
    return CubicMatrix(p)


class TestClassify:
    def test_volterra_preset(self):
        """The rock-paper-scissors endpoint keeps children inside the parent pair."""
        report = classify(preset("ganikhodzhaev_v0"))
        assert report.is_volterra
        assert not report.is_strictly_non_volterra
        assert tuple(report.f_qso_sets) == ()

    def test_non_volterra_preset(self):
        report = classify(preset("ganikhodzhaev_v1"))
        assert not report.is_volterra
        assert not report.is_strictly_non_volterra
        assert tuple(report.f_qso_sets) == ()
        reasons = {w.reason for w in report.violations}
        assert len(report.violations) == 2 and len(reasons) == 2

    def test_strictly_non_volterra(self):
        report = classify(_strictly_non_volterra_3())
        assert report.is_strictly_non_volterra
        assert not report.is_volterra

    @pytest.mark.parametrize("abc", [(0.0, 0.5, 0.5), (1 / 3, 1 / 3, 1 / 3), (0.2, 0.5, 0.3)])
    def test_single_pair_family_female_sets(self, abc):
        """The three-state two-sex matrix matches F={2} (and its mirror F={1})."""
        report = classify(build_fqso_m2(*abc))
        assert frozenset({2}) in report.f_qso_sets
        assert set(report.f_qso_sets) == {frozenset({1}), frozenset({2})}
        assert not report.is_volterra

    def test_requires_valid_matrix(self):
        with pytest.raises(StochasticityError):
            classify(CubicMatrix(np.zeros((3, 3, 3))))

    def test_mutual_exclusivity_random(self):
        """Volterra and strictly non-Volterra can never hold together."""
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            report = classify(random_cubic(rng, n))
            assert not (report.is_volterra and report.is_strictly_non_volterra)

    def test_f_qso_implies_non_volterra(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(3, 6))
            report = classify(random_cubic(rng, n))
            if report.f_qso_sets:
                assert not report.is_volterra

    def test_f_sets_closed_under_complement(self):
        from qsodyn import build_f_qso, sample_random_f_qso

        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            subsets = proper_subsets(m)
            females = subsets[int(rng.integers(len(subsets)))]
            P = build_f_qso(sample_random_f_qso(m, females, int(rng.integers(2**32))))
            f_sets = set(classify(P).f_qso_sets)
            full = frozenset(range(1, m + 1))
            assert {full - s for s in f_sets} == f_sets

    def test_empty_body_diagonal_breaks_volterra(self):
        """Any matrix sending (i, i) to state 0 for i != 0 cannot be Volterra."""
        rng = np.random.default_rng(31)
        for _ in range(20):
            P = random_cubic(rng, 4)
            p = np.array(P.p)
            for i in range(1, 4):
                p[i, i, :] = 0.0
                p[i, i, 0] = 1.0
            assert not classify(CubicMatrix(p)).is_volterra

    def test_pattern_is_scale_free(self):
        """Shuffling mass inside an interior mixed distribution keeps the female sets."""
        from qsodyn import build_f_qso, sample_random_f_qso

        spec = sample_random_f_qso(4, {2, 3}, seed=99)
        P = build_f_qso(spec)
        before = classify(P).f_qso_sets
        p = np.array(P.p)
        # move mass between two children of the mixed pair (2, 1)
        eps = min(1e-3, p[2, 1, 0] / 2)
        p[2, 1, 0] -= eps
        p[2, 1, 4] += eps
        p[1, 2, :] = p[2, 1, :]
        assert classify(CubicMatrix(p)).f_qso_sets == before


def empty_body_pattern(p):
    """Boolean pair matrix: the (i, j) row is exactly the point mass on state 0."""
    return (p[:, :, 0] == 1.0) & np.all(p[:, :, 1:] == 0.0, axis=2)


def matches_partition(P, females):
    """Brute-force pattern test for one female set: every same-class pair is empty-body.

    Same-class pairs (both parents in F+{0}, or both in M+{0}) must map
    exactly to the point mass on state 0, in both orientations.
    """
    n = P.n
    in_f = np.zeros(n, dtype=bool)
    in_f[list(females)] = True
    f_side = in_f.copy()
    f_side[0] = True
    m_side = ~in_f  # includes state 0
    same_class = (f_side[:, None] & f_side[None, :]) | (m_side[:, None] & m_side[None, :])
    return bool(np.all(empty_body_pattern(P.p)[same_class]))


def oracle_sets(P):
    """Brute-force female sets: every nonempty proper subset tested against the pattern."""
    return tuple(f for f in proper_subsets(P.n - 1) if matches_partition(P, f))


def empty_body(n):
    """A cube whose every pair is the point mass on state 0 (the pair graph has no edge)."""
    p = np.zeros((n, n, n))
    p[:, :, 0] = 1.0
    return p


def with_pairs(p, pairs, rng):
    """Give each listed pair (i, j) a random interior offspring distribution."""
    p = np.array(p)
    for i, j in pairs:
        row = rng.standard_exponential(p.shape[0])
        p[i, j] = p[j, i] = row / row.sum()
    return CubicMatrix(p)


def unvalidated_cube(rng, n):
    """A cube whose ordered pairs are independently empty-body or not (asymmetric, unvalidated).

    Most cubes get every (0, i), (i, 0) and diagonal pair empty-body, so
    that female sets can exist; some of those then lose one orientation.
    A non-empty-body row is a random distribution, or the point mass on
    state 0 spoiled by a tiny mass elsewhere or by 1 - 1e-16.
    """
    share = rng.uniform(0.6, 1.0)
    empty = rng.random((n, n)) < share
    if rng.random() < 0.8:
        empty[0, :] = empty[:, 0] = True
        np.fill_diagonal(empty, True)
        if rng.random() < 0.2:
            empty[tuple(rng.integers(n, size=2))] = False
    p = rng.standard_exponential((n, n, n))
    p /= p.sum(axis=2, keepdims=True)
    for i, j in zip(*np.nonzero(~empty)):
        kind = rng.integers(3)
        if kind == 1:
            p[i, j] = 0.0
            p[i, j, 0] = 1.0
            p[i, j, rng.integers(1, n)] = 1e-300
        elif kind == 2:
            p[i, j] = 0.0
            p[i, j, 0] = 1.0 - 1e-16
    p[empty] = 0.0
    p[empty, 0] = 1.0
    return CubicMatrix(p)


def assert_matches_oracle(P, sets=None):
    expected = oracle_sets(P)
    if sets is None:
        sets = classify(P).f_qso_sets
    assert isinstance(sets, FemaleSets)
    assert tuple(sets) == expected
    assert sets.total == len(expected) == len(sets)
    assert bool(sets) == bool(expected)
    assert sets.first == (expected[0] if expected else None)
    assert sets.first is None or matches_partition(P, sets.first)
    for females in proper_subsets(P.n - 1):
        assert (females in sets) == (females in expected)
    return sets


class TestPairGraphClassification:
    """Female sets read off the pair graph agree with testing every subset."""

    @pytest.mark.parametrize("m", range(2, 8))
    def test_random_f_qsos_with_empty_mixed_pairs(self, m):
        rng = np.random.default_rng(100 + m)
        subsets = proper_subsets(m)
        for trial in range(25):
            females = subsets[int(rng.integers(len(subsets)))]
            p = np.array(build_f_qso(sample_random_f_qso(m, females, seed=trial)).p)
            for i in sorted(females):
                for j in sorted(set(range(1, m + 1)) - females):
                    if rng.random() < 0.4:
                        p[i, j] = p[j, i] = 0.0
                        p[i, j, 0] = p[j, i, 0] = 1.0
            sets = assert_matches_oracle(CubicMatrix(p))
            assert females in sets

    def test_odd_cycle_has_no_sets(self):
        P = with_pairs(empty_body(5), [(1, 2), (2, 3), (3, 1)], np.random.default_rng(1))
        sets = assert_matches_oracle(P)
        assert not sets and sets.components is None and sets.total == 0

    def test_components_and_isolated_states(self):
        """Two paths and the isolated state 7: 2^3 colourings."""
        P = with_pairs(empty_body(8), [(1, 2), (2, 3), (4, 5), (5, 6)], np.random.default_rng(2))
        sets = assert_matches_oracle(P)
        assert sets.components == (
            (frozenset({1, 3}), frozenset({2})),
            (frozenset({4, 6}), frozenset({5})),
            (frozenset({7}), frozenset()),
        )
        assert sets.total == 8 and sets.first == frozenset({2, 5})

    def test_tie_goes_to_the_side_with_the_smallest_state(self):
        P = with_pairs(empty_body(6), [(1, 4), (2, 3), (5, 2)], np.random.default_rng(3))
        sets = assert_matches_oracle(P)
        assert sets.first == frozenset({1, 2})

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_edgeless_graph(self, n):
        sets = assert_matches_oracle(CubicMatrix(empty_body(n)))
        assert sets.total == 2 ** (n - 1) - 2

    @pytest.mark.parametrize("pair", [(0, 1), (0, 0), (1, 1), (3, 3)])
    def test_non_empty_body_pair_that_must_be_empty(self, pair):
        P = with_pairs(build_f_qso(sample_random_f_qso(3, {2}, seed=4)).p, [pair], np.random.default_rng(4))
        sets = assert_matches_oracle(P)
        assert not sets

    @pytest.mark.parametrize("pair", [(0, 2), (2, 2), (2, 3)])
    def test_nearly_one_is_not_one(self, pair):
        """1 - 1e-16 where an exact 1 belongs makes the pair an edge, exactly as in the oracle."""
        p = build_f_qso(sample_random_f_qso(3, {2, 3}, seed=5)).p.copy()
        i, j = pair
        p[i, j, 0] = p[j, i, 0] = 1.0 - 1e-16
        assert p[i, j, 0] != 1.0
        P = CubicMatrix(p)
        assert validate_stochastic(P).ok
        sets = assert_matches_oracle(P)
        assert not sets

    def test_three_state_family_count(self):
        """build_fqso_m2 has one edge and one component: the sets {1} and {2}."""
        sets = classify(build_fqso_m2(0.2, 0.5, 0.3)).f_qso_sets
        assert sets.total == 2 and sets.components == ((frozenset({1}), frozenset({2})),)

    def test_classify_tests_no_subset(self):
        sets = classify(build_f_qso(sample_random_f_qso(12, {2, 5, 7}, seed=6))).f_qso_sets
        assert frozenset({2, 5, 7}) in sets and sets.total == 2

    def test_edgeless_33_states_without_listing(self):
        start = time.perf_counter()
        sets = classify(CubicMatrix(empty_body(33))).f_qso_sets
        assert sets.total == 2**32 - 2 and sets
        assert sets.first == frozenset({1})
        assert frozenset(range(2, 33)) in sets and frozenset(range(1, 33)) not in sets
        assert time.perf_counter() - start < 1.0

    def test_membership_rejects_foreign_values(self):
        sets = classify(build_fqso_m2(0.2, 0.5, 0.3)).f_qso_sets
        assert {1} in sets and frozenset({2}) in sets
        assert frozenset({0}) not in sets and frozenset({3}) not in sets and 1 not in sets

    @pytest.mark.parametrize("n", range(2, 9))
    def test_unvalidated_cubes(self, n):
        """female_sets agrees with the oracle on asymmetric cubes, for M = {1} too."""
        rng = np.random.default_rng(700 + n)
        found = one_sided = 0
        for _ in range(300):
            P = unvalidated_cube(rng, n)
            sets = assert_matches_oracle(P, female_sets(P))
            single_male = n >= 3 and matches_partition(P, frozenset(range(2, n)))
            assert (frozenset(range(2, n)) in sets) == single_male
            found += bool(sets)
            empty = empty_body_pattern(P.p)
            one_sided += bool((empty != empty.T).any())
        assert found >= (0 if n == 2 else 80) and one_sided >= 40

    def test_one_sided_empty_body_pair_is_an_edge(self):
        """(1, 2) empty-body but (2, 1) not: the pair must cross, so {1} and {2} remain."""
        p = empty_body(3)
        p[2, 1] = [0.5, 0.25, 0.25]
        P = CubicMatrix(p)
        assert not validate_stochastic(P).ok
        sets = assert_matches_oracle(P, female_sets(P))
        assert tuple(sets) == (frozenset({1}), frozenset({2}))
        p[1, 0] = [0.5, 0.25, 0.25]
        assert not assert_matches_oracle(CubicMatrix(p), female_sets(CubicMatrix(p)))


class TestProperSubsets:
    def test_count(self):
        assert len(proper_subsets(1)) == 0
        assert len(proper_subsets(2)) == 2
        assert len(proper_subsets(8)) == 254

    def test_order_is_size_then_lex(self):
        subsets = proper_subsets(3)
        assert subsets[:3] == [frozenset({1}), frozenset({2}), frozenset({3})]
        assert subsets[3:] == [frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})]
