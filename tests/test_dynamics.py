"""Trajectories, the convergence functional, fixed points, Cesaro averages."""

import math
import time

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from qsodyn import (
    TOL_FIX,
    ClassificationError,
    DimensionError,
    SimplexPoint,
    SingleMaleCoefficients,
    apply,
    build_f_qso,
    build_fqso_m2,
    build_single_male,
    cesaro_average,
    cesaro_running,
    conjecture_scan,
    convergence_report,
    find_fixed_points,
    fixed_points_m2,
    iterate_batch,
    lyapunov,
    lyapunov_bound,
    lyapunov_closed_form,
    preset,
    sample_random_f_qso,
    trajectory,
)
from qsodyn import dynamics
from qsodyn.core import proper_subset
from qsodyn.operators import SkewMatrix, apply_normalized, apply_unnormalized, cubic_from_skew
from helpers import random_cubic, random_simplex, random_simplex_batch


def random_single_male(rng, m):
    table = rng.standard_exponential((m - 1, m + 1))
    table /= table.sum(axis=1, keepdims=True)
    return build_single_male(SingleMaleCoefficients(table))


class TestLyapunov:
    def test_vertex_is_zero(self):
        assert lyapunov(SimplexPoint.vertex(3)) == 0.0

    def test_three_states(self):
        assert lyapunov(SimplexPoint(np.array([0.0, 0.5, 0.5]))) == 0.25

    def test_four_states(self):
        assert lyapunov(SimplexPoint(np.array([0.0, 0.5, 0.25, 0.25]))) == 0.25

    def test_needs_three_states(self):
        with pytest.raises(DimensionError):
            lyapunov(SimplexPoint(np.array([0.5, 0.5])))

    @given(st.integers(3, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sandwich_bounds(self, n, seed):
        """0 <= value <= 1/4 for every simplex point."""
        x = SimplexPoint(random_simplex(np.random.default_rng(seed), n))
        value = lyapunov(x)
        assert 0.0 <= value <= 0.25

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaled_product_sandwich(self, b, c, seed):
        """0 <= 4bc*x1*x2 <= 1/4 whenever b + c <= 1."""
        if b + c > 1.0:
            b, c = b / 2, c / 2
        x = random_simplex(np.random.default_rng(seed), 3)
        value = 4.0 * b * c * x[1] * x[2]
        assert 0.0 <= value <= 0.25 + 1e-15


class TestClosedForm:
    def test_n_zero_returns_start(self):
        assert lyapunov_closed_form(0.5, 0.5, 0.25, 0) == 0.25
        assert lyapunov_closed_form(0.0, 0.7, 0.1, 0) == 0.1

    def test_one_step_dyadic_exact(self):
        """b = c = 1/2 from 1/4: one step gives exactly 1/16."""
        assert lyapunov_closed_form(0.5, 0.5, 0.25, 1) == 1.0 / 16.0

    def test_degenerate_product(self):
        assert lyapunov_closed_form(0.0, 0.5, 0.2, 1) == 0.0
        assert lyapunov_closed_form(0.5, 0.0, 0.2, 7) == 0.0

    def test_rejects_out_of_range_start(self):
        with pytest.raises(ValueError):
            lyapunov_closed_form(0.5, 0.5, 0.3, 1)
        with pytest.raises(ValueError):
            lyapunov_closed_form(0.5, 0.5, -0.1, 1)

    def test_huge_n_underflows_to_zero(self):
        assert lyapunov_closed_form(0.4, 0.4, 0.2, 10_000) == 0.0

    def test_matches_trajectory_iteration(self):
        """The scalar recurrence tracks the functional along real orbits."""
        rng = np.random.default_rng(20)
        for _ in range(10):
            abc = rng.standard_exponential(3)
            abc /= abc.sum()
            a, b, c = abc
            P = build_fqso_m2(a, b, c)
            x = SimplexPoint(random_simplex(rng, 3))
            phi0 = lyapunov(x)
            for step in range(1, 12):
                x = apply(P, x)
                expected = lyapunov_closed_form(b, c, phi0, step)
                actual = lyapunov(x)
                if expected < 1e-200:
                    break
                assert actual == pytest.approx(expected, rel=1e-9)


class TestBound:
    def test_first_values(self):
        assert lyapunov_bound(0).value == 0.25
        assert lyapunov_bound(2).value == 1.0 / 256.0
        assert lyapunov_bound(0).is_exact and lyapunov_bound(2).is_exact

    def test_underflow_reports_log2(self):
        bound = lyapunov_bound(10)
        assert bound.value == 0.0
        assert not bound.is_exact
        assert bound.log2 == -2048.0

    def test_log2_beyond_double_range(self):
        """A step count as large as a CSV cell may hold: 2^(n+1) overflows a double."""
        assert lyapunov_bound(1022).log2 == -(2.0**1023)
        bound = lyapunov_bound(10**12)
        assert bound.value == 0.0 and not bound.is_exact and bound.log2 == -math.inf

    def test_last_representable(self):
        bound = lyapunov_bound(9)
        assert bound.value == math.ldexp(1.0, -1024)
        assert bound.is_exact


class TestTrajectory:
    def test_converges_fast_to_vertex(self):
        """From (0, 1/2, 1/2) the m2 orbit is within 1e-9 of the vertex by step 6."""
        traj = trajectory(
            build_fqso_m2(0.0, 0.5, 0.5),
            SimplexPoint(np.array([0.0, 0.5, 0.5])),
            max_steps=20,
            tol=1e-9,
            reference=SimplexPoint.vertex(3),
        )
        assert traj.stop_reason == "converged"
        assert len(traj) <= 7
        assert traj.dist_to_limit[-1] <= 1e-9

    def test_vertex_start_converges_at_step_zero(self):
        P = build_f_qso(sample_random_f_qso(3, {2}, seed=2))
        traj = trajectory(
            P, SimplexPoint.vertex(4), max_steps=10, tol=1e-9, reference=SimplexPoint.vertex(4)
        )
        assert traj.stop_reason == "converged"
        assert len(traj) == 1

    def test_points_chain_under_apply(self):
        rng = np.random.default_rng(21)
        P = random_single_male(rng, 3)
        x0 = SimplexPoint(random_simplex(rng, 4))
        traj = trajectory(P, x0, max_steps=6)
        for prev, nxt in zip(traj.coords, traj.coords[1:]):
            if np.array_equal(nxt, SimplexPoint.vertex(4).coords):
                continue  # the documented underflow snap
            np.testing.assert_array_equal(apply(P, SimplexPoint(prev)).coords, nxt)

    def test_underflow_snap_reaches_exact_vertex(self):
        rng = np.random.default_rng(22)
        P = random_single_male(rng, 4)
        traj = trajectory(P, SimplexPoint(random_simplex(rng, 5)), max_steps=100)
        assert traj.stop_reason == "converged"
        assert np.array_equal(traj.coords[-1], SimplexPoint.vertex(5).coords)
        assert len(traj) < 30

    def test_irregular_preset_never_settles_at_barycenter(self):
        """The Volterra RPS orbit leaves the barycenter and never returns."""
        bary = SimplexPoint.uniform(3)
        start = SimplexPoint(np.array([1 / 3 + 1e-4, 1 / 3 - 5e-5, 1 / 3 - 5e-5]))
        traj = trajectory(
            preset("ganikhodzhaev_v0"), start, max_steps=2000, tol=1e-9, reference=bary
        )
        assert traj.stop_reason == "max_steps"
        assert np.min(traj.dist_to_limit[1:]) > 1e-9

    def test_coords_are_read_only(self):
        traj = trajectory(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), max_steps=3)
        assert traj.coords.shape == (4, 3)
        assert not traj.coords.flags.writeable

    def test_huge_step_budget_is_not_allocated(self):
        """A snapping single-male orbit stops early; nothing is sized by max_steps."""
        rng = np.random.default_rng(27)
        traj = trajectory(random_single_male(rng, 3), SimplexPoint(random_simplex(rng, 4)), max_steps=10**9)
        assert traj.stop_reason == "converged"
        assert len(traj) < 40

    def test_off_simplex_step_stops_as_invalid_state(self, monkeypatch):
        calls = []

        def broken(P, x):
            calls.append(x)
            return np.full(P.n, np.nan) if len(calls) == 3 else x

        monkeypatch.setattr(dynamics, "apply_normalized", broken)
        traj = trajectory(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), max_steps=10)
        assert traj.stop_reason == "invalid_state"
        assert len(traj) == 3
        assert np.all(np.isfinite(traj.coords))

    def test_errors_inside_a_step_propagate(self, monkeypatch):
        def broken(P, x):
            raise RuntimeError("bug in the kernel")

        monkeypatch.setattr(dynamics, "apply_normalized", broken)
        with pytest.raises(RuntimeError):
            trajectory(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), max_steps=10)

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_diagnostics_match_per_row_loop(self, m):
        """The vectorized functional and distances equal the per-point values bitwise."""
        rng = np.random.default_rng(m)
        P = random_single_male(rng, m)
        reference = SimplexPoint(random_simplex(rng, m + 1))
        traj = trajectory(P, SimplexPoint(random_simplex(rng, m + 1)), max_steps=12, reference=reference)
        for row, phi, dist in zip(traj.coords, traj.lyapunov_values, traj.dist_to_limit):
            assert phi == lyapunov(SimplexPoint(row))
            assert dist == float(np.max(np.abs(row - reference.coords)))

    def test_batch_matches_scalar_iteration(self):
        rng = np.random.default_rng(23)
        P = random_single_male(rng, 3)
        starts = random_simplex_batch(rng, 8, 4)
        batch = iterate_batch(P, starts, steps=5)
        for row, x0 in zip(batch, starts):
            x = SimplexPoint(x0)
            for _ in range(5):
                x = apply(P, x)
            np.testing.assert_array_equal(row, x.coords)


class TestFixedPointsM2:
    def test_half_half_candidates(self):
        """(0, 1/2, 1/2): algebraic candidate (-1, 1, 1) is off the simplex."""
        report = fixed_points_m2(0.0, 0.5, 0.5)
        assert len(report.candidates) == 2
        vertex, x_star = report.candidates
        assert np.array_equal(vertex.point, [1.0, 0.0, 0.0]) and vertex.in_simplex
        np.testing.assert_allclose(x_star.point, [-1.0, 1.0, 1.0], rtol=0, atol=1e-15)
        assert not x_star.in_simplex
        assert np.array_equal(report.unique_in_simplex.coords, [1.0, 0.0, 0.0])

    def test_degenerate_product_keeps_only_vertex(self):
        report = fixed_points_m2(1.0, 0.0, 0.0)
        assert len(report.candidates) == 1
        assert np.array_equal(report.candidates[0].point, [1.0, 0.0, 0.0])

    def test_uniform_coefficients(self):
        report = fixed_points_m2(1 / 3, 1 / 3, 1 / 3)
        x_star = report.candidates[1]
        np.testing.assert_allclose(x_star.point, [-2.0, 1.5, 1.5], rtol=1e-12)
        assert not x_star.in_simplex

    def test_rejected_candidate_is_never_in_simplex(self):
        """The constraint chain of the uniqueness proof, checked at random."""
        rng = np.random.default_rng(24)
        for _ in range(200):
            abc = rng.standard_exponential(3)
            abc /= abc.sum()
            report = fixed_points_m2(*abc)
            for cand in report.candidates[1:]:
                assert not cand.in_simplex
            assert np.array_equal(report.unique_in_simplex.coords, [1.0, 0.0, 0.0])

    def test_candidates_have_tiny_residuals(self):
        report = fixed_points_m2(0.1, 0.6, 0.3)
        for cand in report.candidates:
            assert cand.residual <= 1e-12

    def test_rejects_bad_coefficients(self):
        with pytest.raises(ValueError):
            fixed_points_m2(0.5, 0.5, 0.5)


class TestFindFixedPoints:
    def test_m2_single_cluster_at_vertex(self):
        report = find_fixed_points(build_fqso_m2(0.0, 0.5, 0.5), starts=30, seed=1)
        assert len(report.candidates) == 1
        assert np.array_equal(report.candidates[0].point, [1.0, 0.0, 0.0])
        assert np.array_equal(report.unique_in_simplex.coords, [1.0, 0.0, 0.0])

    def test_rps_preset_finds_vertices_and_barycenter(self):
        report = find_fixed_points(preset("ganikhodzhaev_v0"), starts=80, seed=2)
        points = [cand.point for cand in report.candidates]
        expected = [
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
            np.full(3, 1 / 3),
        ]
        for target in expected:
            assert any(np.max(np.abs(pt - target)) < 1e-8 for pt in points)
        assert report.unique_in_simplex is None

    def test_single_male_unique_vertex(self):
        rng = np.random.default_rng(25)
        report = find_fixed_points(random_single_male(rng, 5), starts=50, seed=3)
        assert len(report.candidates) == 1
        assert np.array_equal(report.candidates[0].point, [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])

    def test_polish_gives_up_on_non_finite_residuals(self, monkeypatch):
        """Non-finite rows leave the stack before the solve, as rejected (NaN) polishes."""
        P = preset("ganikhodzhaev_v0")
        guesses = np.array([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.1, 0.1, 0.8]])
        expected = dynamics._polish(P, guesses[[0, 2]])
        for bad in (np.nan, np.inf):

            def poisoned(P, x):
                out = apply_unnormalized(P, x)
                out[np.all(x == guesses[1], axis=-1)] = bad
                return out

            monkeypatch.setattr(dynamics, "apply_unnormalized", poisoned)
            started = time.perf_counter()
            polished = dynamics._polish(P, guesses)
            assert time.perf_counter() - started < 1.0
            assert np.isnan(polished[1]).all()
            assert np.array_equal(polished[[0, 2]], expected)
            monkeypatch.setattr(dynamics, "apply_unnormalized", lambda P, x: np.full(x.shape, bad))
            assert np.isnan(dynamics._polish(P, guesses)).all()

    def test_polish_propagates_unrelated_errors(self, monkeypatch):
        def broken(P, x):
            raise RuntimeError("bug in the residual")

        monkeypatch.setattr(dynamics, "apply_unnormalized", broken)
        with pytest.raises(RuntimeError):
            dynamics._polish(preset("ganikhodzhaev_v0"), np.full((1, 3), 1 / 3))

    def test_deterministic(self):
        P = preset("ganikhodzhaev_v0")
        r1 = find_fixed_points(P, starts=40, seed=9)
        r2 = find_fixed_points(P, starts=40, seed=9)
        assert len(r1.candidates) == len(r2.candidates)
        for c1, c2 in zip(r1.candidates, r2.candidates):
            np.testing.assert_array_equal(c1.point, c2.point)


def reference_fixed_point_search(P, starts, seed):
    """The per-start multistart loop: each start iterated alone, polished in turn as a one-row stack.

    Returns the clustered (point, residual) pairs and the polish counts.
    """
    rng = np.random.default_rng(seed)
    found = []
    polishes = accepted = 0

    def consider(x):
        r = dynamics._residual(P, x)
        if r <= TOL_FIX:
            found.append((x, r))
            return True
        return False

    for _ in range(starts):
        draw = rng.standard_exponential(P.n)
        x0 = draw / draw.sum()
        x = x0
        for _ in range(200):
            x, previous = apply_normalized(P, x), x
            if np.array_equal(x, previous):
                break
        if consider(x):
            continue
        for guess in (x0, x):
            polishes += 1
            accepted += consider(dynamics._polish(P, guess[None])[0])

    found.sort(key=lambda item: item[1])
    representatives = []
    for x, r in found:
        if all(float(np.max(np.abs(x - y))) > 1e-8 for y, _ in representatives):
            representatives.append((x, r))
    representatives.sort(key=lambda item: tuple(item[0]))
    return representatives, polishes, accepted


def _cyclic_skew_3():
    a = np.array([[0.0, 0.95, -0.9], [-0.95, 0.0, 0.92], [0.9, -0.92, 0.0]])
    return cubic_from_skew(SkewMatrix(a))


REFERENCE_OPERATORS = {
    "rps": lambda: preset("ganikhodzhaev_v0"),
    "blend": lambda: preset("ganikhodzhaev_lambda", lam=0.45),
    "skew3": _cyclic_skew_3,
    "dense6": lambda: random_cubic(np.random.default_rng(61), 6),
    "fqso_m2": lambda: preset("fqso_m2", a=0.2, b=0.5, c=0.3),
    "fqso9": lambda: build_f_qso(sample_random_f_qso(8, {2, 5, 6}, seed=62)),
    "fqso13": lambda: build_f_qso(sample_random_f_qso(12, {1, 3, 4, 9, 10, 11}, seed=63)),
}


class TestBatchedFixedPointSearch:
    """The batched search returns bitwise the candidates of the per-start loop."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_OPERATORS))
    def test_matches_per_start_reference(self, name):
        P = REFERENCE_OPERATORS[name]()
        for seed in (0, 1, 2):
            for starts in (1, 7, 100):
                report = find_fixed_points(P, starts=starts, seed=seed)
                expected, polishes, accepted = reference_fixed_point_search(P, starts, seed)
                assert len(report.candidates) == len(expected)
                for cand, (x, r) in zip(report.candidates, expected):
                    assert np.array_equal(cand.point, x)
                    assert np.array_equal(cand.residual, r)
                assert (report.polishes, report.polishes_accepted) == (polishes, accepted)

    def test_polish_counts(self):
        """Attracting vertices need no polish; a start that does not settle is polished twice."""
        report = find_fixed_points(build_fqso_m2(0.0, 0.5, 0.5), starts=30, seed=1)
        assert (report.polishes, report.polishes_accepted) == (0, 0)
        report = find_fixed_points(preset("ganikhodzhaev_v0"), starts=10, seed=2)
        assert report.polishes % 2 == 0 and 0 < report.polishes_accepted <= report.polishes
        assert fixed_points_m2(0.2, 0.5, 0.3).polishes == 0


def scipy_polish(P, guess):
    """The scipy ``least_squares`` polish the Gauss-Newton stack replaced; None when it gives up."""

    def fun(x):
        return np.concatenate([apply_unnormalized(P, x) - x, [x.sum() - 1.0]])

    x0 = np.clip(guess, 0.0, 1.0)
    try:
        sol = scipy.optimize.least_squares(fun, x0, bounds=(0.0, 1.0), xtol=1e-15, ftol=1e-15, gtol=1e-15)
    except ValueError:  # infeasible start or non-finite residuals
        return None
    x = np.clip(sol.x, 0.0, None)
    total = x.sum()
    if total <= 0.0:
        return None
    return x / total


def scipy_polish_stack(P, guesses):
    """``scipy_polish`` behind ``_polish``'s stack signature: NaN rows where it gave up."""
    rows = [scipy_polish(P, guess) for guess in guesses]
    return np.array([np.full(P.n, np.nan) if x is None else x for x in rows]).reshape(guesses.shape)


def _random_skew_cube(n, seed):
    a = np.triu(np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n)), 1)
    return cubic_from_skew(SkewMatrix(a - a.T))


QUALITY_OPERATORS = {
    **REFERENCE_OPERATORS,
    **{f"skew{n}_{s}": (lambda n=n, s=s: _random_skew_cube(n, 100 * n + s)) for n in (3, 4, 5) for s in range(6)},
}


class TestPolishQuality:
    """The Gauss-Newton search finds every fixed point the scipy polish found, at 100 starts.

    Not asserted at 1 or 7 starts: there the two polishes may settle on
    different points (at 7 starts, seed 0, Gauss-Newton misses skew3's
    interior point).
    """

    @pytest.mark.parametrize("name", sorted(QUALITY_OPERATORS))
    def test_finds_every_scipy_cluster(self, name, monkeypatch):
        P = QUALITY_OPERATORS[name]()
        for seed in (0, 1, 2):
            found = [cand.point for cand in find_fixed_points(P, starts=100, seed=seed).candidates]
            for x in found:
                assert np.max(np.abs(np.einsum("ijk,i,j->k", P.p, x, x) - x)) <= TOL_FIX
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "_polish", scipy_polish_stack)
                reference = find_fixed_points(P, starts=100, seed=seed)
            # A residual within TOL_FIX places a degenerate root (residual
            # quadratic in the distance, as at a skew's neutral vertex) only
            # to within sqrt(TOL_FIX); scipy stops up to 2.5e-8 from the
            # vertex that Gauss-Newton reaches exactly.
            for cand in reference.candidates:
                assert min(np.max(np.abs(cand.point - x)) for x in found) <= math.sqrt(TOL_FIX)


class TestCesaro:
    def test_single_term_returns_start(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        x0 = SimplexPoint(np.array([0.1, 0.4, 0.5]))
        avg = cesaro_average(P, x0, 1)
        np.testing.assert_array_equal(avg.coords, x0.coords)

    def test_fixed_start_is_constant(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        vertex = SimplexPoint.vertex(3)
        for n in (1, 5, 50):
            np.testing.assert_array_equal(cesaro_average(P, vertex, n).coords, vertex.coords)

    def test_tracks_the_limit(self):
        """When the orbit converges, the averages converge to the same point."""
        rng = np.random.default_rng(26)
        P = random_single_male(rng, 4)
        x0 = SimplexPoint(random_simplex(rng, 5))
        avg = cesaro_average(P, x0, 1000)
        assert np.max(np.abs(avg.coords - SimplexPoint.vertex(5).coords)) <= 1e-2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            cesaro_average(build_fqso_m2(0.2, 0.5, 0.3), SimplexPoint.vertex(3), 0)

    def test_running_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            cesaro_running(build_fqso_m2(0.2, 0.5, 0.3), SimplexPoint.vertex(4), [1, 2])

    def test_average_is_last_running_average(self):
        rng = np.random.default_rng(28)
        P = random_single_male(rng, 4)
        x0 = SimplexPoint(random_simplex(rng, 5))
        [(_, running)] = cesaro_running(P, x0, [37])
        assert np.array_equal(cesaro_average(P, x0, 37).coords, running)


class TestConvergenceReport:
    def test_male_identity_exact(self):
        """x1(1) = 2b * phi(x(0)) = 1/4 exactly for (0, 1/2, 1/2) from (0, 1/2, 1/2)."""
        report = convergence_report(
            build_fqso_m2(0.0, 0.5, 0.5),
            SimplexPoint(np.array([0.0, 0.5, 0.5])),
            n_max=10,
        )
        assert report.mode == "certified"
        assert report.trajectory.coords[1, 1] == 0.25
        assert np.all(report.male_identity_residuals <= 1e-12)

    def test_certificate_columns_hold(self):
        rng = np.random.default_rng(27)
        for m in (2, 3, 5):
            P = random_single_male(rng, m)
            report = convergence_report(P, SimplexPoint(random_simplex(rng, m + 1)), n_max=25)
            assert report.mode == "certified"
            assert np.all(report.bound_ok)
            assert np.all(report.squared_contraction_ok)
            assert np.all(report.coordinate_bound_ok)
            assert report.first_below is not None

    def test_general_two_sex_is_certified(self):
        P = build_f_qso(sample_random_f_qso(3, {2}, seed=5))  # males {1, 3}
        report = convergence_report(P, SimplexPoint.uniform(4), n_max=10)
        assert report.mode == "certified" and report.trajectory.females == frozenset({2})
        assert report.bound_ok.all() and report.squared_contraction_ok.all() and report.coordinate_bound_ok.all()

    def test_coordinate_bound_matches_per_step_loop(self):
        P = build_f_qso(sample_random_f_qso(4, {2}, seed=1))  # males {1, 3, 4}
        report = convergence_report(P, SimplexPoint.uniform(5), n_max=15)
        coords, phis = report.trajectory.coords, report.trajectory.lyapunov_values
        expected = [bool(np.all(coords[n + 1, 1:] <= 2.0 * phis[n] + 1e-12)) for n in range(len(coords) - 1)]
        assert report.coordinate_bound_ok.tolist() == expected
        assert all(expected)  # proved for every female set

    def test_two_sex_beyond_seventeen_states_is_certified(self):
        """A 21-state F-QSO with |F| = |M| = 10 is classified, not refused."""
        females = frozenset(range(1, 21, 2))
        P = build_f_qso(sample_random_f_qso(20, females, seed=8))
        report = convergence_report(P, SimplexPoint.uniform(21), n_max=10)
        assert report.mode == "certified" and report.trajectory.females == females
        assert report.bound_ok.all() and report.squared_contraction_ok.all() and report.coordinate_bound_ok.all()

    def test_rejects_non_two_sex_operator(self):
        with pytest.raises(ClassificationError):
            convergence_report(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), n_max=5)

    def test_squared_contraction_property(self):
        """phi(x(n+1)) <= phi(x(n))^2 stepwise along single-male orbits."""
        rng = np.random.default_rng(28)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            P = random_single_male(rng, m)
            traj = trajectory(P, SimplexPoint(random_simplex(rng, m + 1)), max_steps=30)
            phis = traj.lyapunov_values
            assert np.all(phis[1:] <= phis[:-1] ** 2 + 1e-15)


def skewed_start(rng, n):
    """A simplex point of random skew: powers of uniforms, sometimes with x0 = 0."""
    draw = rng.random(n) ** (10.0 ** rng.uniform(-1.0, 1.6))
    if rng.random() < 0.3:
        draw[0] = 0.0
    return SimplexPoint(draw / draw.sum())


class TestEveryFemaleSetIsCertified:
    """phi_F = x_F * x_M certifies every F-QSO, not only M = {1}."""

    @pytest.mark.parametrize("policy", ["fixed", "all", "random"])
    def test_three_inequalities_at_every_step(self, policy):
        """The scan's own (F, seed) operators at m = 2..12, from starts of varied skew."""
        rng = np.random.default_rng(["fixed", "all", "random"].index(policy))
        steps = 0
        for m in range(2, 13):
            fixed = proper_subset(m, int(rng.integers(2**m - 2))) if policy == "fixed" else None
            scan = conjecture_scan(m, trials=20, iterations=1, seed=m, f_policy=policy, females=fixed)
            for row in scan.results:
                P = build_f_qso(sample_random_f_qso(m, row.females, row.seed))
                males = sorted(set(range(1, m + 1)) - row.females)
                report = convergence_report(P, skewed_start(rng, m + 1), n_max=12)
                assert report.bound_ok.all() and report.squared_contraction_ok.all()
                assert report.coordinate_bound_ok.all()
                # The same three checks with phi_F of the drawn F, which need not be the first set.
                X = report.trajectory.coords
                phi = X[:, sorted(row.females)].sum(axis=1) * X[:, males].sum(axis=1)
                assert np.all(phi[1:] <= phi[:-1] ** 2 + 1e-15)
                assert np.all(phi <= report.bounds + 1e-15)
                assert np.all(X[1:, 1:] <= 2.0 * phi[:-1, None] + 1e-12)
                steps += len(X) - 1
        assert steps >= 11 * 20 * 3

    @pytest.mark.parametrize("m, females, seed", [(2, {1}, 1), (4, {2, 3}, 2), (7, {1, 5, 6}, 3), (12, {4}, 4)])
    def test_vertex_is_the_unique_fixed_point(self, m, females, seed):
        """Every orbit reaches the vertex bitwise, so no polish runs."""
        report = find_fixed_points(build_f_qso(sample_random_f_qso(m, females, seed)), starts=40, seed=seed)
        assert np.array_equal(report.unique_in_simplex.coords, SimplexPoint.vertex(m + 1).coords)
        assert len(report.candidates) == 1 and report.polishes == 0
