"""Trajectories, the convergence functional, fixed points, Cesaro averages."""

import itertools
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
    CubicMatrix,
    DimensionError,
    SimplexPoint,
    StochasticityError,
    build_fqso_m2,
    build_single_male,
    cesaro_running,
    conjecture_scan,
    convergence_report,
    find_fixed_points,
    fixed_points,
    fixed_points_m2,
    iterate_batch,
    lyapunov,
    lyapunov_bound,
    lyapunov_closed_form,
    preset,
    run_trial,
    sample_random_f_qso,
    trajectory,
)
from qsodyn import dynamics, operators
from qsodyn.core import MAX_FLOATS, proper_subset
from qsodyn.operators import SkewMatrix, apply_normalized, apply_unnormalized, cubic_from_skew, skew_from_cubic
from helpers import (
    apply,
    assert_frozen,
    cesaro_per_step,
    orbit_of,
    random_cubic,
    random_simplex,
    random_simplex_batch,
    trajectory_per_step,
    watch_orbits,
)


def random_single_male(rng, m):
    table = rng.standard_exponential((m - 1, m + 1))
    table /= table.sum(axis=1, keepdims=True)
    return build_single_male(table)


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

    @pytest.mark.parametrize(
        "b, c, phi0",
        [(np.nan, 0.5, 0.1), (0.5, np.nan, 0.1), (10.0, 10.0, 0.25), (1.0, 1.0, 0.25), (0.5, 0.5 + 3e-12, 0.25)],
    )
    def test_rejects_what_no_mixed_pair_has(self, b, c, phi0):
        """NaN returned NaN, and b + c > 1 returned inf or squared the whole chain (43 ms at n = 10**6)."""
        with pytest.raises(ValueError, match="b \\+ c <= 1"):
            lyapunov_closed_form(b, c, phi0, 10**6)

    def test_largest_factor_ends_within_a_few_squarings(self):
        """At b + c = 1 + TOL_SUM the chain still underflows at once; a linear chain to 10**9 would take minutes."""
        start = time.perf_counter()
        assert lyapunov_closed_form(0.5, 0.5 + 0.5e-12, 0.25, 10**9) == 0.0
        assert time.perf_counter() - start < 0.5

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
        assert lyapunov_bound(0) == 0.25
        assert lyapunov_bound(2) == 1.0 / 256.0

    def test_last_representable(self):
        """n = 9 is the last step whose bound 2^-1024 is still a (subnormal) double."""
        assert lyapunov_bound(9) == math.ldexp(1.0, -1024)
        assert lyapunov_bound(9) > 0.0

    def test_bound_is_the_exact_power_of_two_until_it_underflows(self):
        """(1/4)^(2^n) = 2^-(2^(n+1)), bitwise; 0.0 below the smallest double, also at a CSV cell's 10**12."""
        for n in range(61):
            assert lyapunov_bound(n) == math.ldexp(1.0, -(2 ** (n + 1)))
        for n in [*range(61, 71), 10**12]:
            assert lyapunov_bound(n) == 0.0
        assert type(lyapunov_bound(3)) is float
        with pytest.raises(ValueError, match=r"^n must be >= 0$"):
            lyapunov_bound(-1)


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
        P = sample_random_f_qso(3, {2}, seed=2)
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
        assert_frozen(traj, lambda copied: copied.coords)

    def test_huge_step_budget_is_not_allocated(self):
        """A snapping single-male orbit stops early; nothing is sized by max_steps."""
        rng = np.random.default_rng(27)
        P, x0 = random_single_male(rng, 3), SimplexPoint(random_simplex(rng, 4))
        traj = trajectory(P, x0, max_steps=MAX_FLOATS // 4 - 1)
        assert traj.stop_reason == "converged"
        assert len(traj) < 40

    @pytest.mark.parametrize("n", [3, 4, 33])
    def test_step_count_beyond_the_float_budget_is_refused(self, n):
        """(max_steps + 1) * n coordinates may not exceed MAX_FLOATS: 10**12 steps grew the rows until memory ran out."""
        P = sample_random_f_qso(n - 1, {1}, seed=n)
        limit = MAX_FLOATS // n - 1
        for steps in (limit + 1, 10**12):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"max_steps must be from 1 to {limit} at n={n}"):
                trajectory(P, SimplexPoint.uniform(n), max_steps=steps)
            with pytest.raises(ValueError, match="max_steps"):
                convergence_report(P, SimplexPoint.uniform(n), n_max=steps)
            assert time.perf_counter() - start < 0.5
        assert trajectory(P, SimplexPoint.uniform(n), max_steps=limit).stop_reason == "converged"

    def test_off_simplex_step_stops_as_invalid_state(self, monkeypatch):
        calls = []

        def broken(P):
            def step(x):
                calls.append(x)
                return np.full(P.n, np.nan) if len(calls) == 3 else x

            return step

        monkeypatch.setattr(dynamics, "_orbit", orbit_of(broken))
        traj = trajectory(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), max_steps=10)
        assert traj.stop_reason == "invalid_state"
        assert len(traj) == 3
        assert np.all(np.isfinite(traj.coords))

    def test_errors_inside_a_step_propagate(self, monkeypatch):
        def broken(P):
            def step(x):
                raise RuntimeError("bug in the kernel")

            return step

        monkeypatch.setattr(dynamics, "_orbit", orbit_of(broken))
        with pytest.raises(RuntimeError):
            trajectory(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), max_steps=10)

    def test_nan_tolerance_is_refused(self):
        """No distance is within a NaN tolerance, so the run could never converge."""
        vertex = SimplexPoint.vertex(3)
        with pytest.raises(ValueError, match="NaN"):
            trajectory(build_fqso_m2(0.0, 0.5, 0.5), SimplexPoint.uniform(3), 10, tol=math.nan, reference=vertex)
        negative = trajectory(build_fqso_m2(0.0, 0.5, 0.5), SimplexPoint.uniform(3), 10, tol=-1.0, reference=vertex)
        assert negative.stop_reason == "max_steps"

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

    def test_batch_refuses_negative_steps(self):
        """``steps=-3`` returned the starts, or with history a one-row stack."""
        starts = random_simplex_batch(np.random.default_rng(24), 4, 3)
        assert np.array_equal(iterate_batch(preset("ganikhodzhaev_v0"), starts, 0), starts)
        for history in (False, True):
            with pytest.raises(ValueError, match="steps"):
                iterate_batch(preset("ganikhodzhaev_v0"), starts, -3, return_history=history)

    def test_batch_history_beyond_the_float_budget_is_refused(self):
        """600 starts x 10,000 steps built an 18.0M-float history (308 MB peak) unrefused.

        ``trajectory`` has had the same ``MAX_FLOATS`` budget all along.
        """
        P = preset("ganikhodzhaev_lambda", lam=0.5)
        starts = random_simplex_batch(np.random.default_rng(26), 600, 3)
        limit = MAX_FLOATS // (600 * 3) - 1
        for steps in (limit + 1, 10_000, 10**12):
            start = time.perf_counter()
            message = f"history of {steps + 1} x 600 x 3 floats exceeds the budget of {MAX_FLOATS}"
            with pytest.raises(ValueError, match=message):
                iterate_batch(P, starts, steps, return_history=True)
            assert time.perf_counter() - start < 0.5
        final = iterate_batch(P, starts, 10_000)  # no history: no budget
        assert final.shape == (600, 3) and np.allclose(final.sum(axis=1), 1.0)

    def test_batch_history_of_the_benchmark_shape_runs(self):
        """The benchmark's 21 x 128 x 9 history is far inside the budget."""
        rng = np.random.default_rng(28)
        P, starts = random_single_male(rng, 8), random_simplex_batch(rng, 128, 9)
        history = iterate_batch(P, starts, 20, return_history=True)
        assert history.shape == (21, 128, 9)
        assert np.array_equal(history[-1], iterate_batch(P, starts, 20))

    def test_batch_refuses_an_invalid_cube(self):
        """A cube with every p = 0.5 (row sums 1.5) iterated without error, unlike every other loop."""
        P = CubicMatrix(np.full((3, 3, 3), 0.5))
        starts = random_simplex_batch(np.random.default_rng(25), 4, 3)
        for steps in (0, 5):
            with pytest.raises(StochasticityError, match="row_sum"):
                iterate_batch(P, starts, steps)


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
        P = build_fqso_m2(0.0, 0.5, 0.5)
        report = find_fixed_points(P, starts=30, seed=1)
        assert len(report.candidates) == 1
        assert np.array_equal(report.candidates[0].point, [1.0, 0.0, 0.0])
        assert report.unique_in_simplex is None  # a search proves nothing
        assert np.array_equal(fixed_points(P).unique_in_simplex.coords, [1.0, 0.0, 0.0])

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
        """Non-finite rows are kept out of the solve and come back NaN, as rejected polishes."""
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
        r = float(dynamics._residual(P, x[None])[0])
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
    "fqso9": lambda: sample_random_f_qso(8, {2, 5, 6}, seed=62),
    "fqso13": lambda: sample_random_f_qso(12, {1, 3, 4, 9, 10, 11}, seed=63),
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


def loop_polish(P, guesses):
    """The Gauss-Newton stack with its own leave loop and the Jacobian from the symmetrised cube."""
    sym = P.p + P.p.transpose(1, 0, 2)
    out = np.clip(guesses, 0.0, 1.0)
    active = np.arange(out.shape[0])
    x = out
    for _ in range(60):
        if not active.size:
            break
        residual = np.concatenate([apply_unnormalized(P, x) - x, x.sum(axis=1, keepdims=True) - 1.0], axis=1)
        jac = np.einsum("ijk,bi->bkj", sym, x) - np.eye(P.n)
        jac = np.concatenate([jac, np.ones((x.shape[0], 1, P.n))], axis=1)
        finite = np.isfinite(residual).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
        out[active[~finite]] = np.nan
        active, x, residual, jac = active[finite], x[finite], residual[finite], jac[finite]
        step = np.clip(x - (np.linalg.pinv(jac) @ residual[:, :, None])[:, :, 0], 0.0, 1.0)
        out[active] = step
        moving = ~np.all(step == x, axis=1)
        active, x = active[moving], step[moving]
    total = out.sum(axis=1, keepdims=True)
    return np.divide(out, total, out=np.full_like(out, np.nan), where=total > 0.0)


def loop_fixed_point_search(P, starts, seed):
    """The batched search written with its own loops: the iteration and :func:`loop_polish` each
    leave rows by hand, and every polished row is scored alone.

    Returns the clustered (point, residual) pairs and the polish counts.
    """
    starts_x = random_simplex_batch(np.random.default_rng(seed), starts, P.n)
    ends = starts_x.copy()
    active = np.arange(starts)
    x = starts_x
    for _ in range(200):
        x, previous = apply_normalized(P, x), x
        ends[active] = x
        moving = ~np.all(x == previous, axis=1)
        active, x = active[moving], x[moving]
        if not active.size:
            break
    residuals = np.max(np.abs(apply_unnormalized(P, ends) - ends), axis=1)

    unsettled = ~(residuals <= TOL_FIX)
    guesses = np.stack([starts_x[unsettled], ends[unsettled]], axis=1).reshape(-1, P.n)
    tried = iter([(x, float(np.max(np.abs(apply_unnormalized(P, x) - x)))) for x in loop_polish(P, guesses)])
    found = []
    for end, r, polish in zip(ends, residuals.tolist(), unsettled.tolist()):
        found += [next(tried), next(tried)] if polish else [(end, r)]
    found = [(x, r) for x, r in found if r <= TOL_FIX]
    accepted = len(found) - int(np.count_nonzero(~unsettled))

    found.sort(key=lambda item: item[1])
    representatives = []
    for x, r in found:
        if all(float(np.max(np.abs(x - y))) > 1e-8 for y, _ in representatives):
            representatives.append((x, r))
    representatives.sort(key=lambda item: tuple(item[0]))
    return representatives, len(guesses), accepted


class TestSearchMatchesLoopReference:
    """One settle loop, one batched residual and the Jacobian on ``p`` give bitwise the hand-looped search."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_random_skews_bitwise(self, n):
        for s in range(6):
            P = _random_skew_cube(n, 1000 * n + s)
            for seed in (0, 1):
                report = find_fixed_points(P, starts=100, seed=seed)
                expected, polishes, accepted = loop_fixed_point_search(P, 100, seed)
                assert len(report.candidates) == len(expected)
                for cand, (x, r) in zip(report.candidates, expected):
                    assert np.array_equal(cand.point, x)
                    assert np.array_equal(cand.residual, r)
                assert (report.polishes, report.polishes_accepted) == (polishes, accepted)

    def test_polish_matches_loop_polish_bitwise(self):
        """Also on rows that turn non-finite, and on an empty stack."""
        P = _random_skew_cube(5, 5000)
        guesses = random_simplex_batch(np.random.default_rng(5), 40, 5)
        guesses[3] = np.nan
        guesses[7, 2] = np.inf
        assert np.array_equal(dynamics._polish(P, guesses), loop_polish(P, guesses), equal_nan=True)
        assert dynamics._polish(P, np.zeros((0, 5))).shape == (0, 5)


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


def loop_volterra_fixed_points(a):
    """Fixed points face by face, each from its block's SVD kernel: the reference for the stacked bordered solve."""
    n = len(a)
    points = []
    for k in range(1, n + 1):
        for face in itertools.combinations(range(n), k):
            _, sv, vh = np.linalg.svd(a[np.ix_(face, face)])
            if np.count_nonzero(sv > k * np.finfo(float).eps * sv.max()) != k - 1:
                continue
            x = vh[-1] / vh[-1].sum()
            if np.all(x > 0.0):
                points.append(np.zeros(n))
                points[-1][list(face)] = x
    return sorted(points, key=tuple)


def _faces(n, smallest):
    return [face for k in range(smallest, n + 1) for face in itertools.combinations(range(n), k)]


class TestVolterraFixedPoints:
    """The exact Volterra oracle: one bordered solve per face, no search."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zero_skew_has_vertices_and_every_larger_face_degenerate(self, n):
        report = dynamics.fixed_points_volterra(cubic_from_skew(SkewMatrix(np.zeros((n, n)))))
        assert [tuple(cand.point) for cand in report.candidates] == sorted(map(tuple, np.eye(n)))
        assert report.degenerate_faces == tuple(_faces(n, 2))
        assert (report.polishes, report.polishes_accepted) == (0, 0)

    def test_rps_vertices_and_barycentre(self):
        report = dynamics.fixed_points_volterra(preset("ganikhodzhaev_v0"))
        points = [cand.point for cand in report.candidates]
        assert np.array_equal(points, [[0, 0, 1], [0, 1, 0], [1 / 3, 1 / 3, 1 / 3], [1, 0, 0]])
        assert all(cand.residual <= 1e-16 and cand.in_simplex for cand in report.candidates)
        assert report.degenerate_faces == () and report.unique_in_simplex is None

    def test_exactly_singular_bordered_matrix_is_a_degenerate_face(self):
        """States 1 and 2 beat state 0 and tie: the edge {1,2} is all fixed, and {0,1,2}'s bordered matrix is singular."""
        a = np.zeros((3, 3))
        a[1, 0] = a[2, 0] = 1.0
        report = dynamics.fixed_points_volterra(cubic_from_skew(SkewMatrix(a - a.T)))
        assert [tuple(cand.point) for cand in report.candidates] == sorted(map(tuple, np.eye(3)))
        assert report.degenerate_faces == ((1, 2), (0, 1, 2))

    def test_solve_stack_marks_only_the_singular_matrix(self):
        A = np.stack([np.eye(2), np.ones((2, 2)), 2.0 * np.eye(2)])
        b = np.ones((3, 2, 1))
        x = dynamics._solve_stack(A, b)
        assert np.array_equal(x[[0, 2]], [[[1.0], [1.0]], [[0.5], [0.5]]]) and np.isnan(x[1]).all()

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_random_skews_match_the_loop_reference_and_cover_the_search(self, n):
        """Seeds 1000 n + s: every search candidate (100 starts, seeds 0-2) is an exact point; all n vertices are."""
        for s in range(6):
            P = _random_skew_cube(n, 1000 * n + s)
            report = dynamics.fixed_points_volterra(P)
            exact = np.array([cand.point for cand in report.candidates])
            expected = loop_volterra_fixed_points(skew_from_cubic(P).a)
            assert exact.shape == (len(expected), n) and np.max(np.abs(exact - expected)) <= 1e-12
            assert report.degenerate_faces == ()
            assert all(cand.residual <= TOL_FIX and cand.in_simplex for cand in report.candidates)
            assert {tuple(v) for v in np.eye(n)} <= {tuple(x) for x in exact}
            for seed in (0, 1, 2):
                for cand in find_fixed_points(P, starts=100, seed=seed).candidates:
                    assert np.min(np.max(np.abs(exact - cand.point), axis=1)) <= 1e-8

    def test_the_thirty_skews_hold_278_fixed_points(self):
        count = sum(
            len(dynamics.fixed_points_volterra(_random_skew_cube(n, 1000 * n + s)).candidates)
            for n in range(3, 8)
            for s in range(6)
        )
        assert count == 278

    def test_refusals(self):
        with pytest.raises(ValueError, match="at most 16 states"):
            dynamics.fixed_points_volterra(cubic_from_skew(SkewMatrix(np.zeros((17, 17)))))
        with pytest.raises(ClassificationError):
            dynamics.fixed_points_volterra(preset("ganikhodzhaev_lambda", lam=0.5))


class TestFixedPointVerdict:
    """``fixed_points``: every vertex tested exactly on every path, uniqueness only under a proof."""

    def test_vertex_rule_matches_the_map_bitwise(self):
        """e_k is reported fixed exactly when ``apply_normalized`` maps it onto itself bitwise.

        Random cubes with planted fixed vertices, then a row within TOL_SUM of e_k (fixed) and a
        row e_k with one entry of 1e-300 off the diagonal (not fixed).
        """
        rng = np.random.default_rng(27)
        cubes = []
        for n in (2, 3, 5, 8):
            for _ in range(5):
                p = random_cubic(rng, n).p.copy()
                for k in np.flatnonzero(rng.random(n) < 0.5):
                    p[k, k] = np.eye(n)[k]
                cubes.append(p)
        near, tiny = cubes[-1].copy(), cubes[-1].copy()
        near[2, 2] = (1.0 + 1e-13) * np.eye(8)[2]
        tiny[3, 3] = np.eye(8)[3]
        tiny[3, 3, 5] = 1e-300
        fixed_sets = []
        for p in cubes + [near, tiny]:
            P = CubicMatrix(p)
            fixed = {tuple(cand.point) for cand in dynamics._fixed_vertices(P)}
            for e in np.eye(P.n):
                assert (apply_normalized(P, e).tobytes() == e.tobytes()) == (tuple(e) in fixed)
            fixed_sets.append(fixed)
        assert sum(map(len, fixed_sets)) >= 20
        assert tuple(np.eye(8)[2]) in fixed_sets[-2] and tuple(np.eye(8)[3]) not in fixed_sets[-1]

    def test_blends_hold_every_vertex_and_claim_no_uniqueness(self):
        """20 blends with lam in [0.3, 0.6]: the search finds the barycentre, the exact test adds the vertices."""
        rng = np.random.default_rng(26)
        for lam in rng.uniform(0.3, 0.6, 20).tolist():
            report = fixed_points(preset("ganikhodzhaev_lambda", lam=lam), seed=int(rng.integers(2**31)))
            points = {tuple(cand.point) for cand in report.candidates}
            assert {tuple(v) for v in np.eye(3)} <= points
            assert report.method == "search" and report.unique_in_simplex is None

    def test_a_search_candidate_near_a_fixed_vertex_gives_way(self, monkeypatch):
        P = preset("ganikhodzhaev_lambda", lam=0.4)
        near = np.array([1.0 - 1e-9, 1e-9, 0.0])
        far = np.array([1.0 - 1e-7, 1e-7, 0.0])
        found = tuple(dynamics.FixedPointCandidate(x, 1e-11, True) for x in (near, far))
        searched = dynamics.FixedPointReport(found, "search", polishes=7, polishes_accepted=2)
        monkeypatch.setattr(dynamics, "find_fixed_points", lambda *args, **kwargs: searched)
        report = fixed_points(P)
        points = [tuple(cand.point) for cand in report.candidates]
        assert points == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), tuple(far), (1.0, 0.0, 0.0)]
        assert (report.method, report.polishes, report.polishes_accepted) == ("search", 7, 2)

    def test_methods_by_class(self):
        assert fixed_points(build_fqso_m2(0.2, 0.5, 0.3)).method == "two-sex"
        assert fixed_points(preset("ganikhodzhaev_v0")).method == "volterra"
        assert fixed_points(preset("ganikhodzhaev_lambda", lam=0.5)).method == "search"
        assert fixed_points_m2(0.2, 0.5, 0.3).method == "algebraic"

    def test_the_matrix_is_checked_before_the_start_count_on_every_path(self):
        bad = build_fqso_m2(0.2, 0.5, 0.3).p.copy()
        bad[0, 0, 0] = 0.5
        with pytest.raises(StochasticityError):
            fixed_points(CubicMatrix(bad), starts=0)
        for P in (build_fqso_m2(0.2, 0.5, 0.3), preset("ganikhodzhaev_v0"), preset("ganikhodzhaev_lambda", lam=0.5)):
            with pytest.raises(ValueError, match="starts must be from 1"):
                fixed_points(P, starts=0)


class TestCesaro:
    def test_single_term_returns_start(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        x0 = SimplexPoint(np.array([0.1, 0.4, 0.5]))
        [(_, avg)] = cesaro_running(P, x0, [1])
        np.testing.assert_array_equal(avg, x0.coords)

    def test_fixed_start_is_constant(self):
        P = build_fqso_m2(0.2, 0.5, 0.3)
        vertex = SimplexPoint.vertex(3)
        for _, avg in cesaro_running(P, vertex, [1, 5, 50]):
            np.testing.assert_array_equal(avg, vertex.coords)

    def test_tracks_the_limit(self):
        """When the orbit converges, the averages converge to the same point."""
        rng = np.random.default_rng(26)
        P = random_single_male(rng, 4)
        x0 = SimplexPoint(random_simplex(rng, 5))
        [(_, avg)] = cesaro_running(P, x0, [1000])
        assert np.max(np.abs(avg - SimplexPoint.vertex(5).coords)) <= 1e-2

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            cesaro_running(build_fqso_m2(0.2, 0.5, 0.3), SimplexPoint.vertex(3), [0])

    def test_last_count_is_bounded_by_the_step_budget(self, monkeypatch):
        """A last count at the budget passes the check; one more is refused before any step."""
        monkeypatch.setattr(dynamics, "MAX_STEPS", 8)
        P = build_fqso_m2(0.2, 0.5, 0.3)
        x0 = SimplexPoint.uniform(3)
        assert [count for count, _ in cesaro_running(P, x0, [1, 8])] == [1, 8]
        with pytest.raises(ValueError, match="at most 8, got 9"):
            cesaro_running(P, x0, [1, 9])

    def test_running_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            cesaro_running(build_fqso_m2(0.2, 0.5, 0.3), SimplexPoint.vertex(4), [1, 2])

    def test_average_is_last_running_average(self):
        """An average does not depend on the counts listed before it."""
        rng = np.random.default_rng(28)
        P = random_single_male(rng, 4)
        x0 = SimplexPoint(random_simplex(rng, 5))
        [(_, alone)] = cesaro_running(P, x0, [37])
        assert np.array_equal(cesaro_running(P, x0, [1, 2, 4, 37])[-1][1], alone)


def assert_same_trajectory(traj, expected):
    """Bitwise equal rows, phi values and distances, and the same stop reason and female set."""
    for name in ("coords", "lyapunov_values", "dist_to_limit"):
        got, want = getattr(traj, name), getattr(expected, name)
        assert (got is None) == (want is None), name
        if want is not None:
            assert (got.shape, got.tobytes()) == (want.shape, want.tobytes()), name
    assert (traj.stop_reason, traj.females) == (expected.stop_reason, expected.females)


def slow_volterra():
    """State 0 beats 1 and 2 by 0.01, so the distance to the vertex e0 falls strictly, by about 1% a step."""
    a = np.array([[0.0, 0.01, 0.01], [-0.01, 0.0, 0.5], [-0.01, -0.5, 0.0]])
    return cubic_from_skew(SkewMatrix(a))


def faulty_step(P, at, spoil):
    """:func:`apply_normalized`, except that call ``at`` returns ``spoil`` of the image."""
    calls = itertools.count(1)

    def step(x):
        y = apply_normalized(P, x)
        return spoil(y) if next(calls) == at else y

    return step


#: Step counts on both sides of the trajectory's block edges: 8, 8 + 16, ..., and 1016 + 1024.
BLOCK_EDGES = [8, 24, 1016, 2040]


class TestBlockStopRules:
    """``trajectory`` tests its stop rules per block of rows; the per-step loop in ``helpers`` is its bitwise oracle."""

    @pytest.mark.parametrize("K", BLOCK_EDGES)
    def test_max_steps_at_block_edges(self, K):
        rng = np.random.default_rng(K)
        for P in (preset("ganikhodzhaev_v0"), random_cubic(rng, 2), random_cubic(rng, 5)):
            x0 = SimplexPoint(random_simplex(rng, P.n))
            for steps in (K - 1, K, K + 1):
                expected = trajectory_per_step(P, x0, steps)
                assert expected.stop_reason == "max_steps" and len(expected) == steps + 1
                assert_same_trajectory(trajectory(P, x0, steps), expected)

    @pytest.mark.parametrize("K", BLOCK_EDGES)
    def test_converged_by_reference_at_block_edges(self, K):
        """A tolerance equal to the distance at step K - 1, K or K + 1 stops the orbit exactly there."""
        P, x0, vertex = slow_volterra(), SimplexPoint(np.array([0.2, 0.3, 0.5])), SimplexPoint.vertex(3)
        dists = trajectory_per_step(P, x0, K + 2, tol=-1.0, reference=vertex).dist_to_limit
        for stop in (K - 1, K, K + 1):
            for steps in (stop, stop + 1, K + 2):
                expected = trajectory_per_step(P, x0, steps, tol=dists[stop], reference=vertex)
                assert expected.stop_reason == "converged" and len(expected) == stop + 1
                assert_same_trajectory(trajectory(P, x0, steps, tol=dists[stop], reference=vertex), expected)

    @pytest.mark.parametrize("seed", range(6))
    def test_two_sex_snap_and_max_steps_on_its_row(self, seed):
        """Every step budget up to past the snap: at the snap's own row, max_steps wins."""
        rng = np.random.default_rng(seed)
        P = build_fqso_m2(*random_simplex(rng, 3)) if seed % 2 else random_single_male(rng, 2 + seed)
        x0 = SimplexPoint(random_simplex(rng, P.n))
        snapped = trajectory_per_step(P, x0, 100)
        assert snapped.stop_reason == "converged" and np.array_equal(snapped.coords[-1], np.eye(P.n)[0])
        for steps in range(1, len(snapped) + 2):
            expected = trajectory_per_step(P, x0, steps)
            assert_same_trajectory(trajectory(P, x0, steps), expected)
        assert trajectory_per_step(P, x0, len(snapped) - 2).stop_reason == "max_steps"

    def test_reference_that_disarms_the_snap(self):
        """A reference that the vertex misses keeps a two-sex orbit going to max_steps."""
        rng = np.random.default_rng(40)
        P = random_single_male(rng, 3)
        x0, reference = SimplexPoint(random_simplex(rng, 4)), SimplexPoint(random_simplex(rng, 4))
        expected = trajectory_per_step(P, x0, 30, tol=1e-9, reference=reference)
        assert expected.stop_reason == "max_steps"
        assert_same_trajectory(trajectory(P, x0, 30, tol=1e-9, reference=reference), expected)

    @pytest.mark.parametrize("at", [1, 7, 8, 9, 23, 24, 25, 1016, 1017])
    @pytest.mark.parametrize("spoil", [lambda y: y * np.nan, lambda y: 2.0 * y, lambda y: y - y.max()])
    def test_invalid_state_from_a_patched_step(self, monkeypatch, at, spoil):
        """The spoiled row is dropped; rows stepped past it in its block neither warn nor stay."""
        P, x0 = preset("ganikhodzhaev_v0"), SimplexPoint(np.array([0.2, 0.3, 0.5]))
        monkeypatch.setattr(dynamics, "_orbit", orbit_of(lambda P: faulty_step(P, at, spoil)))
        expected = trajectory_per_step(P, x0, 2000, step=faulty_step(P, at, spoil))
        assert expected.stop_reason == "invalid_state" and len(expected) == at
        assert_same_trajectory(trajectory(P, x0, 2000), expected)

    def test_start_rows_that_already_stop(self):
        """Converged at step 0, the snap at step 0 on the vertex (no row added), and off it (the vertex added)."""
        m2, rps = build_fqso_m2(0.2, 0.5, 0.3), preset("ganikhodzhaev_v0")
        x0 = SimplexPoint(np.array([0.2, 0.3, 0.5]))
        cases = [
            (rps, x0, {"tol": 0.0, "reference": x0}, 1),
            (m2, SimplexPoint.vertex(3), {}, 1),
            (m2, SimplexPoint(np.array([0.5, 0.5, 0.0])), {}, 2),
            (m2, SimplexPoint.vertex(3), {"tol": 1e-9, "reference": SimplexPoint.vertex(3)}, 1),
        ]
        for P, start, kwargs, rows in cases:
            expected = trajectory_per_step(P, start, 10, **kwargs)
            assert expected.stop_reason == "converged" and len(expected) == rows
            assert_same_trajectory(trajectory(P, start, 10, **kwargs), expected)


class TestCesaroSegments:
    """The segment loop of the Cesaro averages against the per-step loop in ``helpers``, bitwise."""

    @pytest.mark.parametrize(
        "schedule", [[1], [1, 2], [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2000], [3, 5, 6, 300]]
    )
    def test_matches_per_step_loop(self, schedule):
        rng = np.random.default_rng(len(schedule))
        for P in (preset("ganikhodzhaev_v0"), random_cubic(rng, 5), random_single_male(rng, 3)):
            for x0 in (SimplexPoint(random_simplex(rng, P.n)), SimplexPoint(np.r_[-0.0, np.full(P.n - 1, 1 / (P.n - 1))])):
                got, want = cesaro_running(P, x0, schedule), cesaro_per_step(P, x0, schedule)
                assert [count for count, _ in got] == [count for count, _ in want] == schedule
                assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))

    def test_negative_zero_start_coordinate_sums_to_positive_zero(self):
        """The running sum starts from +0.0, so a -0.0 that never moves averages to +0.0."""
        x0 = SimplexPoint(np.array([-0.0, 0.5, 0.5]))
        assert np.signbit(x0.coords[0])
        for _, avg in cesaro_running(preset("ganikhodzhaev_v0"), x0, [1]):
            assert not np.signbit(avg[0])


def reference_orbit(P, x, steps):
    """``steps`` calls of :func:`apply_normalized` from ``x``: the rows x(0), ..., x(steps)."""
    rows = [x]
    for _ in range(steps):
        rows.append(apply_normalized(P, rows[-1]))
    return np.stack(rows)


class TestPreparedLoops:
    """Every loop over a point's orbit or a stack gives bitwise the points of a loop of apply_normalized calls."""

    @pytest.mark.parametrize("n", [3, 9, 33])
    def test_loops_match_apply_normalized_bitwise(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        P = random_cubic(rng, n)
        x0 = random_simplex(rng, n)
        orbit = reference_orbit(P, x0, 300)

        assert np.array_equal(trajectory(P, SimplexPoint(x0), max_steps=300).coords, orbit)
        schedule = [1, 2, 4, 64, 256, 301]
        running, acc = [], np.zeros(n)
        for x in orbit:
            acc = acc + x
            running.append(acc)
        for count, mean in cesaro_running(P, SimplexPoint(x0), schedule):
            assert np.array_equal(mean, running[count - 1] / count)

        starts = np.asfortranarray(random_simplex_batch(rng, 6, n))
        assert starts.flags.f_contiguous and not starts.flags.c_contiguous
        history = reference_orbit(P, starts, 300)
        assert np.array_equal(iterate_batch(P, starts, 300, return_history=True), history)
        assert np.array_equal(iterate_batch(P, starts, 300), history[-1])

        # The residual scored right after the iteration receives every start's endpoint.
        evaluated, residual = [], dynamics._residual
        monkeypatch.setattr(dynamics, "_residual", lambda P, X: evaluated.append(X) or residual(P, X))
        find_fixed_points(P, starts=8, seed=n)
        ends = []
        for x in random_simplex_batch(np.random.default_rng(n), 8, n):
            for _ in range(200):
                x, previous = apply_normalized(P, x), x
                if np.array_equal(x, previous):
                    break
            ends.append(x)
        assert np.array_equal(evaluated[0], ends)

        m, females, seed = n - 1, set(range(1, n // 2 + 1)), 100 + n
        x = random_simplex(np.random.default_rng(np.random.SeedSequence([seed, 1])), n)
        Q = sample_random_f_qso(m, females, seed=seed)
        for steps in range(1, 301):
            x = apply_normalized(Q, x)
            if np.array_equal(x, np.eye(n)[0]):
                break
        assert steps < 300 and np.array_equal(x, np.eye(n)[0])
        assert run_trial(m, females, seed, 300, -1.0)[2] == 0.0  # its final point is the vertex bitwise


def block_end(step):
    """The last step of the trajectory block that computes ``step``: 8, 8 + 16, ..., then 1024 more per block."""
    end, size = 0, 8
    while end < step:
        end, size = end + size, min(2 * size, 1024)
    return end


def block_sizes(steps):
    """The sizes of the blocks a trajectory reads for ``steps`` rows: 8, 16, ..., 1024, 1024, ..., the last one cut."""
    sizes, size = [], 8
    while sum(sizes) < steps:
        sizes.append(min(size, steps - sum(sizes)))
        size = min(2 * size, 1024)
    return sizes


class TestOrbitSeam:
    """The point loops read from ``operators._orbit`` in blocks exactly the images they use: the seam where steps are counted."""

    def test_images_pulled(self, monkeypatch):
        """This random cube's orbit closes a lap of period 9 at step 73, so it computes at most 64 + 2 * 9 images."""
        orbits = watch_orbits(monkeypatch, dynamics)
        rng = np.random.default_rng(22)
        P = random_cubic(rng, 4)
        x0 = SimplexPoint(random_simplex(rng, 4))
        for schedule in ([1], [1, 2], [3, 5, 6, 300], [1, 2, 4, 1024, 2000]):
            orbits.clear()
            cesaro_running(P, x0, schedule)
            (orbit,) = orbits
            assert orbit.pulled == [] and sum(map(len, orbit.blocks)) == schedule[-1] - 1
            assert max(map(len, orbit.blocks), default=0) <= dynamics._SUM_ROWS
            assert orbit.computed == min(schedule[-1] - 1, 82)
        for steps in (1, 7, 8, 9, 1016, 2041):
            orbits.clear()
            traj = trajectory(P, x0, steps)
            (orbit,) = orbits
            assert traj.stop_reason == "max_steps" and len(traj) - 1 == steps
            assert orbit.pulled == [] and list(map(len, orbit.blocks)) == block_sizes(steps)
            assert orbit.computed == min(steps, 82) and orbit.lap == ((74, 9) if steps >= 82 else None)

        P, x0, vertex = slow_volterra(), SimplexPoint(np.array([0.2, 0.3, 0.5])), SimplexPoint.vertex(3)
        dists = trajectory_per_step(P, x0, 2100, tol=-1.0, reference=vertex).dist_to_limit
        for stop in (1, 8, 9, 100, 1016, 1017, 2041):
            orbits.clear()
            traj = trajectory(P, x0, 5000, tol=dists[stop], reference=vertex)
            (orbit,) = orbits
            assert traj.stop_reason == "converged" and len(traj) - 1 == stop
            assert orbit.pulled == [] and list(map(len, orbit.blocks)) == block_sizes(block_end(stop))
            assert orbit.computed == block_end(stop)  # at most the rest of its block


class TestStackSeam:
    """Stacks step through the public kernel: one ``apply_normalized`` call per step of ``iterate_batch`` and of the search."""

    def test_stack_steps_are_apply_normalized_calls(self, monkeypatch):
        calls, kernel = [], dynamics.apply_normalized
        monkeypatch.setattr(dynamics, "apply_normalized", lambda P, X: calls.append(X) or kernel(P, X))
        rng = np.random.default_rng(26)
        P = random_cubic(rng, 5)
        starts = random_simplex_batch(rng, 7, 5)
        for steps in (0, 1, 20):
            calls.clear()
            history = iterate_batch(P, starts, steps, return_history=True)
            assert len(calls) == steps
            assert all(np.array_equal(X, row) for X, row in zip(calls, history))

        calls.clear()
        find_fixed_points(P, starts=16, seed=3)
        assert 1 <= len(calls) <= 200
        assert np.array_equal(calls[0], random_simplex_batch(np.random.default_rng(3), 16, 5))  # every start's row


def first_repeat(rows: np.ndarray) -> tuple[int, int]:
    """The step whose row's bytes return first, and the period after which they do."""
    seen = {}
    for step, row in enumerate(rows):
        first = seen.setdefault(row.tobytes(), step)
        if first != step:
            return first, step - first
    raise AssertionError("no row repeats")


def counted_orbit(monkeypatch, P, x, pulls: int) -> tuple[list, int]:
    """The first ``pulls`` images of ``operators._orbit(P, x)``, and how many it computed (two ``np.dot`` calls each)."""
    calls, dot = [], np.dot
    monkeypatch.setattr(np, "dot", lambda *args, **kwargs: calls.append(1) or dot(*args, **kwargs))
    images = list(itertools.islice(operators._orbit(P, x), pulls))
    monkeypatch.setattr(np, "dot", dot)
    assert len(calls) % 2 == 0
    return images, len(calls) // 2


#: Float orbits from (0.2, 0.3, 0.5) that close a bitwise cycle, found by a search over ``lam``: the
#: preset and its parameters, the step at which the cycle is entered, its period, and the images that
#: Brent's test computes.  That is c + 2p: up to the checkpoint c, the first power of two at or past
#: the entry step and the period, then p to the match, then one lap.
CYCLES = [
    ("ganikhodzhaev_v0", {}, 259, 1, 514),
    ("ganikhodzhaev_lambda", {"lam": 0.4}, 97, 1, 130),
    ("ganikhodzhaev_lambda", {"lam": 0.356}, 121, 2, 132),
    ("ganikhodzhaev_lambda", {"lam": 0.326}, 145, 3, 262),
    ("ganikhodzhaev_lambda", {"lam": 0.311}, 163, 7, 270),
]


class TestOrbitCycles:
    """An orbit stops computing one lap after it repeats itself bitwise; every image stays the per-step loops'."""

    @pytest.mark.parametrize("name, params, entry, period, computed", CYCLES)
    def test_loops_match_the_per_step_oracles(self, name, params, entry, period, computed):
        P, x0 = preset(name, **params), SimplexPoint(np.array([0.2, 0.3, 0.5]))
        steps = 10_000 if name == "ganikhodzhaev_v0" else 2_000
        expected = trajectory_per_step(P, x0, steps)
        assert np.array_equal(expected.coords, reference_orbit(P, x0.coords, steps))
        assert first_repeat(expected.coords) == (entry, period)
        assert_same_trajectory(trajectory(P, x0, steps), expected)
        schedule = [2**k for k in range(steps.bit_length())] + [steps + 1]
        got, want = cesaro_running(P, x0, schedule), cesaro_per_step(P, x0, schedule)
        assert [count for count, _ in got] == [count for count, _ in want] == schedule
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))

    @pytest.mark.parametrize("name, params, entry, period, computed", CYCLES)
    def test_images_computed(self, monkeypatch, name, params, entry, period, computed):
        P, x = preset(name, **params), np.array([0.2, 0.3, 0.5])
        rows = reference_orbit(P, x, 10_000)
        checkpoint = 1 << (max(entry, period) - 1).bit_length()
        assert computed == checkpoint + 2 * period
        images, count = counted_orbit(monkeypatch, P, x, 10_000)
        assert count == computed
        assert b"".join(y.tobytes() for y in images) == rows[1:].tobytes()

    def test_fixed_start(self, monkeypatch):
        """From a vertex of the RPS preset, which is fixed bitwise, steps 1 and 2 close the cycle and step 3 is its lap."""
        P = preset("ganikhodzhaev_v0")
        for vertex in np.eye(3):
            images, count = counted_orbit(monkeypatch, P, vertex, 100)
            assert count == 3
            assert all(y.tobytes() == vertex.tobytes() for y in images)

    def test_cycle_images_are_read_only(self):
        """Images up to the match are fresh arrays; the lap's cannot be written, so later images stay correct."""
        P, x = preset("ganikhodzhaev_lambda", lam=0.311), np.array([0.2, 0.3, 0.5])
        rows = reference_orbit(P, x, 1000)
        orbit = operators._orbit(P, x)
        images = list(itertools.islice(orbit, 500))
        match = 256 + 7  # the checkpoint, then the period
        assert all(y.flags.writeable for y in images[:match])
        for y in images[match:]:
            for frozen in (y, y.base):
                with pytest.raises(ValueError):
                    frozen.flags.writeable = True
            with pytest.raises(ValueError):
                y[0] = 1.0
        images += itertools.islice(orbit, 500)
        assert b"".join(y.tobytes() for y in images) == rows[1:].tobytes()

    def test_cycle_longer_than_a_lap_keeps_stepping(self, monkeypatch):
        """With a lap of at most 4 images, the period-7 blend computes every image, as the loop did."""
        monkeypatch.setattr(operators, "_LAP_MAX", 4)
        P, x = preset("ganikhodzhaev_lambda", lam=0.311), np.array([0.2, 0.3, 0.5])
        rows = reference_orbit(P, x, 2000)
        images, count = counted_orbit(monkeypatch, P, x, 2000)
        assert count == 2000 and all(y.flags.writeable for y in images)
        assert b"".join(y.tobytes() for y in images) == rows[1:].tobytes()


def vertex_cycle(n: int, length: int) -> CubicMatrix:
    """A cube on ``n`` states whose pair (i, i) begets state sigma(i), for the cycle sigma = (0 1 ... length-1).

    Every other pair begets the uniform row, so the orbit of e_0 runs around the cycle's vertices.
    """
    sigma = np.arange(n)
    sigma[:length] = np.roll(sigma[:length], -1)
    p = np.full((n, n, n), 1.0 / n)
    p[np.arange(n), np.arange(n)] = np.eye(n)[sigma]
    return CubicMatrix(p)


LAPS = [pytest.param(preset(name, **params), np.array([0.2, 0.3, 0.5]), id=f"{name}-{params}")
        for name, params, *_ in CYCLES]
LAPS += [pytest.param(vertex_cycle(n, length), np.eye(n)[0], id=f"vertex-cycle-n{n}-length{length}")
         for n in (9, 33) for length in (1, 2, 3, 7, 13) if length <= n]


class TestLaps:
    """Blocks read from a closed lap by index: the orbit's blocks, the trajectory's ``lap`` and the Cesaro sums."""

    @pytest.mark.parametrize("P, x", LAPS)
    def test_cesaro_blocks_match_the_per_step_sum(self, P, x):
        """Over 100,003 counts the block sums of every lap equal the sequential ``acc += x``, bitwise."""
        schedule = [2**k for k in range(17)] + [100_003]
        got, want = cesaro_running(P, SimplexPoint(x), schedule), cesaro_per_step(P, SimplexPoint(x), schedule)
        assert [count for count, _ in got] == [count for count, _ in want] == schedule
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(got, want))

    @pytest.mark.parametrize("name, params, entry, period, computed", CYCLES)
    def test_blocks_match_the_pulled_images(self, name, params, entry, period, computed):
        """Blocks of any size, across the lap's start, hold the per-step loop's images; the lap starts after the match."""
        P, x = preset(name, **params), np.array([0.2, 0.3, 0.5])
        orbit = operators._orbit(P, x)
        sizes = list(itertools.islice(itertools.cycle([1, 3, 8, 0, 100, 1000]), 30))
        blocks = [orbit.take(k) for k in sizes]
        assert [block.shape for block in blocks] == [(k, 3) for k in sizes]
        rows = reference_orbit(P, x, orbit.steps)
        assert np.concatenate(blocks).tobytes() == rows[1:].tobytes()
        assert orbit.lap == (computed - period + 1, period)

    @pytest.mark.parametrize("name, params, entry, period, computed", CYCLES)
    def test_trajectory_lap_is_the_first_repeat(self, name, params, entry, period, computed):
        P, x0 = preset(name, **params), SimplexPoint(np.array([0.2, 0.3, 0.5]))
        traj = trajectory(P, x0, 2000)
        assert traj.lap == first_repeat(traj.coords) == (entry, period)
        assert trajectory(P, x0, computed - 1).lap is None  # the orbit has not closed its lap yet

    def test_trajectory_lap_from_a_fixed_vertex_and_without_a_cycle(self):
        P = preset("ganikhodzhaev_v0")
        assert trajectory(P, SimplexPoint.vertex(3), 30).lap == (0, 1)
        skew = cubic_from_skew(SkewMatrix(np.array([[0.0, 0.5, -0.5], [-0.5, 0.0, 0.5], [0.5, -0.5, 0.0]])))
        assert trajectory(skew, SimplexPoint(np.array([0.2, 0.3, 0.5])), 3000).lap is None

    def test_lyapunov_bounds_are_the_per_step_bounds(self):
        expected = np.array([lyapunov_bound(s) for s in range(64)])
        assert np.count_nonzero(expected) == 10
        for count in (0, 1, 9, 10, 11, 64):
            assert dynamics._lyapunov_bounds(count).tobytes() == expected[:count].tobytes()


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
        P = sample_random_f_qso(3, {2}, seed=5)  # males {1, 3}
        report = convergence_report(P, SimplexPoint.uniform(4), n_max=10)
        assert report.mode == "certified" and report.trajectory.females == frozenset({2})
        assert report.bound_ok.all() and report.squared_contraction_ok.all() and report.coordinate_bound_ok.all()

    def test_coordinate_bound_matches_per_step_loop(self):
        P = sample_random_f_qso(4, {2}, seed=1)  # males {1, 3, 4}
        report = convergence_report(P, SimplexPoint.uniform(5), n_max=15)
        coords, phis = report.trajectory.coords, report.trajectory.lyapunov_values
        expected = [bool(np.all(coords[n + 1, 1:] <= 2.0 * phis[n] + 1e-12)) for n in range(len(coords) - 1)]
        assert report.coordinate_bound_ok.tolist() == expected
        assert all(expected)  # proved for every female set

    def test_two_sex_beyond_seventeen_states_is_certified(self):
        """A 21-state F-QSO with |F| = |M| = 10 is classified, not refused."""
        females = frozenset(range(1, 21, 2))
        P = sample_random_f_qso(20, females, seed=8)
        report = convergence_report(P, SimplexPoint.uniform(21), n_max=10)
        assert report.mode == "certified" and report.trajectory.females == females
        assert report.bound_ok.all() and report.squared_contraction_ok.all() and report.coordinate_bound_ok.all()

    def test_rejects_non_two_sex_operator(self):
        with pytest.raises(ClassificationError):
            convergence_report(preset("ganikhodzhaev_v0"), SimplexPoint.uniform(3), n_max=5)

    def test_nan_tolerance_is_refused(self):
        P = build_fqso_m2(0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="NaN"):
            convergence_report(P, SimplexPoint.uniform(3), n_max=5, tol=math.nan)
        assert convergence_report(P, SimplexPoint.uniform(3), n_max=5, tol=-1.0).first_below is None

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
            scan = conjecture_scan(m, trials=20, iterations=1, seed=m, females=fixed if policy == "fixed" else policy)
            for row in scan.results:
                P = sample_random_f_qso(m, row.females, row.seed)
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

    def test_the_search_finds_only_the_proved_vertex(self):
        """56 random F-QSOs, m = 2..8: the search's in-simplex candidates are one cluster, at the vertex."""
        rng = np.random.default_rng(21)
        for m in range(2, 9):
            for seed in range(8):
                females = proper_subset(m, int(rng.integers(2**m - 2)))
                report = find_fixed_points(sample_random_f_qso(m, females, seed), starts=100, seed=seed)
                [point] = [cand.point for cand in report.candidates if cand.in_simplex]
                assert np.max(np.abs(point - SimplexPoint.vertex(m + 1).coords)) <= 1e-8

    @pytest.mark.parametrize("m, females, seed", [(2, {1}, 1), (4, {2, 3}, 2), (7, {1, 5, 6}, 3), (12, {4}, 4)])
    def test_vertex_is_the_unique_fixed_point(self, m, females, seed):
        """Every orbit reaches the vertex bitwise, so no polish runs; the proof, not the search, says it is unique."""
        P = sample_random_f_qso(m, females, seed)
        report = find_fixed_points(P, starts=40, seed=seed)
        assert np.array_equal(report.candidates[0].point, SimplexPoint.vertex(m + 1).coords)
        assert len(report.candidates) == 1 and report.polishes == 0
        assert np.array_equal(fixed_points(P).unique_in_simplex.coords, SimplexPoint.vertex(m + 1).coords)
