"""First-row counting, random sampling, the scanner, and the priority bounds."""

import numpy as np
import pytest

from qsodyn import (
    EVIDENCE_NOTE,
    CubicMatrix,
    build_fqso_m2,
    classify,
    conjecture_scan,
    count_first_row,
    remark_bounds,
    run_trial,
    sample_random_f_qso,
    trial_seed,
)
from qsodyn import analysis, operators
from qsodyn.core import proper_subset
from qsodyn.operators import apply_normalized
from helpers import proper_subsets, random_cubic, random_simplex, watch_orbits


def brute_force_counts(P):
    """Independent oracle: count first-row entries pair by pair."""
    n1 = n1_tilde = 0
    for i in range(P.n):
        for j in range(i, P.n):
            value = P.p[i, j, 0]
            if value == 1.0:
                n1 += 1
            else:
                n1_tilde += 1
    return n1, n1_tilde


# --- the per-pair sampler and the full-length trial, kept as oracles -------


def sorted_pairs(n, females):
    """The (female, male) pairs over states 1..n-1, females in the outer loop, both sorted."""
    males = sorted(set(range(1, n)) - set(females))
    return [(i, j) for i in sorted(females) for j in males]


def sample_random_f_qso_loop(m, females, seed):
    """The per-pair sampler: one exponential draw per mixed pair, in sorted pair order, as (pairs, m + 1) rows."""
    rng = np.random.default_rng(seed)
    return np.array([random_simplex(rng, m + 1) for _ in sorted_pairs(m + 1, females)])


def build_f_qso_loop(n, females, rows):
    """The per-pair cube builder: row r on both orientations of the r-th sorted pair."""
    p = np.zeros((n, n, n))
    p[:, :, 0] = 1.0
    for (i, j), dist in zip(sorted_pairs(n, females), rows, strict=True):
        p[i, j, :] = dist
        p[j, i, :] = dist
    return p


def oracle_trial_start(m, females, seed):
    """A trial's operator, from the per-pair code, and its interior start."""
    P = CubicMatrix(build_f_qso_loop(m + 1, females, sample_random_f_qso_loop(m, females, seed)))
    return P, random_simplex(np.random.default_rng(np.random.SeedSequence([seed, 1])), m + 1)


def run_trial_full(m, females, seed, iterations, tols):
    """The full-length trial loop: all ``iterations`` steps, whatever the distance.

    One trajectory serves every tolerance in ``tols``.  Returns
    ({tol: (steps, final_dist, converged)}, final point, cube).
    """
    P, x = oracle_trial_start(m, females, seed)
    n = m + 1
    vertex = np.zeros(n)
    vertex[0] = 1.0
    first_hit = {tol: -1 for tol in tols}
    for tol in tols:
        if float(np.max(np.abs(x - vertex))) <= tol:
            first_hit[tol] = 0
    for step in range(1, iterations + 1):
        x = apply_normalized(P, x)
        for tol in tols:
            if first_hit[tol] < 0 and float(np.max(np.abs(x - vertex))) <= tol:
                first_hit[tol] = step
    final_dist = float(np.max(np.abs(x - vertex)))
    return {tol: (first_hit[tol], final_dist, final_dist <= tol) for tol in tols}, x, P.p


def vertex_step(m, females, seed, limit=200):
    """First step at which the full-length trajectory equals the vertex bitwise."""
    P, x = oracle_trial_start(m, females, seed)
    vertex = np.eye(m + 1)[0]
    for step in range(1, limit + 1):
        x = apply_normalized(P, x)
        if np.array_equal(x, vertex):
            return step
    raise AssertionError(f"no exact vertex within {limit} steps")


def scan_cases():
    for m in range(2, 14):
        for policy in ("fixed", "all", "random"):
            yield m, policy
    yield 40, "fixed"
    yield 255, "fixed"


class TestCountFirstRow:
    def test_m2_matrix_with_free_pair(self):
        """Five pairs are certain, one (the mixed pair with a < 1) is not."""
        report = count_first_row(build_fqso_m2(0.3, 0.4, 0.3))
        assert (report.n1, report.n1_tilde, report.total_pairs) == (5, 1, 6)

    def test_m2_matrix_with_certain_pair(self):
        report = count_first_row(build_fqso_m2(1.0, 0.0, 0.0))
        assert (report.n1, report.n1_tilde) == (6, 0)

    def test_entry_just_above_one_counts_toward_n1_tilde(self):
        """Validation accepts 1 + 5e-13 (inside TOL_SUM); not exactly 1, it was counted in neither N1 nor N1~."""
        p = build_fqso_m2(0.2, 0.5, 0.3).p.copy()
        p[0, 0, 0] = 1.0 + 5e-13
        report = count_first_row(CubicMatrix(p))
        assert (report.n1, report.n1_tilde, report.total_pairs) == (4, 2, 6)
        assert report.n1 + report.n1_tilde == report.total_pairs
        assert brute_force_counts(CubicMatrix(p)) == (4, 2)

    def test_bounds_for_m4(self):
        """m = 4, F = {2,3,4}: lower bound 12, upper bound 3, 15 pairs."""
        P = sample_random_f_qso(4, {2, 3, 4}, seed=0)
        report = count_first_row(P)
        assert report.total_pairs == 15
        assert report.n1_lower_bound == 12
        assert report.n1_tilde_upper_bound == 3
        assert brute_force_counts(P) == (report.n1, report.n1_tilde)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            P = random_cubic(rng, n)
            report = count_first_row(P)
            assert (report.n1, report.n1_tilde) == brute_force_counts(P)

    def test_pair_count_identity_large_n(self):
        """n1 + n1_tilde = n(n+1)/2 also beyond the enumeration limit."""
        rng = np.random.default_rng(41)
        for n in (2, 5, 12, 20):
            P = random_cubic(rng, n)
            report = count_first_row(P)
            assert report.n1 + report.n1_tilde == report.total_pairs == n * (n + 1) // 2
            if n - 1 > 16:
                assert report.females is None

    def test_edgeless_33_states_takes_the_first_set(self):
        """Every nonempty proper subset is a female set; the first is {1}."""
        from qsodyn import CubicMatrix

        p = np.zeros((33, 33, 33))
        p[:, :, 0] = 1.0
        report = count_first_row(CubicMatrix(p))
        assert report.females == frozenset({1})
        assert report.n1 == 33 * 34 // 2 and report.n1_tilde == 0
        assert (report.n1_lower_bound, report.n1_tilde_upper_bound) == remark_bounds(33, frozenset({1}))

    def test_bounds_omitted_without_female_set(self):
        from qsodyn import preset

        report = count_first_row(preset("ganikhodzhaev_v0"))
        assert report.females is None
        assert report.n1_lower_bound is None


class TestSampleRandomFQso:
    def test_deterministic(self):
        s1 = sample_random_f_qso(4, {2, 3}, seed=123)
        s2 = sample_random_f_qso(4, {2, 3}, seed=123)
        assert np.array_equal(s1.p, s2.p)

    def test_seed_changes_draw(self):
        s1 = sample_random_f_qso(4, {2, 3}, seed=1)
        s2 = sample_random_f_qso(4, {2, 3}, seed=2)
        assert not np.array_equal(s1.p, s2.p)

    def test_m2_expansion_is_the_single_pair_family(self):
        P = sample_random_f_qso(2, {2}, seed=7)
        a, b, c = (float(P.p[1, 2, k]) for k in range(3))
        assert abs(a + b + c - 1.0) <= 1e-12
        assert np.array_equal(P.p, build_fqso_m2(a, b, c).p)

    def test_samples_valid_and_classified(self):
        from qsodyn import validate_stochastic

        for seed in range(200):
            P = sample_random_f_qso(4, {2, 3}, seed=seed)
            assert validate_stochastic(P).ok
            assert frozenset({2, 3}) in classify(P).f_qso_sets

    @pytest.mark.parametrize("m", [*range(2, 14), 40, 255])
    def test_block_draw_matches_the_per_pair_loop(self, m):
        """The sampled cube is bitwise the per-pair draws written pair by pair."""
        for females in ({1}, set(range(1, m // 2 + 1)), {m}):
            for seed in (0, 17):
                oracle = build_f_qso_loop(m + 1, females, sample_random_f_qso_loop(m, females, seed))
                assert np.array_equal(sample_random_f_qso(m, females, seed).p, oracle)

    @pytest.mark.parametrize("bad", [-1.0, np.nan])
    def test_block_that_is_not_a_probability_vector_is_refused(self, bad, monkeypatch):
        class Forged:
            def standard_exponential(self, shape):
                draw = np.ones(shape)
                draw[-1, 1] = bad
                return draw

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: Forged())
        with pytest.raises(ValueError, match="not probability vectors"):
            sample_random_f_qso(4, {1, 2}, seed=0)
        with pytest.raises(ValueError, match="not probability vectors"):
            run_trial(4, {1, 2}, 0, 50, 1e-8)

    def test_each_path_checks_its_block_once(self, monkeypatch):
        """The sampler, and ``run_trial`` through it, each find the pairs, write the cube and check its block once."""
        calls = []

        def counting(name):
            original = getattr(operators, name)

            def counted(*args):
                calls.append((name, np.shape(args[0])))
                return original(*args)

            return counted

        for name in ("_mixed_pairs", "_f_qso_cube", "_check_rows"):
            counted = counting(name)
            monkeypatch.setattr(operators, name, counted)
            if hasattr(analysis, name):
                monkeypatch.setattr(analysis, name, counted)
        once = [("_mixed_pairs", ()), ("_f_qso_cube", ()), ("_check_rows", (15, 9))]
        sample_random_f_qso(8, {2, 3, 5}, 1)
        assert calls == once
        run_trial(8, {2, 3, 5}, 1, 50, 1e-8)
        assert calls == once + once

    def test_rejects_bad_female_set(self):
        with pytest.raises(ValueError):
            sample_random_f_qso(3, set(), seed=0)
        with pytest.raises(ValueError):
            sample_random_f_qso(3, {1, 2, 3}, seed=0)
        with pytest.raises(ValueError):
            sample_random_f_qso(3, {0, 1}, seed=0)


class TestRemarkBounds:
    def test_m2_values(self):
        """|F| = |M| = 1, |E| = 2: lower bound 5 beats upper bound 1."""
        lower, upper = remark_bounds(3, frozenset({2}))
        assert (lower, upper) == (5, 1)

    def test_bounds_hold_on_random_operators(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            m = int(rng.integers(2, 9))
            subsets = proper_subsets(m)
            females = subsets[int(rng.integers(len(subsets)))]
            P = sample_random_f_qso(m, females, int(rng.integers(2**32)))
            report = count_first_row(P)
            lower, upper = remark_bounds(m + 1, females)
            assert report.n1 >= lower
            assert report.n1_tilde <= upper
            assert report.n1 > report.n1_tilde


class TestPriorityInequality:
    def test_exhaustive_to_m8(self):
        """lower - upper = ((|F| - |M|)^2 + 3|E|)/2 + 1 >= 1 for every (m, F) with m <= 8."""
        rows = 0
        for m in range(2, 9):
            for females in proper_subsets(m):
                lower, upper = remark_bounds(m + 1, females)
                f, males = len(females), m - len(females)
                assert 2 * (lower - upper - 1) == (f - males) ** 2 + 3 * m
                assert lower > upper
                rows += 1
        assert rows == sum(2**m - 2 for m in range(2, 9))

    def test_m2_row(self):
        assert {remark_bounds(3, females) for females in proper_subsets(2)} == {(5, 1)}
        assert len(proper_subsets(2)) == 2


class TestProperSubset:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_unranking_matches_the_listing(self, m):
        assert [proper_subset(m, r) for r in range(2**m - 2)] == proper_subsets(m)

    @pytest.mark.parametrize("m, index", [(3, -1), (3, 6), (1, 0), (40, 2**40 - 2)])
    def test_rejects_index_out_of_range(self, m, index):
        with pytest.raises(ValueError):
            proper_subset(m, index)

    def test_large_m_without_listing(self):
        assert proper_subset(200, 0) == frozenset({1})
        assert proper_subset(200, 2**200 - 3) == frozenset(range(2, 201))
        assert proper_subset(40, 40) == frozenset({1, 2})


class TestConjectureScan:
    def test_theorem_regime_m2_all_converge(self):
        report = conjecture_scan(m=2, trials=50, iterations=30, tol=1e-8, seed=3, females={2})
        assert report.converged == report.trials == 50
        assert report.max_final_distance <= 1e-8

    def test_step_budget_counts_at_most_the_capped_iterations(self, monkeypatch):
        """trials * min(iterations, BUDGET_STEPS_PER_TRIAL) may reach MAX_STEPS, not pass it, checked before any trial."""
        monkeypatch.setattr(analysis, "MAX_STEPS", 100)
        monkeypatch.setattr(analysis, "BUDGET_STEPS_PER_TRIAL", 20)
        trials = []
        original = analysis.run_trial
        monkeypatch.setattr(analysis, "run_trial", lambda *args: trials.append(args) or original(*args))
        assert conjecture_scan(m=3, trials=5, iterations=20, seed=1, females={2}).trials == 5
        assert conjecture_scan(m=3, trials=5, iterations=10**9, seed=1, females={2}).trials == 5
        assert len(trials) == 10
        for count, iterations in [(6, 20), (101, 1), (6, 10**9)]:
            with pytest.raises(ValueError, match="a scan may run at most 100 steps"):
                conjecture_scan(m=3, trials=count, iterations=iterations, seed=1, females={2})
        assert len(trials) == 10

    def test_deterministic_reports(self):
        r1 = conjecture_scan(m=3, trials=25, iterations=20, tol=1e-8, seed=11, females={2, 3})
        r2 = conjecture_scan(m=3, trials=25, iterations=20, tol=1e-8, seed=11, females={2, 3})
        assert r1.converged == r2.converged
        assert r1.max_final_distance == r2.max_final_distance
        for a, b in zip(r1.results, r2.results):
            assert a.seed == b.seed and a.steps == b.steps and a.final_dist == b.final_dist

    def test_trials_depend_only_on_seed_and_index(self):
        """A longer scan extends a shorter one without changing its prefix."""
        short = conjecture_scan(m=3, trials=5, iterations=15, seed=4, females={2})
        long = conjecture_scan(m=3, trials=10, iterations=15, seed=4, females={2})
        for a, b in zip(short.results, long.results):
            assert a.seed == b.seed
            assert a.final_dist == b.final_dist

    def test_policy_all_cycles_subsets(self):
        subsets = proper_subsets(3)
        report = conjecture_scan(m=3, trials=12, iterations=15, seed=5, females="all")
        for r in report.results:
            assert r.females == subsets[r.trial % len(subsets)]

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_policies_pick_the_listed_subset(self, m):
        """Unranking picks what indexing the full listing picked, for both policies."""
        subsets = proper_subsets(m)
        every = conjecture_scan(m=m, trials=40, iterations=3, seed=11, females="all")
        assert [r.females for r in every.results] == [subsets[t % len(subsets)] for t in range(40)]
        drawn = conjecture_scan(m=m, trials=40, iterations=3, seed=11, females="random")
        for r in drawn.results:
            pick_rng = np.random.default_rng(np.random.SeedSequence([r.seed, 2]))
            assert r.females == subsets[int(pick_rng.integers(len(subsets)))]

    def test_policy_random_is_seed_stable(self):
        r1 = conjecture_scan(m=4, trials=10, iterations=15, seed=6, females="random")
        r2 = conjecture_scan(m=4, trials=10, iterations=15, seed=6, females="random")
        assert [a.females for a in r1.results] == [b.females for b in r2.results]

    def test_worst_case_is_max_distance(self):
        report = conjecture_scan(m=4, trials=20, iterations=10, seed=7, females="random")
        assert report.worst_case.final_dist == report.max_final_distance
        assert report.worst_case.final_dist == max(r.final_dist for r in report.results)
        assert report.trials == 20 and report.converged == sum(r.converged for r in report.results)
        # Trials that end at the vertex tie at distance 0.0; the worst case is the first of a tie.
        tied = conjecture_scan(m=4, trials=6, iterations=50, seed=3, females={1, 2})
        assert tied.max_final_distance == 0.0 and tied.worst_case is tied.results[0]
        assert analysis.ConjectureReport(tied.results[3:]).worst_case is tied.results[3]

    def test_nan_tolerance_is_refused(self):
        """A NaN tolerance would count every trial as not converged and every replay as a mismatch."""
        with pytest.raises(ValueError, match="NaN"):
            conjecture_scan(m=4, trials=3, tol=float("nan"), females={1})
        with pytest.raises(ValueError, match="NaN"):
            run_trial(4, {1}, 0, 50, float("nan"))
        assert run_trial(4, {1}, 0, 50, -1.0)[1:4:2] == (-1, False)

    @pytest.mark.parametrize("iterations", [0, -2])
    def test_run_trial_refuses_fewer_than_one_iteration(self, iterations):
        """A replay with ``--iterations 0`` reported mismatches at exit 1; the scan refuses the same at exit 2."""
        with pytest.raises(ValueError, match="iterations"):
            run_trial(4, {1}, 0, iterations, 1e-8)

    def test_run_trial_reproduces_scan_rows(self):
        report = conjecture_scan(m=3, trials=8, iterations=15, tol=1e-8, seed=8, females={3})
        for row in report.results:
            females, steps, final_dist, converged = run_trial(
                3, row.females, row.seed, 15, 1e-8
            )
            assert (females, steps, final_dist, converged) == (
                row.females,
                row.steps,
                row.final_dist,
                row.converged,
            )

    @pytest.mark.parametrize("m, policy", list(scan_cases()))
    def test_scan_matches_the_full_length_oracle(self, m, policy, monkeypatch):
        """Cube, steps, distance, flag and final point equal the per-pair, all-steps code."""
        tols = (0.0, 1e-8, -1.0)
        orbits = watch_orbits(monkeypatch, analysis)
        trials = 3 if m <= 13 else 1
        for iterations in (1, 3, 50):
            oracles = {}
            for tol in tols:
                orbits.clear()
                report = conjecture_scan(
                    m, trials, iterations=iterations, tol=tol, seed=m,
                    females={1} if policy == "fixed" else policy,
                )
                assert len(orbits) == trials
                for row, (cube, images) in zip(report.results, orbits):
                    key = (row.females, row.seed)
                    if key not in oracles:
                        oracles[key] = run_trial_full(m, row.females, row.seed, iterations, tols)
                    by_tol, x, p = oracles[key]
                    assert (row.steps, row.final_dist, row.converged) == by_tol[tol]
                    assert np.array_equal(images[-1], x)
                    assert np.array_equal(cube.p, p)

    @pytest.mark.parametrize("m", [2, 4, 8, 12])
    def test_stops_at_the_first_step_at_the_vertex(self, m, monkeypatch):
        orbits = watch_orbits(monkeypatch, analysis)
        females = set(range(1, m // 2 + 1))
        for t in range(5):
            seed = trial_seed(m, t)
            hit = vertex_step(m, females, seed)
            assert hit < 50
            for iterations, expected in ((50, hit), (hit, hit), (hit - 1, hit - 1)):
                orbits.clear()
                final_dist = run_trial(m, females, seed, iterations, -1.0)[2]
                ((_, calls),) = orbits
                assert len(calls) == expected
                x = calls[-1]  # the trial's final point
                assert np.array_equal(x, np.eye(m + 1)[0]) == (final_dist == 0.0) == (expected == hit)

    def test_trial_seed_scheme(self):
        assert trial_seed(7, 0) != trial_seed(7, 1)
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_rejects_bad_policy(self):
        """No female set, or a string other than the two policies: never read as a set of characters."""
        with pytest.raises(ValueError):
            conjecture_scan(m=3, trials=5, females="sometimes")
        with pytest.raises(ValueError):
            conjecture_scan(m=3, trials=5)
        for females in ("al", "la", "a", "", "fixed"):
            with pytest.raises(ValueError, match="'all' or 'random'"):
                conjecture_scan(m=3, trials=5, females=females)

    def test_report_carries_evidence_note(self):
        report = conjecture_scan(m=2, trials=2, iterations=5, seed=9, females={1})
        assert report.note == EVIDENCE_NOTE and "theorem" in report.note
