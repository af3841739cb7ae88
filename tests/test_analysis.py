"""First-row counting, random sampling, the scanner, and the priority bounds."""

import numpy as np
import pytest

from qsodyn import (
    EVIDENCE_NOTE,
    CubicMatrix,
    FQsoSpec,
    build_f_qso,
    build_fqso_m2,
    classify,
    conjecture_scan,
    count_first_row,
    pair_count,
    proper_subsets,
    remark_bounds,
    run_trial,
    sample_random_f_qso,
    trial_seed,
    verify_priority_inequality,
)
from qsodyn import analysis
from qsodyn.core import proper_subset
from qsodyn.operators import apply_normalized
from helpers import random_cubic


def brute_force_counts(P):
    """Independent oracle: count first-row entries pair by pair."""
    n1 = n1_tilde = 0
    for i in range(P.n):
        for j in range(i, P.n):
            value = P.p[i, j, 0]
            if value == 1.0:
                n1 += 1
            elif value < 1.0:
                n1_tilde += 1
    return n1, n1_tilde


# --- the per-pair sampler and the full-length trial, kept as oracles -------


def sample_random_f_qso_loop(m, females, seed):
    """The per-pair sampler: one exponential draw per mixed pair, in sorted order."""
    rng = np.random.default_rng(seed)
    n = m + 1
    females = frozenset(females)
    males = sorted(set(range(1, m + 1)) - females)
    mixed = {}
    for i in sorted(females):
        for j in males:
            draw = rng.standard_exponential(n)
            mixed[(i, j)] = draw / draw.sum()
    return FQsoSpec(n=n, females=females, mixed=mixed)


def build_f_qso_loop(spec):
    """The per-pair cube builder."""
    n = spec.n
    p = np.zeros((n, n, n))
    p[:, :, 0] = 1.0
    for (i, j), dist in spec.mixed.items():
        p[i, j, :] = dist
        p[j, i, :] = dist
    return p


def oracle_trial_start(m, females, seed):
    """A trial's operator, from the per-pair code, and its interior start."""
    P = CubicMatrix(build_f_qso_loop(sample_random_f_qso_loop(m, females, seed)))
    start_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    draw = start_rng.standard_exponential(m + 1)
    return P, draw / draw.sum()


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

    def test_bounds_for_m4(self):
        """m = 4, F = {2,3,4}: lower bound 12, upper bound 3, 15 pairs."""
        spec = sample_random_f_qso(4, {2, 3, 4}, seed=0)
        report = count_first_row(build_f_qso(spec))
        assert report.total_pairs == 15
        assert report.n1_lower_bound == 12
        assert report.n1_tilde_upper_bound == 3
        assert brute_force_counts(build_f_qso(spec)) == (report.n1, report.n1_tilde)

    def test_matches_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(40)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            P = random_cubic(rng, n)
            report = count_first_row(P)
            assert (report.n1, report.n1_tilde) == brute_force_counts(P)

    def test_pair_count_identity_large_n(self):
        """n1 + n1_tilde = |E|(|E|+3)/2 + 1 also beyond the enumeration limit."""
        rng = np.random.default_rng(41)
        for n in (2, 5, 12, 20):
            P = random_cubic(rng, n)
            report = count_first_row(P)
            assert report.n1 + report.n1_tilde == report.total_pairs == pair_count(n)
            if n - 1 > 16:
                assert report.females is None

    def test_edgeless_33_states_takes_the_first_set(self):
        """Every nonempty proper subset is a female set; the first is {1}."""
        from qsodyn import CubicMatrix

        p = np.zeros((33, 33, 33))
        p[:, :, 0] = 1.0
        report = count_first_row(CubicMatrix(p))
        assert report.females == frozenset({1})
        assert report.n1 == pair_count(33) and report.n1_tilde == 0
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
        assert s1.females == s2.females
        for key in s1.mixed:
            np.testing.assert_array_equal(s1.mixed[key], s2.mixed[key])

    def test_seed_changes_draw(self):
        s1 = sample_random_f_qso(4, {2, 3}, seed=1)
        s2 = sample_random_f_qso(4, {2, 3}, seed=2)
        assert any(
            not np.array_equal(s1.mixed[key], s2.mixed[key]) for key in s1.mixed
        )

    def test_m2_expansion_is_the_single_pair_family(self):
        spec = sample_random_f_qso(2, {2}, seed=7)
        P = build_f_qso(spec)
        a, b, c = (float(P.p[1, 2, k]) for k in range(3))
        assert abs(a + b + c - 1.0) <= 1e-12
        assert np.array_equal(P.p, build_fqso_m2(a, b, c).p)

    def test_samples_valid_and_classified(self):
        from qsodyn import validate_stochastic

        for seed in range(200):
            spec = sample_random_f_qso(4, {2, 3}, seed=seed)
            P = build_f_qso(spec)
            assert validate_stochastic(P).ok
            assert frozenset({2, 3}) in classify(P).f_qso_sets

    @pytest.mark.parametrize("m", [*range(2, 14), 40, 255])
    def test_block_draw_matches_the_per_pair_loop(self, m):
        for females in ({1}, set(range(1, m // 2 + 1)), {m}):
            for seed in (0, 17):
                spec = sample_random_f_qso(m, females, seed)
                oracle = sample_random_f_qso_loop(m, females, seed)
                assert spec.females == oracle.females
                assert list(spec.mixed) == list(oracle.mixed)
                assert all(np.array_equal(spec.mixed[key], oracle.mixed[key]) for key in oracle.mixed)
                if m <= 40:
                    assert np.array_equal(build_f_qso(spec).p, build_f_qso_loop(oracle))

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
            P = build_f_qso(sample_random_f_qso(m, females, int(rng.integers(2**32))))
            report = count_first_row(P)
            lower, upper = remark_bounds(m + 1, females)
            assert report.n1 >= lower
            assert report.n1_tilde <= upper
            assert report.n1 > report.n1_tilde


class TestPriorityInequality:
    def test_exhaustive_to_m8(self):
        report = verify_priority_inequality(8)
        assert report.all_pass
        assert len(report.rows) == sum(2**m - 2 for m in range(2, 9))

    def test_m2_row(self):
        report = verify_priority_inequality(2)
        assert {(r.n1_lower_bound, r.n1_tilde_upper_bound) for r in report.rows} == {(5, 1)}
        assert len(report.rows) == 2

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            verify_priority_inequality(1)


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
        report = conjecture_scan(m=3, trials=12, iterations=15, seed=5, f_policy="all")
        for r in report.results:
            assert r.females == subsets[r.trial % len(subsets)]

    @pytest.mark.parametrize("m", [4, 8, 12])
    def test_policies_pick_the_listed_subset(self, m):
        """Unranking picks what indexing the full listing picked, for both policies."""
        subsets = proper_subsets(m)
        every = conjecture_scan(m=m, trials=40, iterations=3, seed=11, f_policy="all")
        assert [r.females for r in every.results] == [subsets[t % len(subsets)] for t in range(40)]
        drawn = conjecture_scan(m=m, trials=40, iterations=3, seed=11, f_policy="random")
        for r in drawn.results:
            pick_rng = np.random.default_rng(np.random.SeedSequence([r.seed, 2]))
            assert r.females == subsets[int(pick_rng.integers(len(subsets)))]

    def test_policy_random_is_seed_stable(self):
        r1 = conjecture_scan(m=4, trials=10, iterations=15, seed=6, f_policy="random")
        r2 = conjecture_scan(m=4, trials=10, iterations=15, seed=6, f_policy="random")
        assert [a.females for a in r1.results] == [b.females for b in r2.results]

    def test_worst_case_is_max_distance(self):
        report = conjecture_scan(m=4, trials=20, iterations=10, seed=7, f_policy="random")
        assert report.worst_case.final_dist == report.max_final_distance
        assert report.worst_case.final_dist == max(r.final_dist for r in report.results)

    def test_run_trial_reproduces_scan_rows(self):
        report = conjecture_scan(m=3, trials=8, iterations=15, tol=1e-8, seed=8, females={3})
        for row in report.results:
            females, steps, final_dist, converged, _ = run_trial(
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
        """Spec, cube, steps, distance, flag and final point equal the per-pair, all-steps code."""
        tols = (0.0, 1e-8, -1.0)
        cubes = []

        def recording(P, x):
            if not cubes or cubes[-1] is not P:
                cubes.append(P)
            return apply_normalized(P, x)

        monkeypatch.setattr(analysis, "apply_normalized", recording)
        trials = 3 if m <= 13 else 1
        for iterations in (1, 3, 50):
            oracles = {}
            for tol in tols:
                cubes.clear()
                report = conjecture_scan(
                    m, trials, iterations=iterations, tol=tol, seed=m, f_policy=policy,
                    females={1} if policy == "fixed" else None,
                )
                assert len(cubes) == trials
                for row, cube in zip(report.results, cubes):
                    key = (row.females, row.seed)
                    if key not in oracles:
                        oracles[key] = run_trial_full(m, row.females, row.seed, iterations, tols)
                    by_tol, x, p = oracles[key]
                    assert (row.steps, row.final_dist, row.converged) == by_tol[tol]
                    assert np.array_equal(row.final_point, x)
                    assert np.array_equal(cube.p, p)

    @pytest.mark.parametrize("m", [2, 4, 8, 12])
    def test_stops_at_the_first_step_at_the_vertex(self, m, monkeypatch):
        calls = []

        def counting(P, x):
            calls.append(1)
            return apply_normalized(P, x)

        monkeypatch.setattr(analysis, "apply_normalized", counting)
        females = set(range(1, m // 2 + 1))
        for t in range(5):
            seed = trial_seed(m, t)
            hit = vertex_step(m, females, seed)
            assert hit < 50
            for iterations, expected in ((50, hit), (hit, hit), (hit - 1, hit - 1)):
                calls.clear()
                _, _, final_dist, _, x = run_trial(m, females, seed, iterations, -1.0)
                assert len(calls) == expected
                assert np.array_equal(x, np.eye(m + 1)[0]) == (final_dist == 0.0) == (expected == hit)

    def test_trial_seed_scheme(self):
        assert trial_seed(7, 0) != trial_seed(7, 1)
        assert trial_seed(7, 3) == trial_seed(7, 3)

    def test_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            conjecture_scan(m=3, trials=5, f_policy="sometimes")
        with pytest.raises(ValueError):
            conjecture_scan(m=3, trials=5, f_policy="fixed")

    def test_report_carries_evidence_note(self):
        report = conjecture_scan(m=2, trials=2, iterations=5, seed=9, females={1})
        assert report.note == EVIDENCE_NOTE and "theorem" in report.note
