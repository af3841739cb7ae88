"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import numpy as np
import pytest

from qsodyn import (
    SimplexPoint,
    SingleMaleCoefficients,
    apply,
    build_f_qso,
    build_fqso_m2,
    build_single_male,
    cesaro_average,
    classify,
    conjecture_scan,
    cubic_from_skew,
    document_from_matrix,
    find_fixed_points,
    iterate_batch,
    lyapunov,
    lyapunov_bound,
    lyapunov_closed_form,
    pair_count,
    preset,
    proper_subsets,
    remark_bounds,
    sample_random_f_qso,
    save_document,
    trajectory,
    verify_priority_inequality,
    volterra_from_skew,
)
from qsodyn.cli import main as cli_main
from helpers import random_cubic, random_simplex, random_simplex_batch, random_skew

VERTEX_TOL = 1e-9
MAX_STEPS = 20


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_abc(rng):
    draw = rng.standard_exponential(3)
    return draw / draw.sum()


def random_table(rng, m):
    table = rng.standard_exponential((m - 1, m + 1))
    return table / table.sum(axis=1, keepdims=True)


def batch_final_distance(P, rng, n_starts, steps):
    starts = random_simplex_batch(rng, n_starts, P.n)
    vertex = np.zeros(P.n)
    vertex[0] = 1.0
    final = iterate_batch(P, starts, steps)
    return float(np.max(np.abs(final - vertex)))


def test_criterion_1_m2_family_unique_attracting_vertex():
    """100 random (a,b,c) x 100 starts: within 1e-9 of the vertex in 20 steps,
    and multistart search finds exactly one in-simplex cluster there."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for index in range(100):
        a, b, c = random_abc(rng)
        P = build_fqso_m2(a, b, c)
        worst = max(worst, batch_final_distance(P, rng, 100, MAX_STEPS))
        report = find_fixed_points(P, starts=100, seed=index)
        clusters = [cand for cand in report.candidates if cand.in_simplex]
        assert len(clusters) == 1
        assert np.max(np.abs(clusters[0].point - np.array([1.0, 0.0, 0.0]))) <= 1e-8
    verdict(
        "1",
        worst <= VERTEX_TOL,
        f"m=2 family: worst distance to vertex after {MAX_STEPS} steps = {worst:.3e} "
        f"(tol {VERTEX_TOL:g}); 100/100 operators have a single in-simplex cluster at the vertex",
    )


def test_criterion_2_single_male_family_all_m():
    """Same protocol for the single-male family, m = 2..10."""
    rng = np.random.default_rng(102)
    worst = 0.0
    for m in range(2, 11):
        for index in range(100):
            P = build_single_male(SingleMaleCoefficients(random_table(rng, m)))
            worst = max(worst, batch_final_distance(P, rng, 100, MAX_STEPS))
            if index < 10:
                report = find_fixed_points(P, starts=100, seed=index)
                clusters = [cand for cand in report.candidates if cand.in_simplex]
                vertex = np.zeros(m + 1)
                vertex[0] = 1.0
                assert len(clusters) == 1
                assert np.max(np.abs(clusters[0].point - vertex)) <= 1e-8
    verdict(
        "2",
        worst <= VERTEX_TOL,
        f"single-male family m=2..10: worst distance after {MAX_STEPS} steps = {worst:.3e}; "
        f"multistart search (10 operators per m, 100 starts) always finds one cluster at the vertex",
    )


def test_criterion_3_certified_decay_along_trajectories():
    """Stepwise certificate: tail bound, squared contraction, coordinate bound."""
    rng = np.random.default_rng(103)
    steps = 20
    bounds = np.array([lyapunov_bound(n).value for n in range(steps + 1)])
    checked = 0
    worst_bound_gap = worst_square_gap = worst_coord_gap = -np.inf
    for m in range(2, 11):
        for _ in range(100):
            P = build_single_male(SingleMaleCoefficients(random_table(rng, m)))
            history = iterate_batch(P, random_simplex_batch(rng, 100, m + 1), steps, return_history=True)
            phis = history[:, :, 1] * history[:, :, 2:].sum(axis=2)
            worst_bound_gap = max(worst_bound_gap, float(np.max(phis - bounds[:, None])))
            worst_square_gap = max(worst_square_gap, float(np.max(phis[1:] - phis[:-1] ** 2)))
            coord_gap = history[1:, :, 1:] - 2.0 * phis[:-1][:, :, None]
            worst_coord_gap = max(worst_coord_gap, float(np.max(coord_gap)))
            checked += 100 * steps
    ok = worst_bound_gap <= 1e-15 and worst_square_gap <= 1e-15 and worst_coord_gap <= 1e-12
    verdict(
        "3",
        ok,
        f"certified decay on {checked} steps: max phi-(1/4)^(2^n) = {worst_bound_gap:.2e} (<=1e-15), "
        f"max phi'-phi^2 = {worst_square_gap:.2e} (<=1e-15), "
        f"max x_k-2phi = {worst_coord_gap:.2e} (<=1e-12)",
    )


def printed_prefactor_variant(b, c, phi0, n):
    """The (2bc)^-1 prefactor variant of the closed form, for the mismatch demo."""
    return (4.0 * b * c * phi0) ** (2**n) / (2.0 * b * c)


def test_criterion_4_closed_form_oracle():
    """Iterated functional matches (4bc)^-1 (4bc phi0)^(2^n) to 1e-9 relative."""
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    pairs = 0
    while pairs < 100:
        a, b, c = random_abc(rng)
        if b * c == 0.0:
            continue
        pairs += 1
        P = build_fqso_m2(a, b, c)
        x = SimplexPoint(random_simplex(rng, 3))
        phi0 = lyapunov(x)
        for step in range(1, 30):
            x = apply(P, x)
            expected = lyapunov_closed_form(b, c, phi0, step)
            if expected <= 1e-200:
                break
            worst_rel = max(worst_rel, abs(lyapunov(x) - expected) / expected)
    verdict(
        "4a",
        worst_rel <= 1e-9,
        f"closed form vs iteration over 100 coefficient draws: worst relative error {worst_rel:.3e}",
    )

    # The printed prefactor variant doubles the step-0 value; the
    # recurrence-consistent form returns phi0 itself.
    b, c, phi0 = 0.4, 0.35, 0.2
    variant0 = printed_prefactor_variant(b, c, phi0, 0)
    ours0 = lyapunov_closed_form(b, c, phi0, 0)
    ok = ours0 == phi0 and variant0 == pytest.approx(2.0 * phi0, rel=1e-13) and variant0 != ours0
    verdict(
        "4b",
        ok,
        f"prefactor mismatch at n=0: variant gives {variant0!r} (= 2*phi0), "
        f"recurrence-consistent form gives {ours0!r} (= phi0)",
    )


def test_criterion_5_male_coordinate_identity():
    """x1(n) = 2b * phi(x(n-1)) to 1e-12 at every step of every m=2 run."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(50):
        a, b, c = random_abc(rng)
        P = build_fqso_m2(a, b, c)
        for _ in range(5):
            x = SimplexPoint(random_simplex(rng, 3))
            for _ in range(15):
                phi_prev = lyapunov(x)
                x = apply(P, x)
                worst = max(worst, abs(float(x.coords[1]) - 2.0 * b * phi_prev))
    verdict("5", worst <= 1e-12, f"male-coordinate identity: worst residual {worst:.3e} (<=1e-12)")


def test_criterion_6_first_row_combinatorics():
    """Exhaustive pair-count identity and both bounds for every F, m <= 8."""
    rng = np.random.default_rng(106)
    cases = 0
    # exhaustive over every female set, a couple of samples each
    for m in range(2, 9):
        total = pair_count(m + 1)
        for females in proper_subsets(m):
            lower, upper = remark_bounds(m + 1, females)
            for _ in range(2):
                P = build_f_qso(sample_random_f_qso(m, females, int(rng.integers(2**32))))
                iu = np.triu_indices(m + 1)
                vals = P.p[:, :, 0][iu]
                n1 = int(np.count_nonzero(vals == 1.0))
                n1_tilde = int(np.count_nonzero(vals < 1.0))
                assert n1 + n1_tilde == total
                assert n1 >= lower and n1_tilde <= upper
                assert n1 > n1_tilde
                cases += 1
    # volume: 10^4 random operators across m <= 8
    for _ in range(10_000 - cases):
        m = int(rng.integers(2, 9))
        subsets = proper_subsets(m)
        females = subsets[int(rng.integers(len(subsets)))]
        P = build_f_qso(sample_random_f_qso(m, females, int(rng.integers(2**32))))
        iu = np.triu_indices(m + 1)
        vals = P.p[:, :, 0][iu]
        n1 = int(np.count_nonzero(vals == 1.0))
        n1_tilde = int(np.count_nonzero(vals < 1.0))
        lower, upper = remark_bounds(m + 1, females)
        assert n1 + n1_tilde == pair_count(m + 1)
        assert n1 >= lower and n1_tilde <= upper and n1 > n1_tilde
    priority = verify_priority_inequality(8)
    verdict(
        "6",
        priority.all_pass,
        f"pair-count identity, both bounds and N1 > N1~ on 10^4 operators across m<=8; "
        f"priority inequality holds for all {len(priority.rows)} (m, F) pairs",
    )


def test_criterion_7_ergodic_averages_and_irregular_contrast():
    """Cesaro averages reach the vertex for the certified family; the Volterra
    RPS preset never converges to the barycenter reference over 10^4 steps.

    In exact arithmetic the RPS orbit approaches a boundary cycle and has no
    limit at all; in float64 its coordinates underflow after a few hundred
    steps and the orbit collapses onto a vertex, so "never settles anywhere"
    is not testable literally.  Asserted instead: non-convergence to the
    barycenter (the trajectory-level operationalization), plus cycling
    through all three states before the collapse.
    """
    rng = np.random.default_rng(107)
    worst = 0.0
    for m in (2, 3, 5, 8):
        for _ in range(3):
            P = build_single_male(SingleMaleCoefficients(random_table(rng, m)))
            x0 = SimplexPoint(random_simplex(rng, m + 1))
            avg = cesaro_average(P, x0, 2000)
            vertex = np.zeros(m + 1)
            vertex[0] = 1.0
            worst = max(worst, float(np.max(np.abs(avg.coords - vertex))))
    ok_avg = worst <= 1e-2

    bary = SimplexPoint.uniform(3)
    start = SimplexPoint(np.array([1 / 3 + 2e-4, 1 / 3 - 1e-4, 1 / 3 - 1e-4]))
    traj = trajectory(preset("ganikhodzhaev_v0"), start, max_steps=10_000, tol=1e-9, reference=bary)
    ok_contrast = traj.stop_reason == "max_steps" and float(np.min(traj.dist_to_limit[1:])) > 1e-9
    leaders = {int(np.argmax(x)) for x in traj.coords[:120]}
    ok_cycling = leaders == {0, 1, 2}
    verdict(
        "7",
        ok_avg and ok_contrast and ok_cycling,
        f"Cesaro averages at n=2000 within {worst:.3e} of the vertex (<=1e-2); RPS preset ran "
        f"10^4 steps without converging to the barycenter and cycled through all three states",
    )


def test_criterion_8_scanner_determinism_and_regimes(tmp_path):
    """CLI scan is byte-deterministic; single-male and mixed partitions all converge (certified)."""
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (first, second):
        code = cli_main(
            [
                "conjecture", "--m", "4", "--f", "2,3", "--trials", "200",
                "--seed", "7", "--csv", str(out),
            ]
        )
        assert code == 0
    identical = first.read_bytes() == second.read_bytes()

    theorem_m2 = conjecture_scan(m=2, trials=100, iterations=30, tol=1e-8, seed=1, females={2})
    theorem_m5 = conjecture_scan(m=5, trials=100, iterations=30, tol=1e-8, seed=2, females={2, 3, 4, 5})
    mixed = conjecture_scan(m=4, trials=200, iterations=50, tol=1e-8, seed=7, females={2, 3})
    ok = (
        identical
        and theorem_m2.converged == 100
        and theorem_m5.converged == 100
        and mixed.converged == mixed.trials
    )
    verdict(
        "8",
        ok,
        f"byte-identical scan CSVs; single-male regimes 100/100 and 100/100; mixed partition m=4 F={{2,3}} "
        f"reported {mixed.converged}/{mixed.trials} converged (certified)",
    )


def test_criterion_9_property_suite(tmp_path):
    """Simplex preservation, skew round trip, class exclusivity, CSV replay."""
    rng = np.random.default_rng(109)

    # simplex preservation: 100 matrices x 100 points
    worst_sum = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        P = random_cubic(rng, n)
        X = random_simplex_batch(rng, 100, n)
        raw = np.einsum("ijk,bi,bj->bk", P.p, X, X)
        assert np.all(raw >= 0.0)
        worst_sum = max(worst_sum, float(np.max(np.abs(raw.sum(axis=1) - 1.0))))
    ok_simplex = worst_sum <= 1e-12

    # Volterra round trip: 100 skews x 100 points
    worst_rt = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 6))
        A_arr = random_skew(rng, m)
        from qsodyn import SkewMatrix, skew_from_cubic

        A = SkewMatrix(A_arr)
        P = cubic_from_skew(A)
        assert np.array_equal(skew_from_cubic(P).a, A_arr)
        op = volterra_from_skew(A)
        for x_row in random_simplex_batch(rng, 100, m):
            x = SimplexPoint(x_row)
            worst_rt = max(
                worst_rt, float(np.max(np.abs(op(x).coords - apply(P, x).coords)))
            )
    ok_roundtrip = worst_rt <= 1e-12

    # classification mutual exclusivity on 10^4 random matrices
    ok_exclusive = True
    for _ in range(10_000):
        n = int(rng.integers(2, 5))
        report = classify(random_cubic(rng, n))
        if report.is_volterra and report.is_strictly_non_volterra:
            ok_exclusive = False
            break

    # replay consistency of every emitted CSV kind
    doc_path = tmp_path / "op.json"
    save_document(document_from_matrix(build_fqso_m2(0.1, 0.6, 0.3)), doc_path)
    traj_csv, erg_csv, conj_csv = (
        str(tmp_path / name) for name in ("traj.csv", "erg.csv", "conj.csv")
    )
    assert cli_main(["trajectory", str(doc_path), "--start", "random:3", "--steps", "15", "--output", traj_csv]) == 0
    assert cli_main(["ergodic", str(doc_path), "--start", "random:4", "--n", "1000", "--output", erg_csv]) == 0
    assert cli_main(["conjecture", "--m", "3", "--f-policy", "all", "--trials", "30", "--seed", "5", "--csv", conj_csv]) == 0
    ok_replay = (
        cli_main(["replay", traj_csv, "--operator", str(doc_path)]) == 0
        and cli_main(["replay", erg_csv, "--operator", str(doc_path)]) == 0
        and cli_main(["replay", conj_csv, "--m", "3", "--iterations", "50", "--tol", "1e-8"]) == 0
    )

    ok = ok_simplex and ok_roundtrip and ok_exclusive and ok_replay
    verdict(
        "9",
        ok,
        f"simplex preservation (worst sum residual {worst_sum:.2e}), skew round trip "
        f"(worst deviation {worst_rt:.2e}), mutual exclusivity on 10^4 matrices, and replay of "
        f"all three CSV kinds",
    )
