"""First-row counting, random two-sex operators, and the convergence scanner.

The k = 0 slice of a cubic matrix, indexed by unordered parent pairs,
counts how often the empty-body child is certain (N1) versus uncertain
(N1~).  For any two-sex operator N1 strictly exceeds N1~, an integer
inequality verified here by exhaustion.  The scanner samples random
two-sex operators for arbitrary female sets and checks a theorem: the
functional phi_F = x_F * x_M (see :mod:`qsodyn.dynamics`) proves that
every trajectory reaches the absorbing vertex, within
2*(1/4)^(2^(n-1)) in max norm after n >= 1 steps.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import TOL_SUM, CubicMatrix, female_sets, proper_subset, proper_subsets, require_valid
from .documents import MAX_N
from .operators import FQsoSpec, _f_qso_cube, apply_normalized

#: What every scan report checks.
EVIDENCE_NOTE = "randomized check of a theorem: phi_F = x_F*x_M proves every two-sex orbit reaches the vertex"


@dataclass(frozen=True)
class CountReport:
    """Counts over the n(n+1)/2 unordered pairs of the first (k = 0) row.

    ``n1`` counts pairs with the empty-body coefficient exactly 1,
    ``n1_tilde`` those with it below 1.  When a female set is identified
    the two-sex bounds are filled in:
    ``n1 >= (|F|^2 + |M|^2 + 3|E|)/2 + 1`` and ``n1_tilde <= |F|*|M|``.
    """

    n1: int
    n1_tilde: int
    total_pairs: int
    females: frozenset[int] | None
    n1_lower_bound: int | None
    n1_tilde_upper_bound: int | None


def pair_count(n: int) -> int:
    """Number of unordered pairs over n states: |E|(|E|+3)/2 + 1 with |E| = n-1."""
    e = n - 1
    return e * (e + 3) // 2 + 1


def remark_bounds(n_states: int, females: frozenset[int]) -> tuple[int, int]:
    """Integer bounds (n1 lower, n1_tilde upper) for a two-sex partition."""
    e = n_states - 1
    f = len(females)
    m = e - f
    numerator = f * f + m * m + 3 * e
    assert numerator % 2 == 0
    return numerator // 2 + 1, f * m


def count_first_row(P: CubicMatrix) -> CountReport:
    """Count exact-1 and below-1 empty-body coefficients over unordered pairs.

    Equality with 1 is bitwise (two-sex builders write exact ones); the
    bounds are included when :func:`qsodyn.core.female_sets` finds a
    female set, and omitted otherwise.  Any such set gives valid bounds;
    the first in (size, lexicographic) order is used.
    """
    require_valid(P)
    n = P.n
    iu = np.triu_indices(n)
    vals = P.p[:, :, 0][iu]
    n1 = int(np.count_nonzero(vals == 1.0))
    n1_tilde = int(np.count_nonzero(vals < 1.0))

    females = female_sets(P).first
    if females is not None:
        lower, upper = remark_bounds(n, females)
    else:
        lower = upper = None

    return CountReport(
        n1=n1,
        n1_tilde=n1_tilde,
        total_pairs=pair_count(n),
        females=females,
        n1_lower_bound=lower,
        n1_tilde_upper_bound=upper,
    )


def _mixed_block(m: int, females, seed: int):
    """Check the arguments, then return (F, sorted mixed pairs, one normalised exponential row per pair)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    if m + 1 > MAX_N:
        raise ValueError(f"m + 1 = {m + 1} states exceed the limit of {MAX_N}")
    females = frozenset(females)
    if not females or not females < set(range(1, m + 1)):
        raise ValueError(f"female set {set(females)} must be a nonempty proper subset of {{1,...,{m}}}")
    pairs = [(i, j) for i in sorted(females) for j in sorted(set(range(1, m + 1)) - females)]
    rows = np.random.default_rng(seed).standard_exponential((len(pairs), m + 1))
    rows /= rows.sum(axis=1, keepdims=True)
    if not ((rows >= 0.0).all() and (abs(rows.sum(axis=1) - 1.0) <= TOL_SUM).all()):
        raise ValueError("mixed-pair draws are not probability vectors")
    return females, pairs, rows


def sample_random_f_qso(m: int, females, seed: int) -> FQsoSpec:
    """Draw a random two-sex operator spec, deterministically from the seed.

    Each mixed pair's offspring distribution is uniform on the simplex:
    one block of exponential variates, a row per pair in sorted order,
    normalised in place; equal (m, females, seed) give equal specs bitwise.
    """
    females, pairs, rows = _mixed_block(m, females, seed)
    return FQsoSpec(n=m + 1, females=females, mixed=dict(zip(pairs, rows)))


class TrialResult(NamedTuple):
    trial: int
    seed: int
    females: frozenset[int]
    steps: int  # first step within tol of the vertex, -1 if never
    final_dist: float
    converged: bool  # final-step test: dist at the last iterate <= tol
    final_point: np.ndarray


@dataclass(frozen=True)
class ScanParameters:
    m: int
    f_policy: str
    females: frozenset[int] | None
    trials: int
    iterations: int
    tol: float
    seed: int


@dataclass(frozen=True, eq=False)
class ConjectureReport:
    """Aggregate of a randomized convergence scan.

    ``converged`` counts trials whose final iterate lies within ``tol``
    (max norm) of the absorbing vertex; ``worst_case`` is the trial with
    the largest final distance.  Convergence is proved for every trial
    (see ``note``), so a trial that misses ``tol`` had too few
    iterations, or exposes a fault.
    """

    parameters: ScanParameters
    trials: int
    converged: int
    max_final_distance: float
    worst_case: TrialResult
    results: tuple[TrialResult, ...]
    note: str = EVIDENCE_NOTE


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed: first word of SeedSequence([master_seed, trial])."""
    return int(np.random.SeedSequence([master_seed, trial]).generate_state(1)[0])


def run_trial(m: int, females, seed: int, iterations: int, tol: float) -> tuple[frozenset[int], int, float, bool, np.ndarray]:
    """One scan trial, fully determined by (m, females, seed).

    The operator is the block of :func:`sample_random_f_qso` for ``seed``,
    written into the cube with index arrays; the interior start comes from
    SeedSequence([seed, 1]).  Up to ``iterations`` steps, stopping at the
    exact vertex, which is fixed (V(e0) = e0 bitwise), so every ``tol``
    gets the result of all the steps.  Returns (females, first step within
    tol or -1, final distance, final-step converged flag, final point).
    """
    females, pairs, rows = _mixed_block(m, females, seed)
    n = m + 1
    P = _f_qso_cube(n, pairs, rows)
    draw = np.random.default_rng(np.random.SeedSequence([seed, 1])).standard_exponential(n)
    x = draw / draw.sum()

    vertex = np.zeros(n)
    vertex[0] = 1.0
    dist = float(abs(x - vertex).max())
    first_hit = 0 if dist <= tol else -1
    step = 0
    while step < iterations and dist != 0.0:
        step += 1
        x = apply_normalized(P, x)
        dist = float(abs(x - vertex).max())
        if first_hit < 0 and dist <= tol:
            first_hit = step
    return females, first_hit, dist, dist <= tol, x


def conjecture_scan(
    m: int,
    trials: int,
    iterations: int = 50,
    tol: float = 1e-8,
    seed: int = 0,
    f_policy: str = "fixed",
    females=None,
) -> ConjectureReport:
    """Randomized check of convergence to the vertex across two-sex operators.

    Per trial: pick a female set (per policy), sample a random operator
    (all mixed pairs drawn in one block) and a random interior start,
    iterate up to ``iterations`` steps, stopping at the exact vertex,
    which is fixed, and test the final max-norm distance to
    (1, 0, ..., 0) against ``tol``.
    Policies: "fixed" uses ``females`` every trial; "all" cycles through
    every nonempty proper subset in (size, lexicographic) order;
    "random" draws one per trial (an int64 index, so m < 64).  Both
    unrank an index and never list the subsets.  Each trial depends only on
    (seed, trial index), so reports are reproducible and independent of
    execution order.  Non-convergent trials are counted, never raised.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if trials < 1 or iterations < 1:
        raise ValueError("trials and iterations must be >= 1")
    if f_policy not in ("fixed", "all", "random"):
        raise ValueError(f"unknown f_policy {f_policy!r}")
    if f_policy == "fixed":
        if females is None:
            raise ValueError("f_policy='fixed' requires a female set")
        fixed_females = frozenset(females)
    elif f_policy == "random" and m >= 64:
        raise ValueError("f_policy='random' draws an int64 subset index, so m must be below 64")

    results = []
    for t in range(trials):
        s_t = trial_seed(seed, t)
        if f_policy == "fixed":
            chosen = fixed_females
        elif f_policy == "all":
            chosen = proper_subset(m, t % (2**m - 2))
        else:
            pick_rng = np.random.default_rng(np.random.SeedSequence([s_t, 2]))
            chosen = proper_subset(m, int(pick_rng.integers(2**m - 2)))
        fem, steps, final_dist, converged, final_point = run_trial(m, chosen, s_t, iterations, tol)
        results.append(TrialResult(t, s_t, fem, steps, final_dist, converged, final_point))

    worst = max(results, key=lambda r: r.final_dist)
    return ConjectureReport(
        parameters=ScanParameters(
            m=m,
            f_policy=f_policy,
            females=frozenset(females) if females is not None else None,
            trials=trials,
            iterations=iterations,
            tol=tol,
            seed=seed,
        ),
        trials=trials,
        converged=sum(r.converged for r in results),
        max_final_distance=worst.final_dist,
        worst_case=worst,
        results=tuple(results),
    )


class PriorityRow(NamedTuple):
    m: int
    females: frozenset[int]
    n1_lower_bound: int
    n1_tilde_upper_bound: int
    ok: bool


@dataclass(frozen=True, eq=False)
class PriorityReport:
    rows: tuple[PriorityRow, ...]
    all_pass: bool


def verify_priority_inequality(m_max: int) -> PriorityReport:
    """Exhaustively check lower(N1) > upper(N1~) for every m <= m_max and F.

    Enumerates every nonempty proper female set (the empty set and the
    full set are excluded by construction) and compares the two integer
    bound formulas.
    """
    if m_max < 2:
        raise ValueError("m_max must be >= 2")
    rows = []
    for m in range(2, m_max + 1):
        for females in proper_subsets(m):
            lower, upper = remark_bounds(m + 1, females)
            rows.append(PriorityRow(m, females, lower, upper, lower > upper))
    return PriorityReport(rows=tuple(rows), all_pass=all(r.ok for r in rows))
