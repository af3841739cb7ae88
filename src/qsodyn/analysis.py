"""First-row counting, random two-sex operators, and the convergence scanner.

The k = 0 slice of a cubic matrix, indexed by unordered parent pairs,
counts how often the empty-body child is certain (N1) versus uncertain
(N1~).  For any two-sex operator N1 strictly exceeds N1~, an integer
inequality verified here by exhaustion.  The scanner samples random
two-sex operators for arbitrary female sets and tests empirically
whether every trajectory reaches the absorbing vertex; its report is
evidence, never proof.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import CubicMatrix, classify, proper_subsets, require_valid
from .operators import FQsoSpec, apply_normalized, build_f_qso

#: Disclaimer attached to every scan report.
EVIDENCE_NOTE = "randomized scan: evidence only, not a proof of convergence"


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
    bounds are included when classification identifies a female set, and
    omitted otherwise.  Any identified set gives valid bounds; the first
    in (size, lexicographic) order is used.
    """
    require_valid(P)
    n = P.n
    iu = np.triu_indices(n)
    vals = P.p[:, :, 0][iu]
    n1 = int(np.count_nonzero(vals == 1.0))
    n1_tilde = int(np.count_nonzero(vals < 1.0))

    report = classify(P)
    females = report.f_qso_sets[0] if report.f_qso_sets else None
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


def sample_random_f_qso(m: int, females, seed: int) -> FQsoSpec:
    """Draw a random two-sex operator spec, deterministically from the seed.

    Each mixed pair's offspring distribution is sampled uniformly on the
    simplex by normalizing independent exponential variates; pairs are
    visited in sorted order so equal (m, females, seed) give bit-for-bit
    equal specs.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    females = frozenset(females)
    if not females or not females < set(range(1, m + 1)):
        raise ValueError(f"female set {set(females)} must be a nonempty proper subset of {{1,...,{m}}}")
    rng = np.random.default_rng(seed)
    n = m + 1
    males = sorted(set(range(1, m + 1)) - females)
    mixed = {}
    for i in sorted(females):
        for j in males:
            draw = rng.standard_exponential(n)
            mixed[(i, j)] = draw / draw.sum()
    return FQsoSpec(n=n, females=females, mixed=mixed)


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
    the largest final distance.  The report is labeled evidence: it
    never claims anything proved.
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

    The operator spec is sampled with ``seed``; the interior start comes
    from SeedSequence([seed, 1]).  Returns (females, first step within
    tol or -1, final distance, final-step converged flag, final point).
    """
    spec = sample_random_f_qso(m, females, seed)
    P = build_f_qso(spec)
    n = m + 1
    start_rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    draw = start_rng.standard_exponential(n)
    x = draw / draw.sum()

    vertex = np.zeros(n)
    vertex[0] = 1.0
    first_hit = -1
    if float(np.max(np.abs(x - vertex))) <= tol:
        first_hit = 0
    for step in range(1, iterations + 1):
        x = apply_normalized(P, x)
        if first_hit < 0 and float(np.max(np.abs(x - vertex))) <= tol:
            first_hit = step
    final_dist = float(np.max(np.abs(x - vertex)))
    return frozenset(females), first_hit, final_dist, final_dist <= tol, x


def conjecture_scan(
    m: int,
    trials: int,
    iterations: int = 50,
    tol: float = 1e-8,
    seed: int = 0,
    f_policy: str = "fixed",
    females=None,
) -> ConjectureReport:
    """Randomized scan for convergence to the vertex across two-sex operators.

    Per trial: pick a female set (per policy), sample a random operator
    and a random interior start, iterate a fixed number of steps, and
    test the final max-norm distance to (1, 0, ..., 0) against ``tol``.
    Policies: "fixed" uses ``females`` every trial; "all" cycles through
    every nonempty proper subset in (size, lexicographic) order;
    "random" draws one per trial.  Each trial depends only on
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
    else:
        subsets = proper_subsets(m)

    results = []
    for t in range(trials):
        s_t = trial_seed(seed, t)
        if f_policy == "fixed":
            chosen = fixed_females
        elif f_policy == "all":
            chosen = subsets[t % len(subsets)]
        else:
            pick_rng = np.random.default_rng(np.random.SeedSequence([s_t, 2]))
            chosen = subsets[int(pick_rng.integers(len(subsets)))]
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
