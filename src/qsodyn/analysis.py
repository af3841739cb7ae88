"""First-row counting, random two-sex operators, and the convergence scanner.

The k = 0 slice of a cubic matrix, indexed by unordered parent pairs,
counts how often the empty-body child is certain (N1) versus uncertain
(N1~).  For any two-sex operator N1 strictly exceeds N1~: the lower
bound on N1 exceeds the upper bound on N1~ by ((|F| - |M|)^2 + 3|E|)/2 + 1
(see :func:`remark_bounds`).  The sampler hands one block of random
mixed-pair rows to the two-sex writer of :mod:`qsodyn.operators`; the
scanner runs such operators for arbitrary female sets and checks a
theorem: the functional phi_F = x_F * x_M (see :mod:`qsodyn.dynamics`)
proves that every trajectory reaches the absorbing vertex, within
2*(1/4)^(2^(n-1)) in max norm after n >= 1 steps.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import MAX_N, MAX_STEPS, CubicMatrix, _uniform_simplex, proper_subset, require_valid
from .operators import _f_qso_cube, _mixed_pairs, _orbit

#: The most steps a scan's budget counts per trial.  A trial stops at the exact
#: vertex, which every trial measured reached within 11 steps (m = 2..255), so
#: iterations beyond this add no work, and a scan of a few trials may ask for any number.
BUDGET_STEPS_PER_TRIAL = 64

#: What every scan report checks.
EVIDENCE_NOTE = "randomized check of a theorem: phi_F = x_F*x_M proves every two-sex orbit reaches the vertex"


@dataclass(frozen=True)
class CountReport:
    """Counts over the n(n+1)/2 unordered pairs of the first (k = 0) row.

    ``n1`` counts pairs with the empty-body coefficient exactly 1,
    ``n1_tilde`` all the others, so the two add up to ``total_pairs``.
    When a female set is identified the two-sex bounds are filled in:
    ``n1 >= (|F|^2 + |M|^2 + 3|E|)/2 + 1`` and ``n1_tilde <= |F|*|M|``.
    """

    n1: int
    n1_tilde: int
    total_pairs: int
    females: frozenset[int] | None
    n1_lower_bound: int | None
    n1_tilde_upper_bound: int | None


def remark_bounds(n_states: int, females: frozenset[int]) -> tuple[int, int]:
    """Integer bounds (n1 lower, n1_tilde upper) for a two-sex partition; the first exceeds the second."""
    e = n_states - 1
    f = len(females)
    m = e - f
    # Even: f^2 + m^2 + 3e = (f^2 + f) + (m^2 + m) + 2e, since e = f + m.
    return (f * f + m * m + 3 * e) // 2 + 1, f * m


def count_first_row(P: CubicMatrix) -> CountReport:
    """Count exact-1 and other empty-body coefficients over unordered pairs.

    Equality with 1 is bitwise (two-sex builders write exact ones), so an
    entry just above 1, inside the ``TOL_SUM`` slack that validation
    accepts, counts toward N1~ as one just below 1 does.  The bounds are
    included when :attr:`CubicMatrix.female_sets` finds a female set, and
    omitted otherwise.  Any such set gives valid bounds; the first in
    (size, lexicographic) order is used.
    """
    require_valid(P)
    n = P.n
    iu = np.triu_indices(n)
    vals = P.p[:, :, 0][iu]
    n1 = int(np.count_nonzero(vals == 1.0))

    females = P.female_sets.first
    if females is not None:
        lower, upper = remark_bounds(n, females)
    else:
        lower = upper = None

    return CountReport(
        n1=n1,
        n1_tilde=vals.size - n1,
        total_pairs=vals.size,
        females=females,
        n1_lower_bound=lower,
        n1_tilde_upper_bound=upper,
    )


def sample_random_f_qso(m: int, females, seed: int) -> CubicMatrix:
    """Draw a random two-sex operator on states 0..m, deterministically from the seed.

    Each mixed pair's offspring distribution is uniform on the simplex:
    one block of exponential variates, a row per pair in sorted order,
    normalised in place; equal (m, females, seed) give equal cubes bitwise.
    The state count and the female set are checked before any draw.
    """
    if m + 1 > MAX_N:
        raise ValueError(f"m + 1 = {m + 1} states exceed the limit of {MAX_N}")
    pairs = _mixed_pairs(m + 1, frozenset(females))
    return _f_qso_cube(m + 1, pairs, _uniform_simplex(seed, (len(pairs), m + 1)))


class TrialResult(NamedTuple):
    trial: int
    seed: int
    females: frozenset[int]
    steps: int  # first step within tol of the vertex, -1 if never
    final_dist: float
    converged: bool  # final-step test: dist at the last iterate <= tol


@dataclass(frozen=True, eq=False)
class ConjectureReport:
    """A randomized convergence scan: its trials, with the totals read off them.

    ``converged`` counts trials whose final iterate lies within ``tol``
    (max norm) of the absorbing vertex; ``worst_case`` is the first trial
    with the largest final distance.  Convergence is proved for every
    trial (see ``note``), so a trial that misses ``tol`` had too few
    iterations, or exposes a fault.
    """

    results: tuple[TrialResult, ...]
    note: str = EVIDENCE_NOTE

    @property
    def trials(self) -> int:
        return len(self.results)

    @property
    def converged(self) -> int:
        return sum(r.converged for r in self.results)

    @property
    def worst_case(self) -> TrialResult:
        return max(self.results, key=lambda r: r.final_dist)

    @property
    def max_final_distance(self) -> float:
        return self.worst_case.final_dist


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial seed: first word of SeedSequence([master_seed, trial])."""
    return int(np.random.SeedSequence([master_seed, trial]).generate_state(1)[0])


def run_trial(m: int, females, seed: int, iterations: int, tol: float) -> tuple[frozenset[int], int, float, bool]:
    """One scan trial, fully determined by (m, females, seed).

    The operator is :func:`sample_random_f_qso` for ``seed``; the interior
    start comes from SeedSequence([seed, 1]).  Up to ``iterations`` steps,
    stopping at the exact vertex, which is fixed (V(e0) = e0 bitwise), so
    every ``tol`` gets the result of all the steps.  Returns (females,
    first step within tol or -1, final distance, final-step converged flag).
    ``iterations < 1``, or a NaN ``tol``, which no distance can fall within, raises ``ValueError``.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    females = frozenset(females)
    P = sample_random_f_qso(m, females, seed)
    x = _uniform_simplex(np.random.SeedSequence([seed, 1]), P.n)

    vertex = np.zeros(P.n)
    vertex[0] = 1.0
    dist = float(abs(x - vertex).max())
    first_hit = 0 if dist <= tol else -1
    if dist != 0.0:
        for step, x in enumerate(itertools.islice(_orbit(P, x), iterations), 1):
            dist = float(abs(x - vertex).max())
            if first_hit < 0 and dist <= tol:
                first_hit = step
            if dist == 0.0:
                break
    return females, first_hit, dist, dist <= tol


def conjecture_scan(
    m: int,
    trials: int,
    iterations: int = 50,
    tol: float = 1e-8,
    seed: int = 0,
    females=None,
) -> ConjectureReport:
    """Randomized check of convergence to the vertex across two-sex operators.

    Per trial: pick a female set, sample a random operator (all mixed
    pairs drawn in one block) and a random interior start, iterate up to
    ``iterations`` steps, stopping at the exact vertex, which is fixed,
    and test the final max-norm distance to (1, 0, ..., 0) against ``tol``.
    ``females`` is a set of states used in every trial, or "all", which
    cycles through every nonempty proper subset in (size, lexicographic)
    order, or "random", which draws one per trial (an int64 index, so
    m < 64).  Both strings unrank an index and never list the subsets.
    Each trial depends only on (seed, trial index), so reports are
    reproducible and independent of execution order.  Non-convergent
    trials are counted, never raised.  The step budget: ``trials *
    min(iterations, BUDGET_STEPS_PER_TRIAL)`` above ``MAX_STEPS`` raises
    ``ValueError`` before the first trial.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if trials < 1 or iterations < 1:
        raise ValueError("trials and iterations must be >= 1")
    counted = trials * min(iterations, BUDGET_STEPS_PER_TRIAL)
    if counted > MAX_STEPS:
        raise ValueError(f"a scan may run at most {MAX_STEPS} steps; trials * min(iterations, "
                         f"{BUDGET_STEPS_PER_TRIAL}) is {counted}")
    if females is None or isinstance(females, str):  # before frozenset: "all" is no set {'a', 'l'}
        if females not in ("all", "random"):
            raise ValueError(f"females must be a set of states, 'all' or 'random', got {females!r}")
        if females == "random" and m >= 64:
            raise ValueError("females='random' draws an int64 subset index, so m must be below 64")
    else:
        females = frozenset(females)

    results = []
    for t in range(trials):
        s_t = trial_seed(seed, t)
        if females == "all":
            chosen = proper_subset(m, t % (2**m - 2))
        elif females == "random":
            pick_rng = np.random.default_rng(np.random.SeedSequence([s_t, 2]))
            chosen = proper_subset(m, int(pick_rng.integers(2**m - 2)))
        else:
            chosen = females
        results.append(TrialResult(t, s_t, *run_trial(m, chosen, s_t, iterations, tol)))
    return ConjectureReport(results=tuple(results))
