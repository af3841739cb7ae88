"""Trajectory iteration, fixed points, convergence certificates, Cesaro averages.

For every two-sex operator (F-QSO) with female set F and male set M, the
functional ``phi_F(x) = x_F * x_M`` (total female times total male mass)
contracts at least quadratically per step, phi_F' <= phi_F^2 (only mixed
pairs leave the empty body, so 1 - x0' <= 2 phi_F; then AM-GM), which
certifies doubly exponential convergence to the absorbing vertex
(1, 0, ..., 0).  For M = {1} it is the source paper's ``lyapunov``.  This
module records and checks that certificate stepwise, finds fixed points
both algebraically (three states) and by seeded multistart search, and
computes Cesaro (ergodic) averages.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy  # unused: kept only because bench/worker.py reads sys.modules["scipy"]

from .core import (
    TOL_FIX,
    TOL_SUM,
    ClassificationError,
    CubicMatrix,
    DimensionError,
    InvalidPointError,
    SimplexPoint,
    female_sets,
    renormalize,
    require_valid,
)
from .operators import apply_normalized, apply_unnormalized, build_fqso_m2

#: Once phi_F falls below this, a two-sex trajectory is snapped to the
#: exact vertex: the next true iterate is provably within twice this
#: distance of it, and denormal arithmetic adds only noise.
PHI_UNDERFLOW = 1e-300

STOP_MAX_STEPS = "max_steps"
STOP_CONVERGED = "converged"
STOP_INVALID = "invalid_state"


def _phi(n: int, females: frozenset[int] | None):
    """``phi_F(x) = x_F * x_M`` over the last axis for ``n`` states, M the rest of {1..n-1}.

    ``females=None`` takes the paper's sides F = {2..n-1}, M = {1}.
    ``take`` copies in C order, so each side sums bitwise as its slice
    would; ``v[..., idx]`` may copy column-major and round differently.
    """
    in_f = np.zeros(n, dtype=bool)
    in_f[list(females) if females is not None else slice(2, None)] = True
    f_idx, m_idx = np.flatnonzero(in_f), np.flatnonzero(~in_f)[1:]
    return lambda v: v.take(f_idx, axis=-1).sum(axis=-1) * v.take(m_idx, axis=-1).sum(axis=-1)


def lyapunov(x: SimplexPoint) -> float:
    """Convergence functional ``x1 * sum_{i >= 2} x_i`` (equals x1*x2 for dim 3).

    The paper's phi_F for M = {1}.  Defined for dim >= 3.  Always >= 0,
    and at most 1/4 on the simplex.
    """
    if x.dim < 3:
        raise DimensionError("the convergence functional needs dim >= 3")
    return float(_phi(x.dim, None)(x.coords))


def lyapunov_closed_form(b: float, c: float, phi0: float, n: int) -> float:
    """Value after ``n`` steps of the scalar recurrence ``phi -> 4bc phi^2``.

    Equals ``(4bc)^{-1} (4bc phi0)^{2^n}`` for bc != 0, evaluated by a
    squaring chain so huge ``n`` underflows cleanly to 0.  ``n = 0``
    returns ``phi0`` itself (zero applications), also when bc = 0.
    """
    if b < 0.0 or c < 0.0:
        raise ValueError("b and c must be nonnegative")
    if not -1e-15 <= phi0 <= 0.25 + 1e-15:
        raise ValueError(f"phi0={phi0!r} outside [0, 1/4], impossible on the simplex")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return float(phi0)
    t = (4.0 * b * c) * phi0
    if t == 0.0:
        return 0.0
    for _ in range(n):
        t = t * t
        if t == 0.0:
            return 0.0
    return t / (4.0 * b * c)


@dataclass(frozen=True)
class LyapunovBound:
    """The step-``n`` certificate bound (1/4)^(2^n).

    ``value`` is the bound as a double (0.0 once it falls below the
    smallest positive representable number, flagged by ``is_exact``);
    ``log2`` carries the exact base-2 logarithm -2^(n+1) regardless, as
    ``-inf`` once that leaves the double range (n >= 1023).
    """

    value: float
    log2: float
    is_exact: bool


def lyapunov_bound(n: int) -> LyapunovBound:
    """Upper bound (1/4)^(2^n) for the functional after ``n`` certified steps."""
    if n < 0:
        raise ValueError("n must be >= 0")
    log2 = -(2.0 ** (n + 1)) if n < 1023 else -math.inf  # 2.0 ** 1024 overflows
    if n <= 60:
        exponent = 2 ** (n + 1)
        value = math.ldexp(1.0, -exponent)
        return LyapunovBound(value=value, log2=log2, is_exact=exponent <= 1074)
    return LyapunovBound(value=0.0, log2=log2, is_exact=False)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An orbit x(0), x(1) = V(x(0)), ... as a read-only (len, n) array, with diagnostics.

    ``lyapunov_values[n]`` is phi_F at step n for F = ``females``, the
    operator's first female set (``None``: there is none, and the paper's
    sides F = {2..n-1}, M = {1} are used; NaN when n < 3 states).
    ``dist_to_limit`` holds max-norm distances to the reference point
    when one was given.  Each row is the image of its predecessor, with
    one documented exception: when a two-sex trajectory's phi_F drops
    below ``PHI_UNDERFLOW`` the final row is snapped to the exact vertex
    (the true iterate differs from it by at most twice that threshold).
    """

    coords: np.ndarray
    lyapunov_values: np.ndarray
    females: frozenset[int] | None
    dist_to_limit: np.ndarray | None
    stop_reason: str
    tol: float | None

    def __len__(self) -> int:
        return self.coords.shape[0]


def _max_dist(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)))


def trajectory(
    P: CubicMatrix,
    x0: SimplexPoint,
    max_steps: int,
    tol: float | None = None,
    reference: SimplexPoint | None = None,
) -> Trajectory:
    """Iterate the operator from ``x0``, recording diagnostics per step.

    Stops after ``max_steps`` applications, or earlier with
    ``stop_reason="converged"`` when a reference point and tolerance are
    given and the max-norm distance to the reference falls within
    ``tol`` (checked from step 0 onward), or when the two-sex underflow
    snap fires, or with ``"invalid_state"`` when a step leaves
    the simplex (a non-finite, negative or non-unit-sum image, which a
    validated matrix cannot produce from a simplex point).
    """
    require_valid(P)
    if x0.dim != P.n:
        raise DimensionError(f"start of dim {x0.dim} does not match operator with n={P.n}")
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    if reference is not None and reference.dim != P.n:
        raise DimensionError("reference dimension does not match the operator")

    ref = reference.coords if reference is not None else None
    watch = ref is not None and tol is not None
    vertex = SimplexPoint.vertex(P.n).coords
    females = female_sets(P).first
    phi = _phi(P.n, females)
    # The snap claims convergence to the vertex; honor a user-supplied
    # reference only when the vertex itself satisfies it.
    snap = females is not None and (not watch or _max_dist(vertex, ref) <= tol)

    x = x0.coords
    rows = [x]
    for count in range(max_steps + 1):
        if watch and _max_dist(x, ref) <= tol:
            stop = STOP_CONVERGED
            break
        if count == max_steps:
            stop = STOP_MAX_STEPS
            break
        if snap and phi(x) < PHI_UNDERFLOW:
            if not np.array_equal(x, vertex):
                rows.append(vertex)
            stop = STOP_CONVERGED
            break
        x = apply_normalized(P, x)
        # A NaN fails the first comparison, an infinity the second.
        if not (x.min() >= 0.0 and abs(x.sum() - 1.0) <= TOL_SUM):
            stop = STOP_INVALID
            break
        rows.append(x)

    coords = np.array(rows)
    coords.flags.writeable = False
    return Trajectory(
        coords=coords,
        lyapunov_values=phi(coords) if P.n >= 3 else np.full(len(rows), math.nan),
        females=females,
        dist_to_limit=np.max(np.abs(coords - ref), axis=1) if ref is not None else None,
        stop_reason=stop,
        tol=tol,
    )


def iterate_batch(P: CubicMatrix, starts: np.ndarray, steps: int, return_history: bool = False):
    """Vectorized iteration of many points at once.

    ``starts`` has shape (B, n); returns the array after ``steps``
    applications, or the full history of shape (steps+1, B, n) when
    ``return_history`` is set.  Each step renormalizes by the row sum.
    """
    X = np.array(starts, dtype=float, copy=True)
    if X.ndim != 2 or X.shape[1] != P.n:
        raise DimensionError(f"starts of shape {X.shape} do not match operator with n={P.n}")
    history = [X]
    for _ in range(steps):
        X = apply_normalized(P, X)
        if return_history:
            history.append(X)
    return np.stack(history) if return_history else X


class FixedPointCandidate(NamedTuple):
    point: np.ndarray
    residual: float
    in_simplex: bool


@dataclass(frozen=True, eq=False)
class FixedPointReport:
    """Candidate fixed points with residuals and simplex-membership flags.

    ``unique_in_simplex`` is set iff exactly one candidate lies in the
    simplex.  Every candidate flagged in-simplex has max-norm residual
    at most ``TOL_FIX``.  ``polishes`` counts the residual minimizations
    a multistart search ran and ``polishes_accepted`` those whose result
    passed that threshold (both 0 for the algebraic report).
    """

    candidates: tuple[FixedPointCandidate, ...]
    unique_in_simplex: SimplexPoint | None
    polishes: int = 0
    polishes_accepted: int = 0


def _residual(P: CubicMatrix, x: np.ndarray) -> float:
    return float(np.max(np.abs(apply_unnormalized(P, x) - x)))


def _in_simplex(x: np.ndarray) -> bool:
    return bool(np.all(x >= -TOL_SUM) and abs(float(x.sum()) - 1.0) <= TOL_SUM)


def fixed_points_m2(a: float, b: float, c: float) -> FixedPointReport:
    """Algebraic fixed points of the three-state single-pair operator.

    The vertex (1, 0, 0) is always fixed.  For bc != 0 the remaining
    algebraic solution is

        x* = ((2bc - b - c) / (2bc),  1/(2c),  1/(2b)),

    which never lies in the simplex: 1/(2b) <= 1 and 1/(2c) <= 1 would
    force b = c = 1/2, making x1* = x2* = 1 contradict the unit sum.  It
    is reported with ``in_simplex=False`` as a diagnostic.
    """
    P = build_fqso_m2(a, b, c)
    vertex = np.array([1.0, 0.0, 0.0])
    candidates = [FixedPointCandidate(vertex, _residual(P, vertex), True)]
    if b * c != 0.0:
        x_star = np.array([(2.0 * b * c - b - c) / (2.0 * b * c), 1.0 / (2.0 * c), 1.0 / (2.0 * b)])
        candidates.append(FixedPointCandidate(x_star, _residual(P, x_star), _in_simplex(x_star)))
    in_simplex = [cand for cand in candidates if cand.in_simplex]
    unique = SimplexPoint(in_simplex[0].point) if len(in_simplex) == 1 else None
    return FixedPointReport(candidates=tuple(candidates), unique_in_simplex=unique)


def _polish(P: CubicMatrix, guesses: np.ndarray) -> np.ndarray:
    """Projected Gauss-Newton on ``[V(x) - x; sum(x) - 1]`` for each row of a ``(k, n)`` stack.

    Each step solves all rows through the pseudo-inverses of their
    analytic Jacobians and clips to [0, 1]; a row leaves once a step
    returns it bitwise unchanged (at most 60 steps) and is divided by its
    sum.  Rows are independent, so a row polishes bitwise alike in any
    stack.  A row whose residual or Jacobian turns non-finite leaves
    before the solve; it, and a row of zero sum, comes back NaN.
    """
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


def find_fixed_points(P: CubicMatrix, starts: int = 100, seed: int = 0) -> FixedPointReport:
    """Seeded multistart fixed-point search: iterate, then polish.

    Pure map iteration from each random start finds attracting points:
    all starts iterate as one batch for up to 200 steps, each leaving it
    once a step returns it bitwise unchanged.  Every start whose
    endpoint is not a fixed point is polished twice, from the start and
    from the endpoint, as rows of one projected Gauss-Newton stack
    (``_polish``), which catches repelling or neutral fixed points.
    Candidates with max-norm residual at most ``TOL_FIX`` are clustered
    within 1e-8 and reported with the best residual per cluster.  An
    empty candidate list is a legal outcome.
    """
    require_valid(P)
    if starts < 1:
        raise ValueError("starts must be >= 1")
    draws = np.random.default_rng(seed).standard_exponential((starts, P.n))
    starts_x = draws / draws.sum(axis=1, keepdims=True)

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
    tried = iter([(x, _residual(P, x)) for x in _polish(P, guesses)])
    found: list[tuple[np.ndarray, float]] = []
    for end, r, polish in zip(ends, residuals.tolist(), unsettled.tolist()):
        found += [next(tried), next(tried)] if polish else [(end, r)]
    found = [(x, r) for x, r in found if r <= TOL_FIX]
    accepted = len(found) - int(np.count_nonzero(~unsettled))

    # Greedy clustering: best residual first, 1e-8 max-norm radius.
    found.sort(key=lambda item: item[1])
    representatives: list[tuple[np.ndarray, float]] = []
    for x, r in found:
        if all(float(np.max(np.abs(x - y))) > 1e-8 for y, _ in representatives):
            representatives.append((x, r))
    representatives.sort(key=lambda item: tuple(item[0]))

    candidates = tuple(FixedPointCandidate(x, r, _in_simplex(x)) for x, r in representatives)
    in_simplex = [cand for cand in candidates if cand.in_simplex]
    unique = renormalize(in_simplex[0].point) if len(in_simplex) == 1 else None
    return FixedPointReport(candidates, unique, polishes=len(guesses), polishes_accepted=accepted)


def cesaro_average(P: CubicMatrix, x0: SimplexPoint, n: int) -> SimplexPoint:
    """Mean of the first ``n`` trajectory points, (1/n) sum_{j<n} x(j).

    A convex combination of simplex points, so the result is a valid
    point; ``n = 1`` returns ``x0`` itself.
    """
    [(_, mean)] = cesaro_running(P, x0, [n])
    try:
        return SimplexPoint(mean)
    except InvalidPointError:  # accumulated rounding; project back
        return renormalize(mean)


def cesaro_running(P: CubicMatrix, x0: SimplexPoint, schedule: list[int]) -> list[tuple[int, np.ndarray]]:
    """Running Cesaro averages at the given increasing point counts."""
    if not schedule or schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing and start at >= 1")
    require_valid(P)
    if x0.dim != P.n:
        raise DimensionError(f"start of dim {x0.dim} does not match operator with n={P.n}")
    out: list[tuple[int, np.ndarray]] = []
    acc = np.zeros(P.n)
    x = x0.coords
    wanted = set(schedule)
    for count in range(1, schedule[-1] + 1):
        if count > 1:
            x = apply_normalized(P, x)
        acc += x
        if count in wanted:
            out.append((count, acc / count))
    return out


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Stepwise certificate record for a two-sex trajectory.

    The bound (1/4)^(2^n), the squared contraction and the coordinate
    bound x_k(n+1) <= 2*phi_F(n) are proved for every F-QSO, with phi_F
    as in ``trajectory.lyapunov_values``.  ``male_identity_residuals``
    (three states only) holds |x1(n) - 2b*phi(n-1)|, which is an exact
    identity of the family.  ``first_below`` is the first step at which
    every coordinate except x0 falls below ``tol``.
    """

    mode = "certified"  # a constant, kept because the benchmark harness reads it

    trajectory: Trajectory
    bounds: np.ndarray
    bound_ok: np.ndarray
    squared_contraction_ok: np.ndarray
    coordinate_bound_ok: np.ndarray
    male_identity_residuals: np.ndarray | None
    first_below: int | None
    tol: float


def convergence_report(
    P: CubicMatrix, x0: SimplexPoint, n_max: int, tol: float = 1e-9
) -> ConvergenceReport:
    """Run a trajectory and check the decay certificate at every step.

    Requires a two-sex (F-QSO) operator; raises
    :class:`ClassificationError` otherwise, once the trajectory, which
    finds the female set, has run.  Checks, for each recorded step n,
    with phi = phi_F:

    * ``phi(x(n)) <= (1/4)^(2^n) + 1e-15`` (tail bound),
    * ``phi(x(n+1)) <= phi(x(n))^2 + 1e-15`` (squared contraction),
    * ``x_k(n+1) <= 2 phi(x(n)) + 1e-12`` for every k >= 1,
    * for three states, ``x1(n) = 2b phi(x(n-1))`` with b the mixed
      pair's male-child probability (reported as residuals).
    """
    traj = trajectory(P, x0, max_steps=n_max)
    if traj.females is None:
        raise ClassificationError("convergence certificate requires a two-sex (F-QSO) operator")
    coords = traj.coords
    phis = traj.lyapunov_values
    bounds = np.array([lyapunov_bound(n).value for n in range(len(traj))])
    bound_ok = phis <= bounds + 1e-15
    squared_contraction_ok = phis[1:] <= phis[:-1] ** 2 + 1e-15
    coordinate_bound_ok = np.all(coords[1:, 1:] <= 2.0 * phis[:-1, None] + 1e-12, axis=1)

    male_identity_residuals = None
    if P.n == 3:
        b = float(P.p[1, 2, 1])
        male_identity_residuals = np.abs(coords[1:, 1] - 2.0 * b * phis[:-1])

    below = np.nonzero(np.all(coords[:, 1:] < tol, axis=1))[0]
    first_below = int(below[0]) if below.size else None

    return ConvergenceReport(
        trajectory=traj,
        bounds=bounds,
        bound_ok=bound_ok,
        squared_contraction_ok=squared_contraction_ok,
        coordinate_bound_ok=coordinate_bound_ok,
        male_identity_residuals=male_identity_residuals,
        first_below=first_below,
        tol=tol,
    )
