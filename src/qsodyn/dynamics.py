"""Trajectory iteration, fixed points, convergence certificates, Cesaro averages.

For every two-sex operator (F-QSO) with female set F and male set M, the
functional ``phi_F(x) = x_F * x_M`` (total female times total male mass)
contracts at least quadratically per step, phi_F' <= phi_F^2 (only mixed
pairs leave the empty body, so 1 - x0' <= 2 phi_F; then AM-GM), which
certifies doubly exponential convergence to the absorbing vertex
(1, 0, ..., 0).  For M = {1} it is the source paper's ``lyapunov``.  The
bound phi_n <= (1/4)^(2^n) is the three-state closed form phi -> 4bc phi^2
at its extreme 4bc = 1 from the largest phi_0 = 1/4.  This module records and checks that certificate stepwise, finds fixed points
algebraically (three states), exactly for Volterra operators (one linear
solve per face) and by seeded multistart search, and computes Cesaro
(ergodic) averages.
"""

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
import scipy  # unused: kept only because bench/worker.py reads sys.modules["scipy"]

from .core import (
    MAX_FLOATS,
    MAX_STEPS,
    TOL_FIX,
    TOL_SUM,
    ClassificationError,
    CubicMatrix,
    DimensionError,
    SimplexPoint,
    _as_readonly,
    _on_simplex,
    _Rebuilt,
    _uniform_simplex,
    renormalize,
    require_valid,
)
from .operators import _orbit, apply_normalized, apply_unnormalized, build_fqso_m2, skew_from_cubic

#: Largest state count :func:`fixed_points_volterra` takes: it solves all
#: 2^n - 1 faces, which at n = 16 took 0.45-0.85 s on a 2-core Xeon host.
MAX_VOLTERRA_N = 16

#: Once phi_F falls below this, a two-sex trajectory is snapped to the
#: exact vertex: the next true iterate is provably within twice this
#: distance of it, and denormal arithmetic adds only noise.
PHI_UNDERFLOW = 1e-300

STOP_MAX_STEPS = "max_steps"
STOP_CONVERGED = "converged"
STOP_INVALID = "invalid_state"
_SNAP = "snap"  # the two-sex underflow snap, reported as converged


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
    returns ``phi0`` itself (zero applications), also when bc = 0.  A
    (b, c) that no mixed pair has (NaN, negative, or b + c > 1 +
    ``TOL_SUM``) raises ``ValueError``; so 4bc*phi0 <= 1/4, and the chain
    reaches 0 within about ten squarings.
    """
    if not (b >= 0.0 and c >= 0.0 and b + c <= 1.0 + TOL_SUM):
        raise ValueError(f"b={b!r} and c={c!r} must be nonnegative with b + c <= 1")
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


def lyapunov_bound(n: int) -> float:
    """Upper bound (1/4)^(2^n) on phi_F after ``n`` steps: the closed form at 4bc = 1 from phi0 = 1/4."""
    return lyapunov_closed_form(0.5, 0.5, 0.25, n)


def _lyapunov_bounds(count: int) -> np.ndarray:
    """``lyapunov_bound(s)`` for s = 0, ..., count - 1, bitwise: exactly 0.0 from the first underflow on (s = 10)."""
    bounds = np.zeros(count)
    for s in range(count):
        bounds[s] = lyapunov_bound(s)
        if bounds[s] == 0.0:
            break
    return bounds


@dataclass(frozen=True, eq=False)
class Trajectory(_Rebuilt):
    """An orbit x(0), x(1) = V(x(0)), ... as a read-only (len, n) array, with diagnostics.

    ``lyapunov_values[n]`` is phi_F at step n for F = ``females``, the
    operator's first female set (``None``: there is none, and the paper's
    sides F = {2..n-1}, M = {1} are used; NaN when n < 3 states).
    ``dist_to_limit`` holds max-norm distances to the reference point
    when one was given.  Each row is the image of its predecessor, with
    one documented exception: when a two-sex trajectory's phi_F drops
    below ``PHI_UNDERFLOW`` the final row is snapped to the exact vertex
    (the true iterate differs from it by at most twice that threshold).
    ``lap`` is ``(start, period)`` once the orbit has closed a bitwise
    cycle within the rows: from row ``start`` on, the least such row, each
    row is bitwise the one ``period`` rows later.  It is ``None`` otherwise.
    """

    coords: np.ndarray
    lyapunov_values: np.ndarray
    females: frozenset[int] | None
    dist_to_limit: np.ndarray | None
    stop_reason: str
    lap: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_readonly(self.coords))

    def __len__(self) -> int:
        return self.coords.shape[0]


def _max_dist(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)))


def _lap(coords: np.ndarray, period: int) -> tuple[int, int] | None:
    """``(start, period)`` for the least row ``start`` from which every row equals, bitwise, the one ``period`` later.

    ``None`` when no row is repeated that way, the last one included.
    """
    bits = coords.view(np.int64)
    differ = np.flatnonzero(np.any(bits[period:] != bits[: len(bits) - period], axis=1))
    start = int(differ[-1]) + 1 if differ.size else 0
    return (start, period) if start < len(coords) - period else None


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
    snap fires, or with ``"invalid_state"`` when a step leaves the simplex
    (a non-finite, negative or non-unit-sum image, which a validated matrix
    cannot produce from a simplex point).  A NaN ``tol``, or ``max_steps``
    below 1 or with ``(max_steps + 1) * n`` above ``MAX_FLOATS``, raises
    ``ValueError`` before any step.

    After the start row's tests, blocks of 8, 16, ..., 1024 rows are taken
    from the point's orbit (``operators._orbit.take``), which reads a closed
    cycle's rows by index; the stop rules then run once over each block,
    which is cut at its first row that stops (the rows and the reason are
    those of a test after every step).  An orbit that stops computes at
    most the rest of its block, under ``np.errstate(all="ignore")``.
    """
    require_valid(P)
    if x0.dim != P.n:
        raise DimensionError(f"start of dim {x0.dim} does not match operator with n={P.n}")
    if not 1 <= max_steps <= MAX_FLOATS // P.n - 1:  # the (max_steps + 1, n) coordinate array
        raise ValueError(f"max_steps must be from 1 to {MAX_FLOATS // P.n - 1} at n={P.n}, got {max_steps}")
    if tol is not None and math.isnan(tol):
        raise ValueError("tol must not be NaN")
    if reference is not None and reference.dim != P.n:
        raise DimensionError("reference dimension does not match the operator")

    ref = reference.coords if reference is not None else None
    watch = ref is not None and tol is not None
    vertex = SimplexPoint.vertex(P.n).coords
    females = P.female_sets.first
    phi = _phi(P.n, females)
    # The snap claims convergence to the vertex; honor a user-supplied
    # reference only when the vertex itself satisfies it.
    snap = females is not None and (not watch or _max_dist(vertex, ref) <= tol)

    def cut(rows: np.ndarray, first: int) -> tuple[int, str | None]:
        """How many of ``rows`` (steps ``first``, ``first + 1``, ...) to keep, and why the orbit stops there, if it does.

        The first row that stops wins; on one row the tests rank as listed.
        """
        stops = [(~_on_simplex(rows), 0, STOP_INVALID)]
        if watch:
            stops.append((np.max(np.abs(rows - ref), axis=1) <= tol, 1, STOP_CONVERGED))
        stops.append((np.arange(first, first + len(rows)) == max_steps, 1, STOP_MAX_STEPS))
        if snap:
            stops.append((phi(rows) < PHI_UNDERFLOW, 1, _SNAP))
        hits = [(int(hit.argmax()), keep, reason) for hit, keep, reason in stops if hit.any()]
        row, keep, reason = min(hits, key=lambda h: h[0], default=(len(rows), 0, None))
        return row + keep, reason

    orbit = _orbit(P, x0.coords)
    blocks = [x0.coords[None]]
    count, size = 0, 8
    with np.errstate(all="ignore"):  # rows computed past an invalid state are never kept
        stop = cut(blocks[0], 0)[1]
        while stop is None:
            block = orbit.take(min(size, max_steps - count))
            keep, stop = cut(block, count + 1)
            blocks.append(block[:keep])
            count, size = count + len(block), min(2 * size, 1024)
    if stop == _SNAP:
        if not np.array_equal(blocks[-1][-1], vertex):
            blocks.append(vertex[None])
        stop = STOP_CONVERGED

    coords = np.concatenate(blocks)
    return Trajectory(
        coords=coords,
        lyapunov_values=phi(coords) if P.n >= 3 else np.full(len(coords), math.nan),
        females=females,
        dist_to_limit=np.max(np.abs(coords - ref), axis=1) if ref is not None else None,
        stop_reason=stop,
        lap=_lap(coords, orbit.lap[1]) if orbit.lap is not None else None,
    )


def iterate_batch(P: CubicMatrix, starts: np.ndarray, steps: int, return_history: bool = False):
    """Vectorized iteration of many points at once.

    ``starts`` has shape (B, n); returns the array after ``steps``
    applications, or the full history of shape (steps+1, B, n) when
    ``return_history`` is set.  Each step renormalizes by the row sum.
    A cube that fails validation raises :class:`StochasticityError`, and a
    negative ``steps``, or a history of ``(steps + 1) * B * n`` floats
    above ``MAX_FLOATS``, raises ``ValueError``, all before any step.
    """
    require_valid(P)
    if steps < 0:
        raise ValueError("steps must be >= 0")
    X = np.array(starts, dtype=float, copy=True, order="C")
    if X.ndim != 2 or X.shape[1] != P.n:
        raise DimensionError(f"starts of shape {X.shape} do not match operator with n={P.n}")
    if return_history and (steps + 1) * X.size > MAX_FLOATS:  # the (steps + 1, B, n) history
        raise ValueError(
            f"a history of {steps + 1} x {X.shape[0]} x {P.n} floats exceeds the budget of {MAX_FLOATS}; "
            "take fewer steps or starts, or no history"
        )
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

    ``method`` says how the set was obtained: ``"two-sex"`` (proved by phi_F),
    ``"algebraic"``, ``"volterra"`` (exact) or ``"search"`` (not proved
    complete).  Every candidate flagged in-simplex has max-norm residual at
    most ``TOL_FIX``.  ``polishes`` counts the residual minimizations a search
    ran and ``polishes_accepted`` those whose result passed that threshold (0
    without a search).  ``degenerate_faces`` lists, as sorted state tuples, the
    faces whose fixed points the exact Volterra solve could not pin to one point.
    """

    candidates: tuple[FixedPointCandidate, ...]
    method: str
    polishes: int = 0
    polishes_accepted: int = 0
    degenerate_faces: tuple[tuple[int, ...], ...] = ()

    @functools.cached_property
    def unique_in_simplex(self) -> SimplexPoint | None:
        """The in-simplex candidate projected onto the simplex if it is the only one and no search ran, else ``None``."""
        in_simplex = [cand.point for cand in self.candidates if cand.in_simplex]
        return renormalize(in_simplex[0]) if len(in_simplex) == 1 and self.method != "search" else None


def _residual(P: CubicMatrix, X: np.ndarray) -> np.ndarray:
    """``max|V(x) - x|`` for each row of a ``(k, n)`` stack, in one row-invariant kernel call."""
    return np.max(np.abs(apply_unnormalized(P, X) - X), axis=1)


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
    points = [np.array([1.0, 0.0, 0.0])]
    if b * c != 0.0:
        points.append(np.array([(2.0 * b * c - b - c) / (2.0 * b * c), 1.0 / (2.0 * c), 1.0 / (2.0 * b)]))
    residuals = _residual(P, np.array(points)).tolist()
    candidates = tuple(FixedPointCandidate(x, r, bool(_on_simplex(x))) for x, r in zip(points, residuals))
    return FixedPointReport(candidates, "algebraic")


def _solve_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` on a stack, with NaN for each exactly singular matrix instead of an error for all."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError:  # one singular matrix fails the stack: find it one matrix at a time
        out = np.full(b.shape, np.nan)
        for row, (a, rhs) in enumerate(zip(A, b)):
            try:
                out[row] = np.linalg.solve(a, rhs)
            except np.linalg.LinAlgError:
                pass
        return out


def fixed_points_volterra(P: CubicMatrix) -> FixedPointReport:
    """Every fixed point in the simplex of a Volterra operator, by one linear solve per face.

    With ``A`` the skew form (:func:`skew_from_cubic`), ``V(x)_k = x_k (1 +
    (Ax)_k)`` on the simplex, so x is fixed exactly when ``(Ax)_k = 0`` on
    its support S.  On each face S the bordered system
    ``[[A_SS, 1], [1^T, 0]] [x_S; lam] = [0; 1]`` is solved, all faces of
    one size as one stacked ``np.linalg.solve``; ``x^T A x = 0`` forces
    ``lam = 0``.  A face whose block ``A_SS`` has a kernel of dimension 0
    (skew blocks of even size, generically) holds no fixed point and is
    skipped.  A face whose kernel has dimension 2 or more (numerical rank by
    ``np.linalg.matrix_rank``), whose bordered matrix is exactly singular,
    or whose positive solution has residual above ``TOL_FIX`` goes to
    ``degenerate_faces``: the solve does not pin its fixed points, if any,
    to one point.  Every other strictly positive solution is a candidate, scored
    by one ``_residual`` call and ordered as the search orders its
    candidates.  Raises ``ValueError`` above ``MAX_VOLTERRA_N`` states and
    :class:`ClassificationError` for a non-Volterra operator.
    """
    if P.n > MAX_VOLTERRA_N:
        raise ValueError(f"the exact Volterra solve takes at most {MAX_VOLTERRA_N} states, got n={P.n}")
    a = skew_from_cubic(P).a
    n = P.n
    points, degenerate = [], []
    for k in range(1, n + 1):
        faces = np.array(list(itertools.combinations(range(n), k)))
        blocks = a[faces[:, :, None], faces[:, None, :]]
        nullity = k - np.linalg.matrix_rank(blocks)
        degenerate += map(tuple, faces[nullity >= 2].tolist())
        faces, blocks = faces[nullity == 1], blocks[nullity == 1]
        bordered = np.ones((len(faces), k + 1, k + 1))
        bordered[:, :k, :k] = blocks
        bordered[:, k, k] = 0.0
        rhs = np.zeros((len(faces), k + 1, 1))
        rhs[:, k] = 1.0
        x = _solve_stack(bordered, rhs)[:, :k, 0]
        degenerate += map(tuple, faces[np.isnan(x).any(axis=1)].tolist())
        positive = np.all(x > 0.0, axis=1)
        point = np.zeros((int(positive.sum()), n))
        np.put_along_axis(point, faces[positive], x[positive], axis=1)
        points.append(point)
    points = np.concatenate(points)
    candidates = []
    for x, r in zip(points, _residual(P, points).tolist()):
        if r <= TOL_FIX:
            candidates.append(FixedPointCandidate(x, r, bool(_on_simplex(x))))
        else:
            degenerate.append(tuple(np.flatnonzero(x).tolist()))
    candidates.sort(key=lambda cand: tuple(cand.point))
    degenerate = tuple(sorted(degenerate, key=lambda f: (len(f), f)))
    return FixedPointReport(tuple(candidates), "volterra", degenerate_faces=degenerate)


def _settle(step, X: np.ndarray, steps: int) -> np.ndarray:
    """``X`` after up to ``steps`` row-wise ``step`` calls; a row leaves once a step returns it bitwise unchanged."""
    out = X.copy()
    active = np.arange(X.shape[0])
    for _ in range(steps):
        if not active.size:
            break
        Y = step(X)
        out[active] = Y
        moving = ~np.all(Y == X, axis=1)
        active, X = active[moving], Y[moving]
    return out


def _polish(P: CubicMatrix, guesses: np.ndarray) -> np.ndarray:
    """Projected Gauss-Newton on ``[V(x) - x; sum(x) - 1]`` for each row of a ``(k, n)`` stack.

    Each step solves all rows through the pseudo-inverses of their
    analytic Jacobians ``2 sum_i p[i, j, k] x_i - I`` and clips to [0, 1];
    rows leave by :func:`_settle`'s rule (at most 60 steps) and are divided
    by their sums.  Rows are independent, so a row polishes bitwise alike
    in any stack.  A row whose residual or Jacobian turns non-finite is
    kept out of the solve as NaN; it, and a row of zero sum, comes back NaN.
    """
    def gauss_newton(x: np.ndarray) -> np.ndarray:
        residual = np.concatenate([apply_unnormalized(P, x) - x, x.sum(axis=1, keepdims=True) - 1.0], axis=1)
        jac = 2.0 * np.einsum("ijk,bi->bkj", P.p, x) - np.eye(P.n)  # p is exactly symmetric once validated
        jac = np.concatenate([jac, np.ones((x.shape[0], 1, P.n))], axis=1)
        finite = np.isfinite(residual).all(axis=1) & np.isfinite(jac).all(axis=(1, 2))
        image = np.full_like(x, np.nan)
        solve = np.linalg.pinv(jac[finite]) @ residual[finite][:, :, None]
        image[finite] = np.clip(x[finite] - solve[:, :, 0], 0.0, 1.0)
        return image

    out = _settle(gauss_newton, np.clip(guesses, 0.0, 1.0), 60)
    total = out.sum(axis=1, keepdims=True)
    return np.divide(out, total, out=np.full_like(out, np.nan), where=total > 0.0)


def _check_starts(n: int, starts: int) -> None:
    if not 1 <= starts <= MAX_FLOATS // n**2:  # the kernel's (starts, n*n) intermediate
        raise ValueError(f"starts must be from 1 to {MAX_FLOATS // n**2} at n={n}, got {starts}")


def find_fixed_points(P: CubicMatrix, starts: int = 100, seed: int = 0) -> FixedPointReport:
    """Seeded multistart fixed-point search: iterate, then polish.

    All starts iterate as one batch for up to 200 steps, which finds the
    attracting points.  Every start whose endpoint is not a fixed point is
    polished twice, from the start and from the endpoint, as rows of one
    projected Gauss-Newton stack (``_polish``), which catches repelling or
    neutral fixed points.  Both stacks leave by :func:`_settle`'s one rule,
    and each is scored by one batched ``_residual`` call.  Candidates with
    max-norm residual at most ``TOL_FIX`` are clustered within 1e-8 and
    reported with the best residual per cluster.  An empty candidate list
    is a legal outcome.  ``starts * n * n`` may not exceed ``MAX_FLOATS``.
    """
    require_valid(P)
    _check_starts(P.n, starts)
    starts_x = _uniform_simplex(seed, (starts, P.n))

    ends = _settle(functools.partial(apply_normalized, P), starts_x, 200)
    residuals = _residual(P, ends)

    unsettled = ~(residuals <= TOL_FIX)
    guesses = np.stack([starts_x[unsettled], ends[unsettled]], axis=1).reshape(-1, P.n)
    polished = _polish(P, guesses)
    tried = zip(polished, _residual(P, polished).tolist())
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

    candidates = tuple(FixedPointCandidate(x, r, bool(_on_simplex(x))) for x, r in representatives)
    return FixedPointReport(candidates, "search", polishes=len(guesses), polishes_accepted=accepted)


def _fixed_vertices(P: CubicMatrix) -> list[FixedPointCandidate]:
    """The vertices V fixes: V(e_k) is row p[k, k] over its sum, so e_k is fixed iff p[k, k, m] == 0 for m != k."""
    rows = P.p[np.arange(P.n), np.arange(P.n)]  # row k is p[k, k]
    fixed = np.eye(P.n)[~np.any(rows != 0.0, axis=1, where=~np.eye(P.n, dtype=bool))]
    return [FixedPointCandidate(x, r, True) for x, r in zip(fixed, _residual(P, fixed).tolist())]


def fixed_points(P: CubicMatrix, starts: int = 100, seed: int = 0) -> FixedPointReport:
    """The fixed points of ``P`` by the strongest path its class allows, every vertex tested exactly.

    Two-sex: the vertex, proved unique by phi_F.  Volterra up to ``MAX_VOLTERRA_N`` states: the exact solve.
    Else the search, where a candidate within 1e-8 of a fixed vertex gives way to the exact vertex.
    """
    require_valid(P)
    _check_starts(P.n, starts)
    if P.female_sets:
        return FixedPointReport(tuple(_fixed_vertices(P)), "two-sex")
    if P.n <= MAX_VOLTERRA_N and P.classification.is_volterra:
        return fixed_points_volterra(P)
    report = find_fixed_points(P, starts=starts, seed=seed)
    vertices = _fixed_vertices(P)
    found = [c for c in report.candidates if all(np.max(np.abs(c.point - v.point)) > 1e-8 for v in vertices)]
    return replace(report, candidates=tuple(sorted(found + vertices, key=lambda cand: tuple(cand.point))))


#: The most orbit images that :func:`_cesaro_rows` adds in one block, which bounds its memory.
_SUM_ROWS = 4096


def cesaro_running(P: CubicMatrix, x0: SimplexPoint, schedule: list[int]) -> list[tuple[int, np.ndarray]]:
    """Running Cesaro averages at the given increasing point counts, the last at most ``MAX_STEPS``."""
    return list(_cesaro_rows(P, x0, schedule))


def _cesaro_rows(P: CubicMatrix, x0: SimplexPoint, schedule: list[int]):
    """Yield :func:`cesaro_running`'s rows one by one, each as soon as its count is reached.

    Each segment between the scheduled counts is taken from the point's
    orbit (``operators._orbit.take``) in blocks of at most ``_SUM_ROWS``
    images, with no per-step test, and added by ``np.add.accumulate`` down
    the rows from the running sum: the sequential ``acc += x``, bitwise.
    The average is read off the running sum at each count.  The arguments
    are checked when the first row is asked for, before any step.  The last
    count is bounded by ``MAX_STEPS`` here, where both ``cesaro_running``
    and the counts of a replayed CSV pass.
    """
    if not schedule or schedule[0] < 1 or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing and start at >= 1")
    if schedule[-1] > MAX_STEPS:
        raise ValueError(f"the last count must be at most {MAX_STEPS}, got {schedule[-1]}")
    require_valid(P)
    if x0.dim != P.n:
        raise DimensionError(f"start of dim {x0.dim} does not match operator with n={P.n}")
    orbit = _orbit(P, x0.coords)
    acc = np.zeros(P.n)
    acc += x0.coords  # not a copy: from +0.0, a -0.0 start coordinate sums to +0.0
    count = 1
    for target in schedule:
        while count < target:
            rows = orbit.take(min(target - count, _SUM_ROWS))
            rows[0] += acc  # acc + x, then the sum runs down the fresh block in place
            acc = np.add.accumulate(rows, axis=0, out=rows)[-1].copy()
            count += len(rows)
        yield count, acc / count


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
    finds the female set, has run, and ``ValueError`` for a NaN ``tol``.
    Checks, for each recorded step n, with phi = phi_F:

    * ``phi(x(n)) <= (1/4)^(2^n) + 1e-15`` (tail bound),
    * ``phi(x(n+1)) <= phi(x(n))^2 + 1e-15`` (squared contraction),
    * ``x_k(n+1) <= 2 phi(x(n)) + 1e-12`` for every k >= 1,
    * for three states, ``x1(n) = 2b phi(x(n-1))`` with b the mixed
      pair's male-child probability (reported as residuals).
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    traj = trajectory(P, x0, max_steps=n_max)
    if traj.females is None:
        raise ClassificationError("convergence certificate requires a two-sex (F-QSO) operator")
    coords = traj.coords
    phis = traj.lyapunov_values
    bounds = _lyapunov_bounds(len(traj))
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
