"""Construction and evaluation of quadratic stochastic operators.

The quadratic kernel (``apply_unnormalized``, ``apply_normalized``),
which steps a point or a stack of points; a point's orbit (``_orbit``),
which steps one point per pull by the same BLAS call; the two-sex
(F-QSO) builder with its families; the skew-symmetric canonical form of
Volterra operators; and a preset zoo.  One private writer, which checks
its rows, writes every two-sex cube.  All builders return full cubic
matrices so that every downstream operation (classification, counting,
dynamics) works through one code path.
"""

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .core import (
    ClassificationError,
    CubicMatrix,
    DimensionError,
    _as_readonly,
    _on_simplex,
    _Rebuilt,
)

#: Tolerance for skew-matrix invariants (antisymmetry, |a| <= 1); row-sum
#: slack up to TOL_SUM in a cubic matrix propagates doubled into the skew entries.
SKEW_TOL = 1e-11


def apply_unnormalized(P: CubicMatrix, values) -> np.ndarray:
    """Raw quadratic image ``y_k = sum_{i,j} p[i,j,k] x_i x_j``: the package's one kernel.

    ``values`` is a point (n,) or a batch (B, n) of any coordinates, with
    no simplex checks (fixed-point residuals need off-simplex candidates,
    where clamping would falsify the algebra).  Two ``np.vecmat`` products, over ``i`` then ``j``, on
    a C-contiguous copy make the same BLAS call per row: a point's image is bitwise its row in any batch.
    """
    X = np.asarray(values, dtype=float, order="C")
    n = P.n
    if X.ndim not in (1, 2) or X.shape[-1] != n:
        raise DimensionError(f"point of dim {X.shape} does not match operator with n={n}")
    return np.vecmat(X, np.vecmat(X, P.p.reshape(n, n * n)).reshape(X.shape[:-1] + (n, n)))


#: Longest bitwise cycle that :func:`_orbit` keeps as a lap of images; an orbit on a longer one keeps
#: stepping.  From (0.2, 0.3, 0.5), the float orbits of ``ganikhodzhaev_lambda`` for lam in [0.2, 0.8]
#: close cycles of period 1 to 13.
_LAP_MAX = 64


def _orbit(P: CubicMatrix, x: np.ndarray) -> Iterator[np.ndarray]:
    """The images V(x), V(V(x)), ... of a C-contiguous float point ``x``, one handed out per pull.

    Each image is computed bitwise as :func:`apply_normalized` would, without its per-call conversion and
    shape check: two ``np.dot`` calls, the same BLAS gemv as one ``np.vecmat`` row, into an ``(n, n)``
    intermediate that the orbit owns, then a division by a 0-d sum (the same bits as a ``(1,)`` one).
    Until the orbit repeats itself, each image is a fresh array.

    An image is a function of its point's bytes, so once an image's bytes repeat, every later image
    repeats too.  Brent's cycle test (R. P. Brent, BIT 20, 1980) finds that with no stored history: each
    image is compared with a checkpoint image, re-taken at steps 1, 2, 4, 8, ...; a match ``p`` steps
    after the checkpoint closes a cycle of period ``p``.  For ``p <= _LAP_MAX`` the orbit computes one
    more lap, hands its ``p`` images out as read-only arrays, and from then on repeats those arrays
    without computing.
    """
    n = P.n
    Q = P.p.reshape(n, n * n)
    square = np.empty((n, n))
    flat = square.reshape(n * n)
    dot, total = np.dot, np.add.reduce

    def image(x: np.ndarray) -> np.ndarray:
        dot(x, Q, out=flat)
        y = dot(x, square)
        y /= total(y)
        return y

    mark, marked, step = None, 0, 0
    while True:
        x = image(x)
        step += 1
        seen = x.tobytes()
        yield x
        if seen == mark and step - marked <= _LAP_MAX:
            break
        if not step & (step - 1):  # a power of two
            mark, marked = seen, step
    lap = []
    for _ in range(step - marked):
        x = image(x)  # computed from the orbit's own array, handed out as a frozen copy
        lap.append(_as_readonly(x))
        yield lap[-1]
    yield from itertools.cycle(lap)


def apply_normalized(P: CubicMatrix, values) -> np.ndarray:
    """One iteration step: :func:`apply_unnormalized` divided by its coordinate sum.

    No simplex checks; callers that need a simplex point check the result.
    """
    Y = apply_unnormalized(P, values)
    Y /= Y.sum(axis=-1, keepdims=True)
    return Y


def _mixed_pairs(n: int, females: frozenset[int]) -> list[tuple[int, int]]:
    """The sorted (female, male) pairs over states 1..n-1, once F is a nonempty proper subset of them."""
    states = set(range(1, n))
    if not females or not females < states:
        raise ValueError(f"female set {set(females)} must be a nonempty proper subset of {{1,...,{n - 1}}}")
    return [(i, j) for i in sorted(females) for j in sorted(states - females)]


def _check_rows(rows: np.ndarray, pairs) -> None:
    """Refuse a (k, n) block unless each row is a probability vector (:func:`~qsodyn.core._on_simplex`)."""
    bad = ~_on_simplex(rows)
    if bad.any():
        raise ValueError(f"mixed-pair rows are not probability vectors: pair {pairs[int(bad.argmax())]}")


def build_f_qso(n: int, females, rows) -> CubicMatrix:
    """The two-sex operator on states 0..n-1 with female set ``females``.

    ``rows`` is the ``(|F|*|M|, n)`` block of offspring distributions of
    the mixed pairs, in the sorted (female, male) order of
    :func:`_mixed_pairs`: row ``r`` is written on both orientations of
    pair ``r``.  Every other pair, both parents female or both male
    (state 0 counting as both), is the empty body.
    """
    return _f_qso_cube(n, _mixed_pairs(n, frozenset(females)), rows)


def _f_qso_cube(n: int, pairs, rows) -> CubicMatrix:
    """The one two-sex writer: check the rows, write the empty body everywhere, then ``rows[r]`` on ``pairs[r]``."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape != (len(pairs), n):
        raise ValueError(f"mixed distributions need {n} entries each; they stack to {rows.shape}")
    _check_rows(rows, pairs)
    i, j = np.array(pairs).T
    p = np.zeros((n, n, n))
    p[:, :, 0] = 1.0
    p[i, j] = p[j, i] = rows
    return CubicMatrix(p)


def build_fqso_m2(a: float, b: float, c: float) -> CubicMatrix:
    """The three-state two-sex operator with one female (2) and one male (1).

    The single mixed pair has offspring distribution (a, b, c) over
    (empty body, male, female); a, b, c must be nonnegative and sum to 1
    within ``TOL_SUM``.  Coordinates map as

        x0' = 1 - 2(1-a) x1 x2,   x1' = 2b x1 x2,   x2' = 2c x1 x2.
    """
    # Unary plus refuses a non-number with TypeError; the builder's float conversion would parse a string.
    return build_f_qso(3, {2}, [[+a, +b, +c]])


def build_single_male(table) -> CubicMatrix:
    """The two-sex operator on states {0, ..., m} with M = {1}, F = {2, ..., m}.

    Row ``i - 2`` of ``table`` (shape (m-1, m+1), m >= 2) is the
    offspring distribution t[i, :] of the mixed pair (1, i); coordinates
    map as

        x0' = 1 - 2 x1 sum_{i>=2} (1 - t[i,0]) x_i,
        xk' = 2 x1 sum_{i>=2} t[i,k] x_i          (k >= 1).

    With m = 2 this is exactly :func:`build_fqso_m2`.
    """
    rows = np.asarray(table, dtype=float)
    if rows.ndim != 2 or not 1 <= rows.shape[0] == rows.shape[1] - 2:
        raise DimensionError(f"table shape {rows.shape} invalid: expected (m-1, m+1) with m >= 2")
    m = rows.shape[0] + 1
    return build_f_qso(m + 1, range(2, m + 1), rows)  # the pairs (i, 1) in sorted order are the table's rows


@dataclass(frozen=True, eq=False)
class SkewMatrix(_Rebuilt):
    """Canonical skew-symmetric form of a Volterra operator.

    ``a[k, i] = 2 p[i, k, k] - 1`` off the diagonal (first index is the
    surviving child type), zero on the diagonal.  Antisymmetry and the
    bound |a| <= 1 are required within ``SKEW_TOL``; the diagonal must
    be exactly zero.
    """

    a: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.a, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square array, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DimensionError("need at least 2 states")
        if np.any(np.diagonal(arr) != 0.0):
            raise ValueError("diagonal entries must be exactly 0")
        if not np.max(np.abs(arr + arr.T)) <= SKEW_TOL:
            raise ValueError("matrix is not antisymmetric")
        if not np.max(np.abs(arr)) <= 1.0 + SKEW_TOL:
            raise ValueError("entries must satisfy |a| <= 1")
        object.__setattr__(self, "a", _as_readonly(arr))

    @property
    def m(self) -> int:
        return self.a.shape[0]


def cubic_from_skew(A: SkewMatrix) -> CubicMatrix:
    """Cubic matrix of a Volterra operator from its skew form.

    Off-diagonal pairs get ``p[i, k, k] = (1 + a[k, i]) / 2``; diagonal
    pairs keep their type, ``p[k, k, k] = 1``.
    """
    m = A.m
    p = np.zeros((m, m, m))
    half = (1.0 + A.a) / 2.0
    k = np.arange(m)
    p[:, k, k] = half.T
    p[k, :, k] = half
    p[k, k, k] = 1.0
    return CubicMatrix(p)


def skew_from_cubic(P: CubicMatrix) -> SkewMatrix:
    """Extract the skew form ``a[k, i] = 2 p[i, k, k] - 1`` of a Volterra matrix.

    Raises :class:`ClassificationError` for non-Volterra input.  The
    upper orientation (k > i) is taken as the generator and mirrored
    exactly, so the output is antisymmetric to the bit even when row
    sums carry slack up to ``TOL_SUM``; entries are clipped into
    [-1, 1], which moves them by at most that slack.
    """
    if not P.classification.is_volterra:
        raise ClassificationError("skew form requires a Volterra operator")
    # Entry [i, k] is p[i, k, k]; its upper triangle (k > i) is a[k, i].
    upper = np.triu(np.clip(2.0 * np.diagonal(P.p, axis1=1, axis2=2) - 1.0, -1.0, 1.0), 1)
    return SkewMatrix(upper.T - upper)


# --- preset zoo -----------------------------------------------------------


def _ganikhodzhaev_v0() -> CubicMatrix:
    # Volterra rock-paper-scissors on 3 states, the cyclic tournament 0 > 1 > 2 > 0:
    # x0' = x0^2 + 2 x0 x1, x1' = x1^2 + 2 x1 x2, x2' = x2^2 + 2 x0 x2
    return cubic_from_skew(SkewMatrix([[0, 1, -1], [-1, 0, 1], [1, -1, 0]]))


def _ganikhodzhaev_v1() -> CubicMatrix:
    # Non-Volterra companion: a pair of equal types keeps its type, any other pair's child is the third state.
    # x0' = x0^2 + 2 x1 x2, x1' = x1^2 + 2 x0 x2, x2' = x2^2 + 2 x0 x1
    i, j = np.indices((3, 3))
    p = np.zeros((3, 3, 3))
    p[i, j, np.where(i == j, i, 3 - i - j)] = 1.0
    return CubicMatrix(p)


def _ganikhodzhaev_lambda(lam: float) -> CubicMatrix:
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"blend parameter {lam!r} must lie in [0, 1]")
    p0 = _ganikhodzhaev_v0().p
    p1 = _ganikhodzhaev_v1().p
    return CubicMatrix((1.0 - lam) * p0 + lam * p1)


def _constant_m1() -> CubicMatrix:
    # Two states, every pair produces state 0: the constant map x -> (1, 0).
    p = np.zeros((2, 2, 2))
    p[:, :, 0] = 1.0
    return CubicMatrix(p)


PRESETS: dict[str, tuple[Callable[..., CubicMatrix], str]] = {
    "ganikhodzhaev_v0": (
        _ganikhodzhaev_v0,
        "Volterra rock-paper-scissors family endpoint on 3 states (irregular trajectories)",
    ),
    "ganikhodzhaev_v1": (
        _ganikhodzhaev_v1,
        "non-Volterra endpoint of the same family: each pair's child is the third state",
    ),
    "ganikhodzhaev_lambda": (
        _ganikhodzhaev_lambda,
        "convex blend of the two endpoints; parameter lam in [0, 1]",
    ),
    "fqso_m2": (
        build_fqso_m2,
        "two-sex operator on 3 states, mixed-pair offspring distribution (a, b, c)",
    ),
    "single_male": (
        build_single_male,
        "two-sex operator with males M = {1}; parameter table of shape (m-1, m+1)",
    ),
    "constant_m1": (
        _constant_m1,
        "degenerate 2-state operator: every pair produces state 0, so V(x) = (1, 0)",
    ),
}


def preset(name: str, **params) -> CubicMatrix:
    """Look up a named operator from the preset zoo.

    Parameters are forwarded to the preset's builder, e.g.
    ``preset("ganikhodzhaev_lambda", lam=0.5)`` or
    ``preset("fqso_m2", a=0.0, b=0.5, c=0.5)``.
    """
    try:
        builder, _ = PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}") from None
    return builder(**params)
