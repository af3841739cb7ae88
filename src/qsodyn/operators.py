"""Construction and evaluation of quadratic stochastic operators.

The general quadratic action, builders for the two-sex (F-QSO)
families studied by this package, the skew-symmetric canonical form of
Volterra operators, and a preset zoo.  All builders return full cubic
matrices so that every downstream operation (classification, counting,
dynamics) works through one code path; closed-form evaluators appear
only as cross-check oracles in the tests.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .core import (
    TOL_SUM,
    ClassificationError,
    CubicMatrix,
    DimensionError,
    SimplexPoint,
    _as_readonly,
    classify,
    renormalize,
)

#: Tolerance for skew-matrix invariants (antisymmetry, |a| <= 1); row-sum
#: slack up to TOL_SUM in a cubic matrix propagates doubled into the skew entries.
SKEW_TOL = 1e-11


def apply_unnormalized(P: CubicMatrix, values) -> np.ndarray:
    """Raw quadratic image ``y_k = sum_{i,j} p[i,j,k] x_i x_j``: the package's one kernel.

    ``values`` is a point (n,) or a batch (B, n) of any coordinates, with
    no simplex checks (fixed-point residuals need off-simplex candidates,
    where clamping would falsify the algebra).
    """
    X = np.asarray(values, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != P.n:
        raise DimensionError(f"point of dim {X.shape} does not match operator with n={P.n}")
    return np.einsum("ijk,...i,...j->...k", P.p, X, X)


def apply_normalized(P: CubicMatrix, values) -> np.ndarray:
    """One iteration step: :func:`apply_unnormalized` divided by its coordinate sum.

    No simplex checks; callers that need a simplex point check the result.
    """
    Y = apply_unnormalized(P, values)
    Y /= Y.sum(axis=-1, keepdims=True)
    return Y


def apply(P: CubicMatrix, x: SimplexPoint) -> SimplexPoint:
    """One step of the operator, returned as a validated simplex point.

    ``P`` must pass :func:`qsodyn.core.validate_stochastic`; validity is
    a precondition and is not re-checked per step.  For a valid matrix
    the image of a simplex point is nonnegative and sums to 1 within
    ``TOL_SUM`` before the division.
    """
    return SimplexPoint(apply_normalized(P, x.coords))


@dataclass(frozen=True, eq=False)
class FQsoSpec:
    """Compact description of a two-sex operator: a female set plus the
    free offspring distributions of the mixed pairs.

    ``mixed`` maps each pair ``(i, j)`` with ``i`` female and ``j`` male
    to a probability distribution over the n child states.  Only the
    (female, male) orientation is stored; expansion writes both
    orientations of the symmetric cubic matrix.
    """

    n: int
    females: frozenset[int]
    mixed: Mapping[tuple[int, int], np.ndarray]

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("an F-QSO needs n >= 3 (the female set must be nonempty and proper)")
        all_states = set(range(1, self.n))
        females = frozenset(self.females)
        if not females or not females < all_states:
            raise ValueError(
                f"female set {set(females)} must be a nonempty proper subset of {{1,...,{self.n - 1}}}"
            )
        males = all_states - females
        expected = {(i, j) for i in females for j in males}
        if set(self.mixed) != expected:
            raise ValueError(
                "mixed distributions must be given for exactly the (female, male) pairs; "
                f"missing {expected - set(self.mixed)}, unexpected {set(self.mixed) - expected}"
            )
        frozen = {}
        for key, dist in self.mixed.items():
            arr = np.asarray(dist, dtype=float)
            if arr.shape != (self.n,):
                raise ValueError(f"distribution for pair {key} has shape {arr.shape}, expected ({self.n},)")
            if not (np.all(arr >= 0.0) and abs(float(arr.sum()) - 1.0) <= TOL_SUM):
                raise ValueError(f"distribution for pair {key} is not a probability vector")
            frozen[key] = _as_readonly(arr)
        object.__setattr__(self, "females", females)
        object.__setattr__(self, "mixed", MappingProxyType(frozen))

    @property
    def males(self) -> frozenset[int]:
        return frozenset(range(1, self.n)) - self.females


def build_f_qso(spec: FQsoSpec) -> CubicMatrix:
    """Expand an :class:`FQsoSpec` into its cubic matrix.

    Same-class pairs (both parents female or both male, with state 0
    counting as both) produce the empty-body state 0 with probability
    exactly 1; mixed pairs get their free distribution, written
    symmetrically.
    """
    n = spec.n
    p = np.zeros((n, n, n))
    in_f = np.zeros(n, dtype=bool)
    in_f[list(spec.females)] = True
    f_side = in_f.copy()
    f_side[0] = True
    m_side = ~in_f
    same_class = (f_side[:, None] & f_side[None, :]) | (m_side[:, None] & m_side[None, :])
    p[same_class, 0] = 1.0
    for (i, j), dist in spec.mixed.items():
        p[i, j, :] = dist
        p[j, i, :] = dist
    return CubicMatrix(p)


def build_fqso_m2(a: float, b: float, c: float) -> CubicMatrix:
    """The three-state two-sex operator with one female (2) and one male (1).

    The single mixed pair has offspring distribution (a, b, c) over
    (empty body, male, female); a, b, c must be nonnegative and sum to 1
    within ``TOL_SUM``.  Coordinates map as

        x0' = 1 - 2(1-a) x1 x2,   x1' = 2b x1 x2,   x2' = 2c x1 x2.
    """
    if not (min(a, b, c) >= 0.0 and abs((a + b + c) - 1.0) <= TOL_SUM):
        raise ValueError(f"(a, b, c) = {(a, b, c)} must be nonnegative and sum to 1")
    spec = FQsoSpec(n=3, females=frozenset({2}), mixed={(2, 1): np.array([a, b, c], dtype=float)})
    return build_f_qso(spec)


@dataclass(frozen=True, eq=False)
class SingleMaleCoefficients:
    """Offspring distributions for the family with males M = {1}.

    Row ``r`` of ``table`` (shape (m-1, m+1)) is the child distribution
    of the mixed pair (male 1, female r+2); every row must be
    nonnegative and sum to 1 within ``TOL_SUM``.
    """

    table: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] != arr.shape[0] + 2:
            raise DimensionError(
                f"table shape {arr.shape} invalid: expected (m-1, m+1) with m >= 2"
            )
        if not (np.all(arr >= 0.0) and np.all(np.abs(arr.sum(axis=1) - 1.0) <= TOL_SUM)):
            raise ValueError("every row must be a probability distribution")
        object.__setattr__(self, "table", _as_readonly(arr))

    @property
    def m(self) -> int:
        return self.table.shape[0] + 1

    def row(self, i: int) -> np.ndarray:
        """Distribution of the pair (1, i) for a female i in {2, ..., m}."""
        return self.table[i - 2]


def build_single_male(coeffs: SingleMaleCoefficients) -> CubicMatrix:
    """The two-sex operator on states {0, ..., m} with M = {1}, F = {2, ..., m}.

    Coordinates map as

        x0' = 1 - 2 x1 sum_{i>=2} (1 - t[i,0]) x_i,
        xk' = 2 x1 sum_{i>=2} t[i,k] x_i          (k >= 1),

    where t[i, :] is the offspring distribution of the pair (1, i).
    With m = 2 this is exactly :func:`build_fqso_m2`.
    """
    m = coeffs.m
    spec = FQsoSpec(
        n=m + 1,
        females=frozenset(range(2, m + 1)),
        mixed={(i, 1): coeffs.row(i) for i in range(2, m + 1)},
    )
    return build_f_qso(spec)


@dataclass(frozen=True, eq=False)
class SkewMatrix:
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


def volterra_from_skew(A: SkewMatrix) -> Callable[[SimplexPoint], SimplexPoint]:
    """Evaluation closure of the Volterra canonical form.

    The returned operator computes ``x_k' = x_k (1 + sum_i a[k, i] x_i)``
    directly; it agrees pointwise (within 1e-12) with :func:`apply` on
    the cubic matrix from :func:`cubic_from_skew`.
    """
    a = A.a

    def operator(x: SimplexPoint) -> SimplexPoint:
        if x.dim != A.m:
            raise DimensionError(f"point of dim {x.dim} does not match operator with m={A.m}")
        v = x.coords
        return renormalize(v * (1.0 + a @ v))

    return operator


def cubic_from_skew(A: SkewMatrix) -> CubicMatrix:
    """Cubic matrix of a Volterra operator from its skew form.

    Off-diagonal pairs get ``p[i, k, k] = (1 + a[k, i]) / 2``; diagonal
    pairs keep their type, ``p[k, k, k] = 1``.
    """
    m = A.m
    p = np.zeros((m, m, m))
    half = (1.0 + A.a) / 2.0
    for k in range(m):
        for i in range(m):
            if i == k:
                continue
            p[i, k, k] = half[k, i]
            p[k, i, k] = half[k, i]
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
    if not classify(P).is_volterra:
        raise ClassificationError("skew form requires a Volterra operator")
    m = P.n
    a = np.zeros((m, m))
    for i in range(m):
        for k in range(i + 1, m):
            val = 2.0 * float(P.p[i, k, k]) - 1.0
            val = min(1.0, max(-1.0, val))
            a[k, i] = val
            a[i, k] = -val
    return SkewMatrix(a)


# --- preset zoo -----------------------------------------------------------


def _ganikhodzhaev_v0() -> CubicMatrix:
    # Volterra rock-paper-scissors on 3 states:
    # x0' = x0^2 + 2 x0 x1, x1' = x1^2 + 2 x1 x2, x2' = x2^2 + 2 x0 x2
    p = np.zeros((3, 3, 3))
    p[0, 0, 0] = 1.0
    p[1, 1, 1] = 1.0
    p[2, 2, 2] = 1.0
    p[0, 1, 0] = p[1, 0, 0] = 1.0
    p[1, 2, 1] = p[2, 1, 1] = 1.0
    p[0, 2, 2] = p[2, 0, 2] = 1.0
    return CubicMatrix(p)


def _ganikhodzhaev_v1() -> CubicMatrix:
    # Non-Volterra companion: each pair's child is the third state.
    # x0' = x0^2 + 2 x1 x2, x1' = x1^2 + 2 x0 x2, x2' = x2^2 + 2 x0 x1
    p = np.zeros((3, 3, 3))
    p[0, 0, 0] = 1.0
    p[1, 1, 1] = 1.0
    p[2, 2, 2] = 1.0
    p[1, 2, 0] = p[2, 1, 0] = 1.0
    p[0, 2, 1] = p[2, 0, 1] = 1.0
    p[0, 1, 2] = p[1, 0, 2] = 1.0
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


def _single_male_from_table(table) -> CubicMatrix:
    return build_single_male(SingleMaleCoefficients(np.asarray(table, dtype=float)))


PRESETS: dict[str, tuple[Callable[..., CubicMatrix], str]] = {
    "ganikhodzhaev_v0": (
        lambda: _ganikhodzhaev_v0(),
        "Volterra rock-paper-scissors family endpoint on 3 states (irregular trajectories)",
    ),
    "ganikhodzhaev_v1": (
        lambda: _ganikhodzhaev_v1(),
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
        _single_male_from_table,
        "two-sex operator with males M = {1}; parameter table of shape (m-1, m+1)",
    ),
    "constant_m1": (
        lambda: _constant_m1(),
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
