"""Core types for quadratic stochastic operators (QSOs) on the simplex.

A QSO maps the probability simplex to itself through a cubic array of
heredity coefficients ``p[i, j, k]``: the probability that parents of
types ``i`` and ``j`` produce a child of type ``k``.  This module holds
the validated containers (:class:`SimplexPoint`, :class:`CubicMatrix`),
stochasticity checking, and detection of the classical operator classes
(Volterra, strictly non-Volterra, and two-sex partition operators,
called F-QSOs throughout the package).

States are 0-based everywhere.  For F-QSOs, state 0 is the absorbing
"empty body" element; the female set F and male set M partition the
remaining states {1, ..., n-1}.
"""

import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

#: Tolerance for sums that must equal 1 (simplex coordinates, coefficient rows).
TOL_SUM = 1e-12

#: Tolerance for fixed-point residuals ``max_k |V(x)_k - x_k|``.
TOL_FIX = 1e-10

#: Most states an operator document or a scan may declare.
MAX_N = 256

#: Most floats (128 MiB) in one array that a call builds from its arguments:
#: a largest dense cube, the fixed-point search's batch product, a trajectory.
MAX_FLOATS = MAX_N**3

#: Most steps a call iterates without storing them (the ergodic averages' last
#: count, a scan's trials times iterations): about 5.5 minutes for a
#: three-state operator at 5 us per step (2-core Xeon).
MAX_STEPS = 2**26


class QsoError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QsoError):
    """Structural problem: array extents inconsistent or dimension too small."""


class InvalidPointError(QsoError):
    """A coordinate vector cannot be interpreted as a simplex point."""


class StochasticityError(QsoError):
    """An operation requiring a stochastic matrix received an invalid one."""


class ClassificationError(QsoError):
    """An operation requiring a specific operator class received another."""


def _as_readonly(arr) -> np.ndarray:
    # A view of an immutable bytes copy: numpy refuses to make it, or its base,
    # writable again.  C order keeps the kernel's (n, n*n) reshape of a cube a view.
    arr = np.ascontiguousarray(arr, dtype=float)
    return np.frombuffer(arr.tobytes(), dtype=float).reshape(arr.shape)


def _on_simplex(x: np.ndarray):
    """The package's one simplex test: is each row (last axis) >= 0, with a sum within ``TOL_SUM`` of 1?

    A NaN fails the first comparison, an infinity the second.  Positional axes keep a trajectory step's test cheap.
    """
    return (np.minimum.reduce(x, -1) >= 0.0) & (abs(np.add.reduce(x, -1) - 1.0) <= TOL_SUM)


def _uniform_simplex(seed, shape) -> np.ndarray:
    """Points uniform on the simplex along the last axis: exponential draws from ``seed``, normalised in place."""
    draw = np.random.default_rng(seed).standard_exponential(shape)
    draw /= draw.sum(axis=-1, keepdims=True)
    return draw


class _Rebuilt:
    """Base of frozen dataclasses whose copies and unpickled values run the constructor again: frozen, nothing cached."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _check_state_count(n) -> None:
    """Refuse a state count that is no exact ``int`` (``ValueError``), or one below 2 (``DimensionError``)."""
    if type(n) is not int:
        raise ValueError(f"state count must be an int, got {n!r}")
    if n < 2:
        raise DimensionError("simplex point needs at least 2 coordinates")


@dataclass(frozen=True, eq=False)
class SimplexPoint(_Rebuilt):
    """A probability vector: nonnegative coordinates summing to 1.

    Construction validates the invariants exactly: every coordinate must
    be >= 0 and the sum must lie within ``TOL_SUM`` of 1 (:func:`_on_simplex`).
    Use :func:`renormalize` for raw data that needs clamping or rescaling.
    """

    coords: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.coords, dtype=float)
        if arr.ndim != 1:
            raise DimensionError(f"simplex point must be 1-d, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DimensionError("simplex point needs at least 2 coordinates")
        if not _on_simplex(arr):
            raise InvalidPointError(f"not a simplex point (coordinates >= 0 summing to 1): {arr!r}")
        object.__setattr__(self, "coords", _as_readonly(arr))

    @property
    def dim(self) -> int:
        return self.coords.shape[0]

    @staticmethod
    def uniform(n: int) -> "SimplexPoint":
        """The barycenter (1/n, ..., 1/n) over ``n`` states, an exact ``int`` (else ``ValueError``)."""
        _check_state_count(n)
        return SimplexPoint(np.full(n, 1.0 / n))

    @staticmethod
    def vertex(n: int, k: int = 0) -> "SimplexPoint":
        """The vertex with all mass on state ``k``; ``n`` and ``k`` are exact ``int`` s (else ``ValueError``), k < n."""
        _check_state_count(n)
        if type(k) is not int or not 0 <= k < n:
            raise ValueError(f"vertex state must be an int from 0 to {n - 1}, got {k!r}")
        coords = np.zeros(n)
        coords[k] = 1.0
        return SimplexPoint(coords)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimplexPoint({np.array2string(self.coords, separator=', ')})"


def renormalize(values) -> SimplexPoint:
    """Clamp tolerable negatives to 0, rescale, and return a SimplexPoint.

    Coordinates below ``-TOL_SUM`` or a nonpositive total raise
    :class:`InvalidPointError`; anything else is projected exactly onto
    the simplex by clamping and dividing by the sum.
    """
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1 or arr.shape[0] < 2:
        raise DimensionError(f"expected a 1-d vector of length >= 2, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidPointError("coordinates must be finite")
    if np.any(arr < -TOL_SUM):
        raise InvalidPointError(f"coordinate below -{TOL_SUM:g} in {arr!r}")
    np.clip(arr, 0.0, None, out=arr)
    total = float(arr.sum())
    if total <= 0.0:
        raise InvalidPointError("coordinates sum to a nonpositive value")
    return SimplexPoint(arr / total)


@dataclass(frozen=True, eq=False)
class CubicMatrix(_Rebuilt):
    """Heredity coefficients ``p[i, j, k]`` of a quadratic operator.

    Construction checks structure only (a cube of finite floats).  The
    stochasticity invariants - symmetry in (i, j), nonnegativity, unit
    row sums over k - are checked by :func:`validate_stochastic`, so that
    defective data can be loaded and reported on.
    """

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 3 or len(set(arr.shape)) != 1:
            raise DimensionError(f"expected a cubic array, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise DimensionError("need at least 2 states")
        if not np.all(np.isfinite(arr)):
            raise InvalidPointError("coefficients must be finite")
        object.__setattr__(self, "p", _as_readonly(arr))

    @property
    def n(self) -> int:
        return self.p.shape[0]

    @functools.cached_property
    def stochasticity(self) -> "StochasticityReport":
        """The :func:`validate_stochastic` report, computed once: ``p`` cannot be made writable."""
        return validate_stochastic(self)

    @functools.cached_property
    def classification(self) -> "ClassReport":
        """The :func:`classify` report, computed once; an invalid cube raises on every read, caching nothing."""
        return classify(self)

    @functools.cached_property
    def female_sets(self) -> "FemaleSets":
        """The female sets whose two-sex pattern ``p`` matches, read off the pair graph once.

        Reads the pattern only, with no stochasticity check, so it is exact
        on any finite cube.  A same-class pair (both parents in F+{0}, or
        both in M+{0}) must be the point mass on state 0 in both
        orientations, so the graph takes the symmetric closure of that
        pattern: every (0, i), (i, 0) and diagonal pair must be empty-body,
        and two states whose pair is not must lie on opposite sides, which
        a graph search 2-colours in O(n^2).  Comparisons with 0 and 1 are
        exact: membership is structural.
        """
        p = self.p
        empty = (p[:, :, 0] == 1.0) & np.all(p[:, :, 1:] == 0.0, axis=2)
        empty &= empty.T
        m = self.n - 1
        if not (empty[0].all() and empty.diagonal().all()):
            return FemaleSets(m, None)
        neighbours = [[] for _ in range(m)]
        for v, w in zip(*(a.tolist() for a in np.nonzero(~empty[1:, 1:]))):
            neighbours[v].append(w)
        side = [-1] * m
        components = []
        for root in range(m):
            if side[root] >= 0:
                continue
            side[root] = 0
            members, queue = [root], [root]
            while queue:
                v = queue.pop()
                for w in neighbours[v]:
                    if side[w] < 0:
                        side[w] = 1 - side[v]
                        members.append(w)
                        queue.append(w)
                    elif side[w] == side[v]:
                        return FemaleSets(m, None)  # an odd cycle
            components.append(tuple(frozenset(v + 1 for v in members if side[v] == s) for s in (0, 1)))
        return FemaleSets(m, tuple(components))


class StochasticityViolation(NamedTuple):
    kind: str  # "asymmetry" | "negative" | "row_sum"
    i: int
    j: int
    k: int | None  # None for row-sum violations, which concern the pair (i, j)
    residual: float


@dataclass(frozen=True, eq=False)
class StochasticityReport:
    ok: bool
    violations: tuple[StochasticityViolation, ...]


def validate_stochastic(P: CubicMatrix) -> StochasticityReport:
    """Check symmetry, nonnegativity, and unit row sums of a cubic matrix.

    Returns a report with ``ok`` true iff all three invariants hold
    (symmetry exact, sums within ``TOL_SUM``); every violation is listed
    with its residual magnitude.  Symmetry and negativity witnesses are
    reported once per unordered pair.
    """
    p = P.p
    violations: list[StochasticityViolation] = []

    asym = p != np.transpose(p, (1, 0, 2))
    for i, j, k in zip(*np.nonzero(asym)):
        if i < j:
            residual = abs(float(p[i, j, k] - p[j, i, k]))
            violations.append(StochasticityViolation("asymmetry", int(i), int(j), int(k), residual))

    for i, j, k in zip(*np.nonzero(p < 0.0)):
        if i <= j:
            violations.append(
                StochasticityViolation("negative", int(i), int(j), int(k), abs(float(p[i, j, k])))
            )

    row_sums = p.sum(axis=2)
    bad = np.abs(row_sums - 1.0) > TOL_SUM
    for i, j in zip(*np.nonzero(bad)):
        if i <= j:
            violations.append(
                StochasticityViolation("row_sum", int(i), int(j), None, abs(float(row_sums[i, j] - 1.0)))
            )

    return StochasticityReport(ok=not violations, violations=tuple(violations))


def require_valid(P: CubicMatrix) -> None:
    """Raise :class:`StochasticityError` unless ``P`` passes validation."""
    report = P.stochasticity
    if not report.ok:
        first = report.violations[0]
        raise StochasticityError(
            f"matrix fails stochasticity: {len(report.violations)} violation(s), "
            f"first is {first.kind} at ({first.i},{first.j},{first.k})"
        )


def proper_subset(m: int, index: int) -> frozenset[int]:
    """Entry ``index`` of {1, ..., m}'s nonempty proper subsets (by size, then lexicographic), without listing them."""
    if not 0 <= index < 2**m - 2:
        raise ValueError(f"subset index {index} outside 0..2^{m}-3")
    size = 1
    while index >= math.comb(m, size):
        index -= math.comb(m, size)
        size += 1
    chosen = []
    for state in range(1, m + 1):
        if len(chosen) == size:
            break
        # Sets of this size that take ``state`` next, after the ones already chosen.
        taking = math.comb(m - state, size - len(chosen) - 1)
        if index < taking:
            chosen.append(state)
        else:
            index -= taking
    return frozenset(chosen)


@dataclass(frozen=True)
class FemaleSets:
    """The valid female sets of an operator, read off its pair graph.

    Built by :attr:`CubicMatrix.female_sets`, the package's one female-set
    test.  The sets are the proper 2-colourings of the "non-empty-body"
    graph on the states {1, ..., m}: one side of a colouring is F, the other M.
    ``components`` holds, for each connected component ordered by its
    smallest state, the two sides of its colouring, the side with that
    smallest state first (an isolated state has an empty second side).
    It is ``None`` when no female set exists.

    A female set takes one side of every component and must be nonempty
    and proper; only a graph without edges has choices that are not (all
    sides empty, or all full).  So there are 2^c sets for c components,
    2^c - 2 without edges.  ``total`` (an unbounded integer), truth,
    ``in`` and ``first`` need no listing; iteration lists the sets in
    (size, lexicographic) order.
    """

    m: int
    components: tuple[tuple[frozenset[int], frozenset[int]], ...] | None

    @property
    def total(self) -> int:
        if self.components is None:
            return 0
        return 2 ** len(self.components) - (0 if any(b for _, b in self.components) else 2)

    def __len__(self) -> int:
        # For callers that count with len(); bounded by sys.maxsize, unlike total.
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0

    @property
    def first(self) -> frozenset[int] | None:
        """The first set in (size, lexicographic) order, ``None`` when there is none."""
        if not self:
            return None
        # Fewest states first; on a tie, the side holding the component's
        # smallest state, which wins the lexicographic comparison.  Without
        # edges every smaller side is empty, and the first set is {1}.
        smaller = frozenset().union(*(min(sides, key=len) for sides in self.components))
        return smaller or frozenset({1})

    def __iter__(self):
        if not self:
            return iter(())
        colourings = (frozenset().union(*sides) for sides in itertools.product(*self.components))
        proper = (s for s in colourings if 0 < len(s) < self.m)
        return iter(sorted(proper, key=lambda s: (len(s), sorted(s))))

    def __contains__(self, females) -> bool:
        if not self or not isinstance(females, (set, frozenset)):
            return False
        if not (females <= set(range(1, self.m + 1)) and 0 < len(females) < self.m):
            return False
        return all((females & (a | b)) in (a, b) for a, b in self.components)


@dataclass(frozen=True, eq=False)
class ClassReport:
    """Operator-class membership of a cubic matrix.

    ``f_qso_sets`` holds every female set F in {1, ..., n-1} (nonempty,
    proper) whose two-sex pattern the matrix matches, read off the pair
    graph rather than tested one subset at a time (see
    :class:`FemaleSets` and :func:`classify`).  F and its complement
    describe the same partition, so they appear in pairs.
    """

    is_volterra: bool
    is_strictly_non_volterra: bool
    f_qso_sets: FemaleSets


def classify(P: CubicMatrix) -> ClassReport:
    """Detect Volterra, strictly non-Volterra, and F-QSO membership.

    Requires a validated matrix (raises :class:`StochasticityError`
    otherwise).  Volterra means every child type lies in its parent
    pair; strictly non-Volterra means it never does; both checks use
    exact comparison with 0.

    ``f_qso_sets`` is ``P.female_sets``; a validated matrix is symmetric,
    so the pair graph's symmetric closure changes nothing here.
    """
    require_valid(P)
    idx = np.arange(P.n)
    child_in_pair = (idx[None, None, :] == idx[:, None, None]) | (idx[None, None, :] == idx[None, :, None])
    nonzero = P.p != 0.0
    return ClassReport(
        is_volterra=not (nonzero & ~child_in_pair).any(),
        is_strictly_non_volterra=not (nonzero & child_in_pair).any(),
        f_qso_sets=P.female_sets,
    )
