"""Shared generators and oracles for randomized tests."""

import copy
import dataclasses
import functools
import itertools
import pickle

import numpy as np
import pytest

from qsodyn import CubicMatrix, SimplexPoint, SkewMatrix, apply_normalized, core, dynamics, operators, renormalize


def assert_frozen(owner, read) -> None:
    """Neither the array ``read(owner)`` nor its base can be made writable again, in ``owner`` or in any copy.

    A shallow copy, a deep copy and a pickle round trip of ``owner`` must
    each keep every dataclass field equal and hold that array frozen in the same way.
    """
    for duplicate in (owner, copy.copy(owner), copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))):
        assert type(duplicate) is type(owner)
        for field in dataclasses.fields(owner):
            _assert_same(getattr(duplicate, field.name), getattr(owner, field.name))
        arr = read(duplicate)
        for frozen in (arr, arr.base):
            with pytest.raises(ValueError):
                frozen.flags.writeable = True


def _assert_same(value, expected) -> None:
    """Equal values of the same type: arrays bitwise (so NaN matches NaN)."""
    assert type(value) is type(expected)
    if isinstance(expected, np.ndarray):
        assert (value.dtype, value.shape, value.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    else:
        assert value == expected


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """One point uniform on the simplex (normalized exponentials), the oracle of ``core._uniform_simplex``."""
    draw = rng.standard_exponential(n)
    return draw / draw.sum()


def random_simplex_batch(rng: np.random.Generator, size: int, n: int) -> np.ndarray:
    draws = rng.standard_exponential((size, n))
    return draws / draws.sum(axis=1, keepdims=True)


def random_cubic(rng: np.random.Generator, n: int) -> CubicMatrix:
    """Random valid cubic matrix: independent uniform rows per unordered pair."""
    p = np.zeros((n, n, n))
    for i in range(n):
        for j in range(i, n):
            row = random_simplex(rng, n)
            p[i, j, :] = row
            p[j, i, :] = row
    return CubicMatrix(p)


def random_skew(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random exactly-antisymmetric matrix with entries in [-1, 1]."""
    a = np.zeros((m, m))
    for i in range(m):
        for k in range(i + 1, m):
            value = rng.uniform(-1.0, 1.0)
            a[i, k] = value
            a[k, i] = -value
    return a


def apply(P: CubicMatrix, x: SimplexPoint) -> SimplexPoint:
    """One step of the operator as a validated simplex point."""
    return SimplexPoint(apply_normalized(P, x.coords))


def volterra_from_skew(A: SkewMatrix):
    """Closed-form oracle for :func:`qsodyn.cubic_from_skew`: ``x_k' = x_k (1 + sum_i a[k, i] x_i)``."""

    def operator(x: SimplexPoint) -> SimplexPoint:
        v = x.coords
        return renormalize(v * (1.0 + A.a @ v))

    return operator


def proper_subsets(m: int) -> list[frozenset[int]]:
    """Oracle for :func:`qsodyn.core.proper_subset`: the nonempty proper subsets of {1, ..., m}.

    Listed by size, then lexicographically.
    """
    return [frozenset(combo) for size in range(1, m) for combo in itertools.combinations(range(1, m + 1), size)]


def orbit_of(step_for):
    """A stand-in for ``operators._orbit(P, x)`` built from a step: ``step = step_for(P)``, then step(x), step(step(x)), ...

    It hands the images out one per pull or ``k`` per ``take(k)``, and never closes a lap.
    """

    class Orbit:
        lap = None

        def __init__(self, P: CubicMatrix, x: np.ndarray):
            self.step, self.x = step_for(P), x

        def __iter__(self):
            return self

        def __next__(self) -> np.ndarray:
            self.x = self.step(self.x)
            return self.x

        def take(self, k: int) -> np.ndarray:
            return np.array([next(self) for _ in range(k)]).reshape(k, len(self.x))

    return Orbit


def watch_orbits(monkeypatch, module) -> list:
    """Patch ``module._orbit`` to run real orbits that record what they hand out, and return the list of them.

    Each orbit is appended to the list when it starts.  ``pulled`` grows by
    every image pulled with ``next``, ``blocks`` by every block read with
    ``take``, and ``computed`` counts the images the orbit computed, which
    is fewer than it handed out once it repeats a lap.
    """
    orbits = []

    class Watched(operators._orbit):
        def __init__(self, P: CubicMatrix, x: np.ndarray):
            super().__init__(P, x)
            self.P, self.pulled, self.blocks, self.computed = P, [], [], 0
            orbits.append(self)

        def _computed(self) -> np.ndarray:
            self.computed += 1
            return super()._computed()

        def __next__(self) -> np.ndarray:
            self.pulled.append(super().__next__())
            return self.pulled[-1]

        def take(self, k: int) -> np.ndarray:
            self.blocks.append(super().take(k))
            return self.blocks[-1]

    monkeypatch.setattr(module, "_orbit", Watched)
    return orbits


def trajectory_per_step(P: CubicMatrix, x0: SimplexPoint, max_steps: int, tol=None, reference=None, step=None):
    """Oracle for :func:`qsodyn.trajectory`: every stop rule tested after every step.

    ``step`` replaces :func:`apply_normalized` (for a patched, faulty step).
    Returns the ``Trajectory`` the per-step loop builds.
    """
    step = step or functools.partial(apply_normalized, P)
    ref = reference.coords if reference is not None else None
    watch = ref is not None and tol is not None
    vertex = SimplexPoint.vertex(P.n).coords
    females = P.female_sets.first
    phi = dynamics._phi(P.n, females)
    snap = females is not None and (not watch or float(np.max(np.abs(vertex - ref))) <= tol)
    x = x0.coords
    rows = [x]
    for count in range(max_steps + 1):
        if watch and float(np.max(np.abs(x - ref))) <= tol:
            stop = dynamics.STOP_CONVERGED
            break
        if count == max_steps:
            stop = dynamics.STOP_MAX_STEPS
            break
        if snap and phi(x) < dynamics.PHI_UNDERFLOW:
            if not np.array_equal(x, vertex):
                rows.append(vertex)
            stop = dynamics.STOP_CONVERGED
            break
        x = step(x)
        if not core._on_simplex(x):
            stop = dynamics.STOP_INVALID
            break
        rows.append(x)
    coords = np.array(rows)
    return dynamics.Trajectory(
        coords=coords,
        lyapunov_values=phi(coords) if P.n >= 3 else np.full(len(rows), np.nan),
        females=females,
        dist_to_limit=np.max(np.abs(coords - ref), axis=1) if ref is not None else None,
        stop_reason=stop,
    )


def cesaro_per_step(P: CubicMatrix, x0: SimplexPoint, schedule: list[int]) -> list[tuple[int, np.ndarray]]:
    """Oracle for :func:`qsodyn.cesaro_running`: one step and one schedule lookup per count."""
    acc = np.zeros(P.n)
    x = x0.coords
    wanted = set(schedule)
    rows = []
    for count in range(1, schedule[-1] + 1):
        if count > 1:
            x = apply_normalized(P, x)
        acc += x
        if count in wanted:
            rows.append((count, acc / count))
    return rows
