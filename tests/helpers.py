"""Shared generators for randomized tests."""

import copy
import pickle

import numpy as np
import pytest

from qsodyn import CubicMatrix


def assert_frozen(owner, read) -> None:
    """Neither the array ``read(owner)`` nor its base can be made writable again, in ``owner`` or in any copy.

    A shallow copy, a deep copy and a pickle round trip of ``owner`` must
    each hold an equal array that is frozen in the same way.
    """
    for duplicate in (owner, copy.copy(owner), copy.deepcopy(owner), pickle.loads(pickle.dumps(owner))):
        arr = read(duplicate)
        assert np.array_equal(arr, read(owner))
        for frozen in (arr, arr.base):
            with pytest.raises(ValueError):
                frozen.flags.writeable = True


def random_simplex(rng: np.random.Generator, n: int) -> np.ndarray:
    """One point uniform on the simplex (normalized exponentials)."""
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
