"""Exact integer lattice algebra.

Smith and Hermite normal forms, integer kernels, cokernel quotients, and
the invariant-factor presentation of finite abelian groups. Entries are
arbitrary-precision Python ints stored in ``dtype=object`` numpy arrays;
nothing in this module ever rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NotFiniteIndex, NotSublattice

__all__ = [
    "imat",
    "identity",
    "det",
    "SmithDecomposition",
    "smith_normal_form",
    "hermite_normal_form",
    "integer_kernel_basis",
    "FiniteAbelianGroup",
    "cokernel_structure",
]


def imat(rows, cols=None) -> np.ndarray:
    """Build an exact integer matrix (2-d object array of Python ints).

    ``cols`` disambiguates the width of a matrix with zero rows.
    """
    rows = list(rows)
    if not rows:
        return np.empty((0, cols or 0), dtype=object)
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=object)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError("ragged matrix")
        for j, x in enumerate(row):
            if type(x) is not int:  # the common case skips the slow ABC checks
                if isinstance(x, Fraction):
                    if x.denominator != 1:
                        raise NotSublattice(f"non-integer entry {x} at ({i},{j})")
                    x = x.numerator
                if not isinstance(x, (int, np.integer)):
                    raise NotSublattice(f"non-integer entry {x!r} at ({i},{j})")
                x = int(x)
            out[i, j] = x
    return out


def identity(n: int) -> np.ndarray:
    return imat([[int(i == j) for j in range(n)] for i in range(n)], cols=n)


def det(M: np.ndarray) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    m, n = M.shape
    if m != n:
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    A = [[int(x) for x in row] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k] != 0), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


@dataclass(frozen=True)
class SmithDecomposition:
    """U M V = D with U, V unimodular and D a nonnegative divisibility chain."""

    U: np.ndarray
    D: np.ndarray
    V: np.ndarray

    @property
    def diagonal(self) -> tuple[int, ...]:
        m, n = self.D.shape
        return tuple(int(self.D[i, i]) for i in range(min(m, n)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _find_pivot(A, t, m, n):
    best = None
    for i in range(t, m):
        for j in range(t, n):
            v = A[i][j]
            if v != 0:
                key = (abs(v), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    return None if best is None else (best[1], best[2])


def smith_normal_form(M: np.ndarray) -> SmithDecomposition:
    """Smith normal form with tracked unimodular transforms.

    Pivot choice is the smallest nonzero absolute value with a
    (row, column) tie-break, so the output is deterministic.
    """
    M = imat(M, cols=M.shape[1]) if isinstance(M, np.ndarray) else imat(M)
    m, n = M.shape
    A = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(a, b):
        A[a], A[b] = A[b], A[a]
        U[a], U[b] = U[b], U[a]

    def swap_cols(a, b):
        for row in A:
            row[a], row[b] = row[b], row[a]
        for row in V:
            row[a], row[b] = row[b], row[a]

    def addmul_row(dst, src, q):
        A[dst] = [x - q * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x - q * y for x, y in zip(U[dst], U[src])]

    def addmul_col(dst, src, q):
        for row in A:
            row[dst] -= q * row[src]
        for row in V:
            row[dst] -= q * row[src]

    t = 0
    while True:
        piv = _find_pivot(A, t, m, n)
        if piv is None:
            break
        if piv[0] != t:
            swap_rows(t, piv[0])
        if piv[1] != t:
            swap_cols(t, piv[1])
        while True:
            if A[t][t] < 0:
                A[t] = [-x for x in A[t]]
                U[t] = [-x for x in U[t]]
            p = A[t][t]
            dirty = False
            for r in range(t + 1, m):
                if A[r][t]:
                    q = A[r][t] // p
                    if q:
                        addmul_row(r, t, q)
                    if A[r][t]:  # remainder strictly smaller than the pivot
                        swap_rows(t, r)
                        dirty = True
                        break
            if dirty:
                continue
            for c in range(t + 1, n):
                if A[t][c]:
                    q = A[t][c] // p
                    if q:
                        addmul_col(c, t, q)
                    if A[t][c]:
                        swap_cols(t, c)
                        dirty = True
                        break
            if dirty:
                continue
            bad = None
            for r in range(t + 1, m):
                for c in range(t + 1, n):
                    if A[r][c] % p:
                        bad = r
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # fold the offending row into the pivot row; the next sweep
            # replaces the pivot by a proper divisor, so this terminates
            A[t] = [x + y for x, y in zip(A[t], A[bad])]
            U[t] = [x + y for x, y in zip(U[t], U[bad])]
        t += 1

    D = np.empty((m, n), dtype=object)
    for i in range(m):
        D[i, :] = A[i]
    return SmithDecomposition(U=imat(U, cols=m), D=D, V=imat(V, cols=n))


def hermite_normal_form(M: np.ndarray) -> np.ndarray:
    """Row-style Hermite normal form with positive pivots.

    Zero rows are dropped, so the result is a canonical basis of the row
    lattice of M.
    """
    m, n = M.shape
    A = [[int(x) for x in row] for row in M]
    r = 0
    for c in range(n):
        while True:
            nz = [i for i in range(r, m) if A[i][c]]
            if not nz:
                break
            i = min(nz, key=lambda i: (abs(A[i][c]), i))
            if i != r:
                A[r], A[i] = A[i], A[r]
            if A[r][c] < 0:
                A[r] = [-x for x in A[r]]
            p = A[r][c]
            done = True
            for i in range(r + 1, m):
                if A[i][c]:
                    q = A[i][c] // p
                    A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                    if A[i][c]:
                        done = False
            if done:
                for i in range(r):
                    q = A[i][c] // p
                    if q:
                        A[i] = [x - q * y for x, y in zip(A[i], A[r])]
                r += 1
                break
        if r == m:
            break
    rows = [row for row in A[:r]]
    return imat(rows, cols=n)


def integer_kernel_basis(M: np.ndarray) -> np.ndarray:
    """Basis of the saturated integer kernel {v : M v = 0}, rows in HNF."""
    m, n = M.shape
    snf = smith_normal_form(M)
    r = snf.rank
    if r == n:
        return np.empty((0, n), dtype=object)
    basis = imat([list(snf.V[:, j]) for j in range(r, n)], cols=n)
    return hermite_normal_form(basis)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor presentation: Z/d1 x ... x Z/dk with d1 | d2 | ..."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain {fs}")

    @classmethod
    def trivial(cls) -> "FiniteAbelianGroup":
        return cls(())

    @classmethod
    def from_diagonal(cls, diag) -> "FiniteAbelianGroup":
        return cls(tuple(int(d) for d in diag if d > 1))

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def cokernel_structure(M: np.ndarray) -> FiniteAbelianGroup:
    """Structure of Z^cols / (row lattice of M); requires finite index."""
    n = M.shape[1]
    snf = smith_normal_form(M)
    if snf.rank < n:
        raise NotFiniteIndex(
            f"row lattice has rank {snf.rank} < {n}, quotient is infinite"
        )
    return FiniteAbelianGroup.from_diagonal(snf.diagonal)
