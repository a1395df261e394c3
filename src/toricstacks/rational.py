"""Exact linear algebra and feasibility over the rationals.

Every elimination runs fraction-free on plain Python ints (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968): each row is scaled to integers by the lcm
of its denominators and then reduced by exact integer divisions, so no
Fraction is built until an answer is read off. Inputs are 2-d object arrays
or lists of rows whose entries are ints or :class:`fractions.Fraction`;
`rref`, `solve`, `nullspace` and `inv` answer in object arrays of
Fractions. Feasibility of systems of equalities and (possibly strict)
inequalities is decided by Fourier-Motzkin elimination on integer rows,
after the equalities have been eliminated once.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

__all__ = [
    "frac",
    "qmat",
    "qvec",
    "rref",
    "rank",
    "solve",
    "solve_matrix",
    "nullspace",
    "inv",
    "abs_det",
    "feasible",
]


def frac(x) -> Fraction:
    """Coerce ints, Fractions, and 'p/q' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def qmat(rows) -> np.ndarray:
    """Build a 2-d object array of Fractions."""
    rows = [[frac(x) for x in row] for row in rows]
    if not rows:
        return np.empty((0, 0), dtype=object)
    ncols = len(rows[0])
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged matrix")
    out = np.empty((len(rows), ncols), dtype=object)
    for i, r in enumerate(rows):
        out[i, :] = r
    return out


def qvec(entries) -> np.ndarray:
    out = np.empty(len(entries), dtype=object)
    for i, x in enumerate(entries):
        out[i] = frac(x)
    return out


def _rows(A) -> tuple[list, int]:
    """The rows of a 2-d object array or of a list of rows, and the width."""
    if isinstance(A, np.ndarray):
        return A.tolist(), A.shape[1]
    rows = [list(r) for r in A]
    return rows, len(rows[0]) if rows else 0


def _int_row(row) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if all(type(x) is int for x in row):
        return row, 1
    row = [x if type(x) in (int, Fraction) else frac(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _eliminate(rows, ncols: int) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination of a rational matrix.

    Returns (R, pivots, d): R holds one integer row per pivot, with
    R[i][pivots[i]] == d, and R / d is the reduced row echelon form without
    its zero rows. Every entry of R is a minor of the row-scaled input, so
    each division below is exact.
    """
    M = [_int_row(r)[0] for r in rows]
    m = len(M)
    pivots = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if M[i][c]), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        top = M[r]
        piv = top[c]
        for i in range(m):
            f = M[i][c]
            if i == r:
                continue
            if f:
                M[i] = [(piv * x - f * y) // prev for x, y in zip(M[i], top)]
            elif piv != prev:
                M[i] = [piv * x // prev for x in M[i]]
        pivots.append(c)
        prev = piv
        r += 1
    return M[:r], pivots, prev


def rref(A):
    """Reduced row echelon form; returns (R, pivot_columns)."""
    rows, ncols = _rows(A)
    R, pivots, d = _eliminate(rows, ncols)
    out = np.empty((len(rows), ncols), dtype=object)
    out[:] = Fraction(0)
    for i, row in enumerate(R):
        out[i, :] = [Fraction(x, d) for x in row]
    return out, pivots


def rank(A) -> int:
    rows, ncols = _rows(A)
    return len(_eliminate(rows, ncols)[1])


def _read_off(R, pivots, d, n: int, k: int):
    """X with A X = B from the elimination of [A | B] (A has n columns,
    B has k), free variables set to 0; None when a column is inconsistent."""
    if pivots and pivots[-1] >= n:
        return None
    X = np.empty((n, k), dtype=object)
    X[:] = Fraction(0)
    for i, c in enumerate(pivots):
        X[c, :] = [Fraction(x, d) for x in R[i][n:]]
    return X


def solve(A, b):
    """One exact solution of A x = b (free variables set to 0), or None."""
    rows, n = _rows(A)
    aug = [row + [rhs] for row, rhs in zip(rows, b)]
    X = _read_off(*_eliminate(aug, n + 1), n, 1)
    return None if X is None else X[:, 0]


def solve_matrix(A, B):
    """Exact solution X of A X = B, or None if any column is inconsistent."""
    rows, n = _rows(A)
    rhs, k = _rows(B)
    return _read_off(*_eliminate([a + b for a, b in zip(rows, rhs)], n + k), n, k)


def nullspace(A):
    """Basis (list of object vectors) of the rational kernel of A."""
    rows, n = _rows(A)
    R, pivots, d = _eliminate(rows, n)
    basis = []
    for f in (c for c in range(n) if c not in pivots):
        v = np.array([Fraction(0)] * n, dtype=object)
        v[f] = Fraction(1)
        for i, c in enumerate(pivots):
            v[c] = Fraction(-R[i][f], d)
        basis.append(v)
    return basis


def inv(A) -> np.ndarray:
    rows, n = _rows(A)
    if len(rows) != n:
        raise ValueError("inverse of a non-square matrix")
    # [A | I] has rank n, so A is singular iff a pivot falls in the I block
    X = solve_matrix(rows, [[int(i == j) for j in range(n)] for i in range(n)])
    if X is None:
        raise ValueError("matrix is singular")
    return X


def abs_det(A) -> Fraction:
    """|det A| of a square rational matrix: the last pivot of the integer
    elimination over the product of the row scales."""
    rows, n = _rows(A)
    scaled = [_int_row(r) for r in rows]
    _, pivots, d = _eliminate([r for r, _ in scaled], n)
    if len(pivots) < n:
        return Fraction(0)
    return Fraction(abs(d), prod(s for _, s in scaled))


# ---------------------------------------------------------------------------
# Feasibility of linear systems with strict inequalities
# ---------------------------------------------------------------------------

def _normalize(coeffs, const, strict):
    """Divide an integer row by its content, for dedup and early exit."""
    g = gcd(const, *coeffs)
    if g > 1:
        return tuple(c // g for c in coeffs), const // g, strict
    return tuple(coeffs), const, strict


def _fm_feasible(rows, nvars) -> bool:
    """Decide whether {c·x + d >= 0 (or > 0)} has a rational solution.

    rows: iterable of (int coeffs, int const, strict). Strict sets are open,
    so real feasibility and rational feasibility coincide.
    """
    work = set()
    for coeffs, const, strict in rows:
        coeffs, const, strict = _normalize(coeffs, const, strict)
        if not any(coeffs):
            if const < 0 or (const == 0 and strict):
                return False
            continue
        work.add((coeffs, const, strict))

    for v in range(nvars - 1, -1, -1):
        lowers, uppers, rest = [], [], []
        for coeffs, const, strict in work:
            cv = coeffs[v]
            if cv > 0:
                lowers.append((coeffs, const, strict))
            elif cv < 0:
                uppers.append((coeffs, const, strict))
            else:
                rest.append((coeffs[:v], const, strict))
        nxt = set(rest)
        for lc, ld, ls in lowers:
            for uc, ud, us in uppers:
                a, b = lc[v], -uc[v]  # both positive
                coeffs, const, strict = _normalize(
                    [b * lc[j] + a * uc[j] for j in range(v)], b * ld + a * ud, ls or us
                )
                if not any(coeffs):
                    if const < 0 or (const == 0 and strict):
                        return False
                    continue
                nxt.add((coeffs, const, strict))
        work = nxt
    return True


def feasible(equalities, inequalities, nvars) -> bool:
    """Exact feasibility of a mixed linear system over the rationals.

    equalities:   list of (coeffs, const) meaning coeffs·x + const = 0
    inequalities: list of (coeffs, const, strict) meaning coeffs·x + const >= 0,
                  or > 0 when strict is True
    """
    ineqs = []
    for coeffs, const, strict in inequalities:
        row, _ = _int_row([*coeffs, const])  # a positive scale keeps the sense
        ineqs.append((row[:-1], row[-1], strict))
    if not equalities:
        return _fm_feasible(ineqs, nvars)
    # one elimination of [A | -b]: x_p = -(R[i][free]·x_free + R[i][nvars]) / d
    R, pivots, d = _eliminate([[*coeffs, const] for coeffs, const in equalities], nvars + 1)
    if pivots and pivots[-1] == nvars:
        return False
    free = [c for c in range(nvars) if c not in pivots]
    sign = 1 if d > 0 else -1
    reduced = []
    for g, h, strict in ineqs:
        # d·(g·x + h) with the pivot variables substituted, times sign(d)
        gp = [(g[c], R[i]) for i, c in enumerate(pivots) if g[c]]
        newc = [sign * (d * g[f] - sum(gc * row[f] for gc, row in gp)) for f in free]
        newd = sign * (d * h - sum(gc * row[nvars] for gc, row in gp))
        reduced.append((newc, newd, strict))
    return _fm_feasible(reduced, len(free))
