"""Exact linear algebra and feasibility primitives."""

from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from toricstacks.rational import (
    abs_det,
    feasible,
    frac,
    inv,
    nullspace,
    qmat,
    qvec,
    rank,
    rref,
    solve,
    solve_matrix,
)


def test_frac_parses_strings_ints_fractions():
    assert frac("3/4") == Fraction(3, 4)
    assert frac("-2") == Fraction(-2)
    assert frac(5) == Fraction(5)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(TypeError):
        frac(0.5)


def test_rref_and_rank():
    A = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    R, pivots = rref(A)
    assert pivots == [0, 1]
    assert rank(A) == 2
    assert rank(qmat([[0, 0], [0, 0]])) == 0


def test_solve_exact_and_inconsistent():
    A = qmat([[2, 1], [1, -1]])
    b = qvec([5, 1])
    x = solve(A, b)
    assert list(A @ x) == list(b)
    assert x[0] == Fraction(2) and x[1] == Fraction(1)
    assert solve(qmat([[1, 1], [1, 1]]), qvec([0, 1])) is None


def test_solve_matrix_and_inverse_roundtrip():
    A = qmat([[2, 1], [1, 1]])
    X = solve_matrix(A, qmat([[1, 0], [0, 1]]))
    assert np.array_equal(A @ X, qmat([[1, 0], [0, 1]]))
    Ainv = inv(A)
    assert np.array_equal(A @ Ainv, qmat([[1, 0], [0, 1]]))
    with pytest.raises(ValueError):
        inv(qmat([[1, 2], [2, 4]]))


def test_nullspace_annihilates():
    A = qmat([[1, -1, 0], [0, 1, -1]])
    basis = nullspace(A)
    assert len(basis) == 1
    assert all(v == 0 for v in A @ basis[0])


def test_feasible_basic_strict_vs_weak():
    # x > 0 and x < 0: infeasible; weak versions meet at 0
    assert not feasible([], [([1], 0, True), ([-1], 0, True)], 1)
    assert feasible([], [([1], 0, False), ([-1], 0, False)], 1)


def test_feasible_with_equalities():
    # x + y = 1, x > 0, y > 0 is feasible; adding x > 1 kills it
    eqs = [([1, 1], -1)]
    assert feasible(eqs, [([1, 0], 0, True), ([0, 1], 0, True)], 2)
    assert not feasible(
        eqs, [([1, 0], 0, True), ([0, 1], 0, True), ([1, 0], -1, True)], 2
    )


def test_feasible_inconsistent_equalities():
    assert not feasible([([1, 1], 0), ([1, 1], -1)], [], 2)


def test_feasible_rational_coefficients():
    # x >= 1/3 and x <= 1/3 with strict upper bound: infeasible
    assert not feasible(
        [], [([Fraction(1)], Fraction(-1, 3), False),
             ([-1], Fraction(1, 3), True)], 1
    )
    assert feasible(
        [], [([Fraction(1)], Fraction(-1, 3), False),
             ([-1], Fraction(1, 3), False)], 1
    )


def test_feasible_zero_variables():
    assert feasible([], [([], 1, False)], 0)
    assert not feasible([], [([], 0, True)], 0)


@st.composite
def _point_and_ineqs(draw):
    """A random rational point plus inequalities satisfied by it."""
    n = draw(st.integers(1, 3))
    pt = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
          for _ in range(n)]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        coeffs = [Fraction(draw(st.integers(-4, 4))) for _ in range(n)]
        slack = Fraction(draw(st.integers(0, 5)))
        const = slack - sum(c * p for c, p in zip(coeffs, pt))
        rows.append((coeffs, const, slack > 0 and draw(st.booleans())))
    return n, rows


@settings(max_examples=60, deadline=None)
@given(_point_and_ineqs())
def test_feasible_never_rejects_a_witnessed_system(case):
    n, rows = case
    assert feasible([], rows, n)


def _fraction(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


@st.composite
def _rational_matrix(draw):
    """An m x n rational matrix with some zero and some dependent rows."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-4, 4, max_denominator=4))
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    for i in range(1, m):
        kind = draw(st.sampled_from(["free", "zero", "multiple"]))
        if kind == "zero":
            rows[i] = [0] * n
        elif kind == "multiple":
            k = draw(st.fractions(-3, 3, max_denominator=2))
            rows[i] = [k * x for x in rows[draw(st.integers(0, i - 1))]]
    A = np.empty((m, n), dtype=object)
    for i, row in enumerate(rows):
        A[i, :] = row
    b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, b


@settings(max_examples=200, deadline=None)
@given(_rational_matrix())
def test_elimination_matches_sympy(case):
    A, b = case
    m, n = A.shape
    S = sympy.Matrix(m, n, [sympy.Rational(x.numerator, x.denominator) for x in A.flat])
    S_R, S_pivots = S.rref()
    R, pivots = rref(A)
    assert pivots == list(S_pivots)
    assert rank(A) == len(S_pivots)
    assert [[_fraction(S_R[i, j]) for j in range(n)] for i in range(m)] == R.tolist()
    assert [[_fraction(x) for x in v] for v in S.nullspace()] == [list(v) for v in nullspace(A)]
    if m == n:
        assert abs_det(A) == abs(_fraction(S.det()))
        if S.det() == 0:
            with pytest.raises(ValueError):
                inv(A)
        else:
            S_inv = S.inv()
            assert inv(A).tolist() == [[_fraction(S_inv[i, j]) for j in range(n)]
                                       for i in range(n)]

    rhs = sympy.Matrix(m, 1, [sympy.Rational(x.numerator, x.denominator) for x in b])
    try:
        sol, params = S.gauss_jordan_solve(rhs)
    except ValueError:  # inconsistent
        assert solve(A, b) is None
    else:
        sol = sol.subs({t: 0 for t in params})  # free variables set to 0
        assert list(solve(A, b)) == [_fraction(x) for x in sol]


@st.composite
def _integer_system(draw):
    """Equalities and (strict or weak) inequalities in up to 3 variables."""
    n = draw(st.integers(1, 3))
    coeffs = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    eqs = [(draw(coeffs), draw(st.integers(-3, 3))) for _ in range(draw(st.integers(0, 2)))]
    ineqs = [(draw(coeffs), draw(st.integers(-3, 3)), draw(st.booleans()))
             for _ in range(draw(st.integers(1, 5)))]
    return n, eqs, ineqs


def _linprog_slack(n, eqs, ineqs):
    """max t subject to the equalities, c·x + d >= t on strict rows,
    c·x + d >= 0 on weak rows and t <= 1; None when that LP is infeasible."""
    A_ub = [[-c for c in coeffs] + [int(strict)] for coeffs, _, strict in ineqs]
    b_ub = [const for _, const, _ in ineqs]
    A_eq = [coeffs + [0] for coeffs, _ in eqs] or None
    b_eq = [-const for _, const in eqs] or None
    res = linprog([0] * n + [-1], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(None, None)] * n + [(None, 1)], method="highs")
    assert res.status in (0, 2), res.message
    return -res.fun if res.status == 0 else None


@settings(max_examples=300, deadline=None)
@given(_integer_system())
@example((1, [], [([1], 0, True), ([-1], -1, False)]))
@example((2, [([1, 1], -1)], [([1, 0], 0, True), ([0, 1], -2, True)]))
def test_feasible_never_accepts_an_infeasible_system(case):
    # the system is feasible iff the shared slack of its strict rows can be
    # made positive; a slack within 1e-9 of 0 is left to the exact cases above
    n, eqs, ineqs = case
    t = _linprog_slack(n, eqs, ineqs)
    if t is not None and abs(t) < 1e-9:
        return
    assert feasible(eqs, ineqs, n) == (t is not None and t > 0)
