"""Integer lattice algebra: normal forms, kernels, cokernels."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstacks.errors import NotFiniteIndex, NotSublattice
from toricstacks.lattice import (
    FiniteAbelianGroup,
    cokernel_structure,
    det,
    hermite_normal_form,
    identity,
    imat,
    integer_kernel_basis,
    smith_normal_form,
)


def test_imat_rejects_non_integers():
    with pytest.raises(NotSublattice):
        imat([[1, "x"]])
    from fractions import Fraction
    with pytest.raises(NotSublattice):
        imat([[Fraction(1, 2)]])
    assert imat([[Fraction(4, 2)]])[0, 0] == 2


def test_det_small_cases():
    assert det(identity(3)) == 1
    assert det(imat([[2, 0], [0, 3]])) == 6
    assert det(imat([[1, 2], [2, 4]])) == 0
    assert det(imat([[0, 1], [1, 0]])) == -1
    assert det(np.empty((0, 0), dtype=object)) == 1


def test_snf_frozen_example():
    snf = smith_normal_form(imat([[2, 4], [6, 8]]))
    assert snf.diagonal == (2, 4)
    assert np.array_equal(snf.U @ imat([[2, 4], [6, 8]]) @ snf.V, snf.D)


def test_snf_zero_and_rectangular():
    assert smith_normal_form(imat([[0, 0], [0, 0]])).diagonal == (0, 0)
    snf = smith_normal_form(imat([[1, 2, 3]]))
    assert snf.diagonal == (1,)
    assert snf.rank == 1


def _check_snf(M):
    snf = smith_normal_form(M)
    assert np.array_equal(snf.U @ M @ snf.V, snf.D)
    assert abs(det(snf.U)) == 1
    assert abs(det(snf.V)) == 1
    diag = snf.diagonal
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # zeros only after the nonzero chain
    assert diag[: len(nz)] == tuple(nz)
    m, n = M.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert snf.D[i, j] == 0


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 5), st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_snf_properties_random(m, n, seed):
    rng = random.Random(seed)
    M = imat([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
    _check_snf(M)


def test_cokernel_order_equals_det():
    for rows in ([[2, 0], [0, 3]], [[2, 1], [0, 2]], [[3, 1], [1, 3]]):
        M = imat(rows)
        assert cokernel_structure(M).order == abs(det(M))


def test_cokernel_infinite_raises():
    with pytest.raises(NotFiniteIndex):
        cokernel_structure(imat([[1, 2]]))


def test_hermite_normal_form_canonical():
    H = hermite_normal_form(imat([[2, 4], [6, 8]]))
    # pivots positive, entries above reduced
    assert H.shape == (2, 2)
    assert H[0, 0] > 0 and H[1, 1] > 0
    assert 0 <= H[0, 1] < H[1, 1] or H[1, 1] == 0
    # same row lattice: quotient is trivial in both directions
    assert det(H) != 0
    # HNF is idempotent
    assert np.array_equal(hermite_normal_form(H), H)


def _brute_force_kernel_members(M, box=4):
    n = M.shape[1]
    hits = []
    for v in itertools.product(range(-box, box + 1), repeat=n):
        if all(sum(int(M[i, j]) * v[j] for j in range(n)) == 0
               for i in range(M.shape[0])):
            if any(v):
                hits.append(v)
    return hits


@pytest.mark.parametrize("rows,expected_first", [
    ([[2, -1]], (1, 2)),
    ([[1, 1, 1]], None),
])
def test_integer_kernel_is_saturated(rows, expected_first):
    M = imat(rows)
    K = integer_kernel_basis(M)
    # every basis row is killed by M
    for r in range(K.shape[0]):
        assert all(x == 0 for x in M @ K[r])
    # every small integer kernel vector is an integer combination of the basis
    from toricstacks.rational import qmat, solve
    for v in _brute_force_kernel_members(M):
        sol = solve(qmat(K).T, np.array([int(x) for x in v], dtype=object))
        assert sol is not None
        assert all(s.denominator == 1 for s in sol)
    if expected_first is not None:
        assert tuple(int(x) for x in K[0]) == expected_first


def test_finite_abelian_group_validation():
    g = FiniteAbelianGroup((2, 4))
    assert g.order == 8 and not g.is_trivial
    assert str(g) == "Z/2 x Z/4"
    assert FiniteAbelianGroup.trivial().order == 1
    assert FiniteAbelianGroup.from_diagonal((1, 1, 3)) == FiniteAbelianGroup((3,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((4, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
