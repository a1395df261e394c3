"""Extensions of tori and closed subgroups in kernel form."""

import numpy as np
import pytest

from toricstacks.errors import DimensionMismatch, NotFiniteIndex, RankDeficient
from toricstacks.lattice import FiniteAbelianGroup, identity
from toricstacks.torus import make_extension, subgroup_from_kernel


def test_make_extension_trivial_gamma():
    ext = make_extension(2, identity(2))
    assert ext.N == 2
    assert ext.gamma.is_trivial


def test_make_extension_index_two():
    ext = make_extension(1, [[2]])
    assert ext.gamma == FiniteAbelianGroup((2,))


def test_make_extension_rejects_singular_lattice():
    with pytest.raises(NotFiniteIndex, match="finite index"):
        make_extension(2, [[1, 1], [1, 1]])


def test_make_extension_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        make_extension(2, [[1, 0]])


def test_subgroup_from_kernel_circle():
    A = subgroup_from_kernel([[1, -1]])
    assert (A.n, A.N, A.dim) == (1, 2, 1)
    # Lie algebra is the diagonal line
    assert A.lie_algebra_basis.shape == (1, 2)
    assert tuple(int(x) for x in A.lie_algebra_basis[0]) == (1, 1)
    assert A.component_group.is_trivial


def test_subgroup_from_kernel_teardrop_components():
    # B = [2 -1]: the kernel is connected (gcd of entries is 1)
    A = subgroup_from_kernel([[2, -1]])
    assert tuple(int(x) for x in A.lie_algebra_basis[0]) == (1, 2)
    assert A.component_group.is_trivial
    # B = [2 0]: kernel has two components
    A2 = subgroup_from_kernel([[2, 0]])
    assert A2.component_group == FiniteAbelianGroup((2,))


def test_subgroup_from_kernel_trivial_map():
    A = subgroup_from_kernel([], N=3)
    assert (A.n, A.N, A.dim) == (0, 3, 3)
    assert np.array_equal(A.lie_algebra_basis, identity(3))


def test_subgroup_rejects_rank_deficient():
    with pytest.raises(RankDeficient):
        subgroup_from_kernel([[1, -1], [2, -2]])
