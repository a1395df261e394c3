"""Group-theoretic input data: finite extensions of tori and closed subgroups.

The extension 1 -> Gamma -> T^N_hat -> T^N -> 1 is presented by a
finite-index sublattice of Z^N; a closed subgroup A < T^N is presented in
kernel form A = ker(B : T^N -> T^n) by an integer matrix B of full row rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFiniteIndex, RankDeficient
from .lattice import (
    FiniteAbelianGroup,
    cokernel_structure,
    det,
    imat,
    integer_kernel_basis,
)
from .rational import rank

__all__ = [
    "TorusExtension",
    "ClosedSubgroup",
    "make_extension",
    "subgroup_from_kernel",
]


@dataclass(frozen=True)
class TorusExtension:
    """T^N_hat = R^N / lattice_hat, an extension of T^N by Gamma = Z^N / lattice_hat."""

    N: int
    lattice_hat: np.ndarray
    gamma: FiniteAbelianGroup


@dataclass(frozen=True)
class ClosedSubgroup:
    """A = ker(B : T^N -> T^n) together with its Lie algebra and component group."""

    B: np.ndarray
    lie_algebra_basis: np.ndarray  # rows span ker_R(B), saturated and in HNF
    component_group: FiniteAbelianGroup

    @property
    def n(self) -> int:
        return self.B.shape[0]

    @property
    def N(self) -> int:
        return self.B.shape[1]

    @property
    def dim(self) -> int:
        return self.N - self.n


def make_extension(N: int, lattice_hat) -> TorusExtension:
    """Validate a finite-index sublattice of Z^N and compute Gamma."""
    L = imat(lattice_hat, cols=N)
    if L.shape != (N, N):
        raise DimensionMismatch(f"lattice_hat must be {N}x{N}, got {L.shape}")
    if det(L) == 0:
        raise NotFiniteIndex("lattice_hat not finite index")
    return TorusExtension(N=N, lattice_hat=L, gamma=cokernel_structure(L))


def subgroup_from_kernel(B, N: int | None = None) -> ClosedSubgroup:
    """Closed subgroup A = ker(B) from an integer matrix of full row rank."""
    M = imat(B, cols=N)
    n = M.shape[0]
    if n and rank(M) < n:
        raise RankDeficient(f"B has rank < {n}; G would not be a torus T^{n}")
    pi0 = cokernel_structure(imat(M.T, cols=n))
    return ClosedSubgroup(B=M, lie_algebra_basis=integer_kernel_basis(M), component_group=pi0)
