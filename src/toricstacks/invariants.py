"""Stack-level invariants of the construction.

Stabilizer (inertia) groups per stratum, the generic gerbe group, dimension
and effectiveness of the residual action, and the reduction-in-stages
consistency check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InfiniteStabilizer, IrregularLevel, NestingViolated
from .geometry import (
    Analysis,
    MomentPolytope,
    OrthantFace,
    ToricStackData,
    analyze,
    toric_stack_data,
)
from .lattice import (
    FiniteAbelianGroup,
    imat,
    integer_kernel_basis,
    smith_normal_form,
)
from .rational import frac, qmat, rank, solve_matrix

__all__ = [
    "InertiaRecord",
    "StackSummary",
    "StagesReport",
    "stabilizer_on_face",
    "inertia_table",
    "stack_summary",
    "labeled_polytope",
    "stages_verify",
]


@dataclass(frozen=True)
class InertiaRecord:
    face: OrthantFace
    group: FiniteAbelianGroup
    is_generic: bool


@dataclass(frozen=True)
class StackSummary:
    dimension: int | None
    residual_torus_dim: int
    gerbe: FiniteAbelianGroup | None
    effective: bool | None
    regular: bool
    empty: bool


def stabilizer_on_face(data: ToricStackData, face: OrthantFace) -> FiniteAbelianGroup:
    """The A_hat-stabilizer of a point whose zero set is exactly `face`.

    It is the quotient L/lattice_hat of the congruence lattice
    L = {t : C t in Z^m}, where C stacks the rows of B and the unit rows e_j
    for every j off the face. By Pontryagin duality L/lattice_hat is
    isomorphic to lattice_hat*/L*, and L* = C^T Z^m. In the basis of
    lattice_hat* dual to the rows of lattice_hat, L* is spanned by the rows
    of C . lattice_hat^T, so the stabilizer is read off one Smith normal form
    of that integer matrix; no rational arithmetic is involved. Raises
    InfiniteStabilizer when rank C < N, i.e. when the face carries dependent
    normal columns (the irregular case).
    """
    N = data.N
    lam = data.lattice_hat.tolist()
    # the rows of B . lattice_hat^T, then e_j . lattice_hat^T = column j of
    # lattice_hat for every j off the face
    rows = [[sum(b * l for b, l in zip(brow, lrow)) for lrow in lam]
            for brow in data.B.tolist()]
    rows += [[lrow[j] for lrow in lam] for j in range(N) if j not in face.zeros]
    snf = smith_normal_form(imat(rows, cols=N))
    if snf.rank < N:
        raise InfiniteStabilizer(
            "congruence system has positive-dimensional solution set"
        )
    return FiniteAbelianGroup.from_diagonal(snf.diagonal)


def _stabilizer(analysis: Analysis, face: OrthantFace) -> FiniteAbelianGroup:
    """stabilizer_on_face through the memo of `analysis`: once per face."""
    memo = analysis.stabilizers
    if face.zeros not in memo:
        memo[face.zeros] = stabilizer_on_face(analysis.data, face)
    return memo[face.zeros]


def inertia_table(analysis: Analysis) -> list[InertiaRecord]:
    """One record per meeting face, ordered by |J| then lexicographically."""
    verdict = analysis.verdict
    if not verdict.regular:
        raise IrregularLevel(
            f"level is irregular; witness face {verdict.witness.zeros}"
        )
    return [
        InertiaRecord(
            face=f,
            group=_stabilizer(analysis, f),
            is_generic=(len(f.zeros) == 0),
        )
        for f in analysis.faces
    ]


def stack_summary(analysis: Analysis) -> StackSummary:
    """Aggregate verdicts; degenerate cases are encoded in flags, not errors.

    The residual torus acts effectively on the coarse space when some point
    of the level has a free big-torus orbit, i.e. when the open orthant meets
    the slice; the trivial residual torus (n = 0) acts effectively by
    convention.
    """
    data, faces, verdict = analysis.data, analysis.faces, analysis.verdict
    # any point of the closed level lies in the stratum of its own zero set,
    # so the level is empty exactly when no stratum meets
    empty = not faces
    if not verdict.regular or empty:
        return StackSummary(
            dimension=None,
            residual_torus_dim=data.n,
            gerbe=None,
            effective=None,
            regular=verdict.regular,
            empty=empty,
        )
    return StackSummary(
        dimension=2 * data.n,
        residual_torus_dim=data.n,
        gerbe=_stabilizer(analysis, faces[0]),
        effective=data.n == 0 or analysis.meets_interior,
        regular=True,
        empty=False,
    )


def labeled_polytope(analysis: Analysis) -> MomentPolytope:
    """Attach facet labels (stabilizer orders on open facets) to the polytope."""
    meeting = {f.zeros for f in analysis.faces}
    labels = [
        _stabilizer(analysis, OrthantFace((j,))).order
        if (j,) in meeting and analysis.data.n else 1
        for j in range(analysis.data.N)
    ]
    return analysis.polytope.with_labels(labels)


# ---------------------------------------------------------------------------
# Reduction in stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StagesReport:
    consistent: bool
    detail: str | None
    one_shot: dict
    staged: dict
    declared: dict | None
    level_shift: tuple


_COMPARED = ("dimension", "gerbe", "vertex_inertia", "f_vector", "volume")


def _invariant_set(analysis: Analysis) -> dict:
    verdict = analysis.verdict
    if not verdict.regular:
        raise IrregularLevel(
            f"stages comparison requires a regular level; witness {verdict.witness.zeros}"
        )
    vertex_inertia = sorted(
        _stabilizer(analysis, f).invariant_factors for f in analysis.faces
        if analysis.ranks[f.zeros] == analysis.data.n
    )
    summary = analysis.summary
    return {
        "dimension": summary.dimension,
        "gerbe": summary.gerbe.invariant_factors if summary.gerbe else (),
        "vertex_inertia": tuple(vertex_inertia),
        "f_vector": analysis.polytope.f_vector,
        "volume": analysis.volume,
    }


def _check_nesting(B1: np.ndarray, B2: np.ndarray) -> None:
    """A1 = ker(B1) must be contained in A2 = ker(B2), exactly."""
    N = B1.shape[1]
    kern = integer_kernel_basis(B1)
    if kern.shape[0]:
        prod = qmat(B2) @ qmat(kern).T if B2.shape[0] else None
        if prod is not None and any(prod[i, j] != 0
                                    for i in range(prod.shape[0])
                                    for j in range(prod.shape[1])):
            raise NestingViolated("Lie algebra of A1 is not annihilated by B2")
    if B1.shape[0] == 0:
        return
    snf = smith_normal_form(B1)
    for i in range(snf.rank):
        gen = [Fraction(int(snf.V[k, i]), snf.diagonal[i]) for k in range(N)]
        for r in range(B2.shape[0]):
            val = sum(frac(B2[r, k]) * gen[k] for k in range(N))
            if val.denominator != 1:
                raise NestingViolated(
                    "a topological generator of A1 leaves A2 "
                    f"(row {r} pairs to {val})"
                )


def stages_verify(outer: ToricStackData, inner_B,
                  declared: dict | None = None) -> StagesReport:
    """Compare the one-shot reduction with reduction in two stages.

    The one-shot side runs the ordinary pipeline on (lattice_hat, B2, a_lift).
    The staged side first reduces by the inner subgroup, checks regularity
    there, and factors B2 = C B1 through the first residual torus. The
    second-stage normals are C applied to the first-stage normals, the
    columns of B1, so they are the columns of C B1 = B2: the second stage is
    the one-shot data, and its invariants are read off the one-shot
    Analysis, except the dimension, which is re-derived as 2 rank C.
    Computable invariants of both sides are compared; an optional `declared`
    block from a fixture is held to the same standard.
    """
    B2 = outer.B
    N = outer.N
    B1 = imat(inner_B, cols=N)
    if B1.shape[1] != N:
        raise NestingViolated(f"inner B has {B1.shape[1]} columns, expected {N}")
    _check_nesting(B1, B2)

    inner = analyze(toric_stack_data(outer.lattice_hat, B1, list(outer.a_lift), N=N))
    if not inner.verdict.regular:
        raise IrregularLevel("inner stage is irregular; stages undefined")

    # factor B2 through the first residual torus: B2 = C B1
    if B2.shape[0]:
        X = solve_matrix(B1.T, B2.T)
        if X is None:
            raise NestingViolated("B2 does not factor through B1")
        C = X.T
        if any(C[i, j].denominator != 1 for i in range(C.shape[0])
               for j in range(C.shape[1])):
            raise NestingViolated("factor matrix C is not integral")
        C = imat(C, cols=B1.shape[0])
    else:
        C = np.empty((0, B1.shape[0]), dtype=object)

    one_shot_inv = _invariant_set(analyze(outer))
    staged_inv = dict(one_shot_inv, dimension=2 * rank(C) if C.size else 0)

    detail = None
    for key in _COMPARED:
        if one_shot_inv[key] != staged_inv[key]:
            detail = key
            break
    if detail is None and declared is not None:
        for key in _COMPARED:
            if key in declared and declared[key] != _jsonable(one_shot_inv[key]):
                detail = key
                break

    return StagesReport(
        consistent=detail is None,
        detail=detail,
        one_shot=one_shot_inv,
        staged=staged_inv,
        declared=declared,
        level_shift=tuple(Fraction(0) for _ in range(B1.shape[0])),
    )


def _jsonable(value):
    """Shape an invariant like its JSON fixture form for declared comparisons."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value
