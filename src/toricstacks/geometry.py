"""Exact polyhedral geometry of the moment level set.

The reduced space sits over the polytope Delta = V_a ∩ (R^N)*_+, written in
residual-torus coordinates lambda through x = a_lift + B^T lambda. Faces of
the orthant are indexed by the set J of coordinates forced to zero; a face
"meets the slice" when the corresponding stratum {x_j = 0 on J, x_j > 0 off J}
is nonempty, which is decided by exact rational feasibility.

`analyze(data)` returns the Analysis of one input: the meeting faces, the
rank of the normal columns on each, the regularity verdict, the polytope
and its volume, each computed at most once and only when first read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import prod

import numpy as np

from .errors import DimensionMismatch, IrregularLevel
from .lattice import FiniteAbelianGroup
from .rational import abs_det, feasible, frac, inv, qmat, qvec, rank, solve
from .torus import ClosedSubgroup, TorusExtension, make_extension, subgroup_from_kernel

__all__ = [
    "ToricStackData",
    "toric_stack_data",
    "OrthantFace",
    "RegularityVerdict",
    "MomentPolytope",
    "Analysis",
    "analyze",
    "face_meets_slice",
    "meeting_faces",
    "moment_polytope",
    "normalized_volume",
]


@dataclass(frozen=True)
class ToricStackData:
    """The full input of the construction: (lattice_hat, B, a_lift)."""

    ext: TorusExtension
    subgroup: ClosedSubgroup
    a_lift: np.ndarray  # Fractions, length N

    @property
    def N(self) -> int:
        return self.ext.N

    @property
    def n(self) -> int:
        return self.subgroup.n

    @property
    def B(self) -> np.ndarray:
        return self.subgroup.B

    @property
    def lattice_hat(self) -> np.ndarray:
        return self.ext.lattice_hat

    @property
    def gamma(self):
        return self.ext.gamma


def toric_stack_data(lattice_hat, B, a_lift, N: int | None = None) -> ToricStackData:
    """Assemble and validate a ToricStackData triple."""
    if N is None:
        N = len(lattice_hat)
    ext = make_extension(N, lattice_hat)
    sub = subgroup_from_kernel(B, N=N)
    if sub.N != N:
        raise DimensionMismatch(f"B has {sub.N} columns, expected {N}")
    if len(a_lift) != N:
        raise DimensionMismatch(f"a_lift has length {len(a_lift)}, expected {N}")
    return ToricStackData(ext=ext, subgroup=sub, a_lift=qvec([frac(x) for x in a_lift]))


@dataclass(frozen=True)
class OrthantFace:
    """Face of the orthant: the coordinates in `zeros` (0-based) vanish."""

    zeros: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(sorted(set(int(j) for j in self.zeros))))

    def __len__(self):
        return len(self.zeros)


def _face_system(data: ToricStackData, zeros):
    """Equalities on `zeros` plus strict inequalities elsewhere."""
    zset = set(zeros)
    eqs, ineqs = [], []
    # B is an integer matrix of Python ints (see lattice.imat)
    for j, (coeffs, a_j) in enumerate(zip(data.B.T.tolist(), data.a_lift)):
        if j in zset:
            eqs.append((coeffs, a_j))
        else:
            ineqs.append((coeffs, a_j, True))
    return eqs, ineqs


def face_meets_slice(data: ToricStackData, face: OrthantFace) -> bool:
    """Does the open stratum {x_j = 0 on J, x_j > 0 off J} intersect the slice?"""
    eqs, ineqs = _face_system(data, face.zeros)
    return feasible(eqs, ineqs, data.n)


def meeting_faces(data: ToricStackData) -> list[OrthantFace]:
    """All faces whose open stratum meets the slice, by |J| then lexicographic.

    Subsets whose equality system is already infeasible prune all their
    supersets, which keeps the 2^N enumeration tame.
    """
    N = data.N
    dead: list[frozenset] = []
    out = []
    for size in range(N + 1):
        for J in itertools.combinations(range(N), size):
            Jset = frozenset(J)
            if any(d <= Jset for d in dead):
                continue
            eqs, _ = _face_system(data, J)
            if eqs and not feasible(eqs, [], data.n):
                dead.append(Jset)
                continue
            if face_meets_slice(data, OrthantFace(J)):
                out.append(OrthantFace(J))
    return out


def _columns(data: ToricStackData, zeros) -> list[list[int]]:
    """The columns of B on `zeros`, as the rows of an n x |zeros| matrix."""
    return [[int(data.B[i, j]) for j in zeros] for i in range(data.n)]


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    witness: OrthantFace | None = None


@dataclass(frozen=True)
class MomentPolytope:
    """Delta in lambda-coordinates: h_rep rows mean normal·lambda + offset >= 0."""

    n: int
    h_rep: tuple  # ((normal, offset), ...), one row per orthant coordinate
    v_rep: tuple  # sorted tuples of Fractions
    redundant: tuple  # per h_rep row: open facet empty
    facet_labels: tuple | None  # filled by the invariants layer
    f_vector: tuple
    bounded: bool
    empty: bool
    regular: bool

    def with_labels(self, labels) -> "MomentPolytope":
        return replace(self, facet_labels=tuple(int(x) for x in labels))


class Analysis:
    """The facts of one input, each computed at most once, when first read.

    Every fact comes from the faces whose open strata meet the slice. The
    cached properties call the module-level function of their layer, so a
    caller sees the same functions whether or not it goes through here.
    `stabilizers` memoizes the inertia group per face (keyed by its zeros);
    the invariants layer fills it.
    """

    def __init__(self, data: ToricStackData):
        self.data = data
        self.stabilizers: dict[tuple, FiniteAbelianGroup] = {}

    @cached_property
    def faces(self) -> list[OrthantFace]:
        return meeting_faces(self.data)

    @cached_property
    def ranks(self) -> dict[tuple, int]:
        """Rank of the columns of B on J, for the zeros J of every meeting face."""
        return {f.zeros: rank(_columns(self.data, f.zeros)) for f in self.faces}

    @property
    def meets_interior(self) -> bool:
        """Does the open orthant meet the slice? Faces come sorted by |J|."""
        return bool(self.faces) and not self.faces[0].zeros

    @cached_property
    def verdict(self) -> RegularityVerdict:
        """Regular iff every meeting face has independent normal columns.

        On failure the lexicographically smallest witness J is returned.
        """
        witnesses = [J for J, r in self.ranks.items() if r < len(J)]
        if not witnesses:
            return RegularityVerdict(regular=True)
        return RegularityVerdict(regular=False, witness=OrthantFace(min(witnesses)))

    @cached_property
    def polytope(self) -> MomentPolytope:
        return moment_polytope(self)

    @cached_property
    def volume(self):
        return normalized_volume(self)

    @cached_property
    def summary(self):
        from .invariants import stack_summary  # invariants imports this module
        return stack_summary(self)


def analyze(data: ToricStackData) -> Analysis:
    """The Analysis of `data`; nothing is computed until a fact is read."""
    return Analysis(data)


def _vertices(analysis: Analysis) -> list[tuple]:
    """The one point of each meeting face whose normal columns have rank n.

    A vertex of Delta lies in the open stratum of its own tight set, which
    therefore meets the slice with rank n; such a face holds no other point.
    """
    data = analysis.data
    B, a = data.B, data.a_lift
    found = []
    for f in analysis.faces:
        if analysis.ranks[f.zeros] == data.n:
            rows = [[B[i, j] for i in range(data.n)] for j in f.zeros]
            found.append(tuple(solve(rows, [-a[j] for j in f.zeros])))
    return sorted(found)


def _bounded(data: ToricStackData) -> bool:
    """Delta is bounded iff the recession cone {B^T lambda >= 0} is trivial."""
    ineqs = [(col, 0, False) for col in data.B.T.tolist()]
    # columns of B span R^n, so a nonzero recession vector has positive total
    ineqs.append(([sum(row) for row in data.B.tolist()], -1, False))
    return not feasible([], ineqs, data.n)


def moment_polytope(analysis: Analysis) -> MomentPolytope:
    """H- and V-representations of Delta with facet and face bookkeeping.

    The facet_labels slot is left unset here; the stack-invariants layer
    fills it from the stabilizer orders.
    """
    data = analysis.data
    B, a = qmat(data.B), data.a_lift
    h_rep = tuple(
        (tuple(B[i, j] for i in range(data.n)), a[j]) for j in range(data.N)
    )
    meeting = {f.zeros for f in analysis.faces}
    redundant = tuple((j,) not in meeting for j in range(data.N))
    counts = [0] * (data.n + 1)
    for r in analysis.ranks.values():
        counts[data.n - r] += 1
    return MomentPolytope(
        n=data.n,
        h_rep=h_rep,
        v_rep=tuple(_vertices(analysis)),
        redundant=redundant,
        facet_labels=None,
        f_vector=tuple(counts),
        bounded=_bounded(data),
        empty=not analysis.faces,  # as in stack_summary
        regular=analysis.verdict.regular,
    )


def normalized_volume(analysis: Analysis):
    """Lattice-normalized volume of Delta (n! times Euclidean volume).

    Returns a Fraction for bounded nonempty polytopes, None when unbounded,
    and Fraction(0) when empty. A point (n = 0) has volume 1. Otherwise the
    volume is Lawrence's sum of one term per vertex ("Polytope volume
    computation", Math. Comp. 1991), which needs a simple polytope: a
    regular level gives one, and an irregular level raises IrregularLevel.

    Delta is {lambda : -b_j . lambda <= a_j}, b_j the columns of B. At the
    vertex v of a vertex face J (|J| = n on a regular level), gamma solves
    sum_i gamma_i (-b_{j_i}) = c, and v adds
    (c . v)^n / (|det(-b_J)| prod gamma_i), where c . v = gamma . a_J.
    """
    data, poly = analysis.data, analysis.polytope
    if poly.empty:
        return Fraction(0)
    if not poly.bounded:
        return None
    n = data.n
    if n == 0:
        return Fraction(1)
    verdict = analysis.verdict
    if not verdict.regular:
        raise IrregularLevel(
            f"volume needs a regular level; witness face {verdict.witness.zeros}"
        )

    B, a = data.B, data.a_lift
    corners = []  # (inverse of the normals -b_J, |det|, a_J) per vertex face
    for J, r in analysis.ranks.items():
        if r == n:
            normals = [[-B[k, j] for j in J] for k in range(n)]
            corners.append((inv(normals).tolist(), abs_det(normals), [a[j] for j in J]))
    # gamma_i(t) for c = (1, t, ..., t^(n-1)) is row i of an inverse times c:
    # a nonzero polynomial of degree below n in t, so only finitely many t
    # make some gamma_i vanish
    for t in itertools.count(1):
        c = [t**k for k in range(n)]
        gammas = [[sum(w * ck for w, ck in zip(row, c)) for row in W] for W, _, _ in corners]
        if all(map(all, gammas)):
            break
    total = Fraction(0)
    for gamma, (_, det, a_J) in zip(gammas, corners):
        total += sum(g * x for g, x in zip(gamma, a_J)) ** n / (det * prod(gamma))
    return total
