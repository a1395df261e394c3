"""Floating-point verification on the concrete atlas Z inside C^N.

Checks, at sampled points, the moment equation, local freeness against the
exact regularity verdict, the kernel rank of the restricted symplectic form,
and the action-groupoid transversality criterion.

Conventions: the symplectic form is omega(u, v) = 2 * sum_j (Re u_j Im v_j -
Im u_j Re v_j) and the big-torus moment map is mu(z)_j = |z_j|^2. The
rotation generator attached to the dual basis vector e_k is then forced to
be u(z) = -i z_k in the k-th slot (GENERATOR_SPEED times the unit-period
circle speed 2*pi*i z_k); this single constant makes the contraction
identity iota_u omega = d<eps, mu> hold exactly and is pinned by a unit test.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyInterior, IllConditioned
from .geometry import Analysis, ToricStackData
from .rational import frac, inv

__all__ = [
    "GENERATOR_SPEED",
    "SamplePoint",
    "NumericReport",
    "generator_field",
    "omega",
    "check_moment_equation",
    "check_local_freeness",
    "check_groupoid_transversality",
    "check_reduced_kernel_rank",
    "sample_level_points",
    "run_numeric_report",
]

# generator = GENERATOR_SPEED * (unit-period circle speed 2*pi*i*z_k)
GENERATOR_SPEED = -1.0 / (2.0 * math.pi)


def omega(u: np.ndarray, v: np.ndarray) -> float:
    """The standard symplectic pairing 2 Im <u, v> on C^N viewed as R^2N."""
    return 2.0 * float(np.imag(np.vdot(u, v)))


def generator_field(eps, z: np.ndarray) -> np.ndarray:
    """Vector generating the torus rotation with speed eps at z."""
    eps = np.asarray([float(frac(e)) if not isinstance(e, float) else e for e in eps])
    return -1j * eps * np.asarray(z, dtype=complex)


def check_moment_equation(z, eps, h: float) -> float:
    """Residual of iota_u omega = d<eps, mu> with the generator taken from
    central differences of the rotation flow.

    The flow phi_s(z)_j = exp(-i eps_j s) z_j is differenced at +-h, so the
    residual scales as O(h^2); d<eps, mu> is evaluated in closed form.
    """
    z = np.asarray(z, dtype=complex)
    eps = np.asarray([float(frac(e)) if not isinstance(e, float) else e for e in eps])
    phase_p = np.exp(-1j * eps * h)
    phase_m = np.exp(1j * eps * h)
    u_fd = (phase_p * z - phase_m * z) / (2.0 * h)
    worst = 0.0
    for k in range(len(z)):
        x, y = z[k].real, z[k].imag
        # omega(u, xhat_k) = -2 Im u_k ; omega(u, yhat_k) = 2 Re u_k
        worst = max(worst, abs(-2.0 * u_fd[k].imag - 2.0 * eps[k] * x))
        worst = max(worst, abs(2.0 * u_fd[k].real - 2.0 * eps[k] * y))
    return worst


def _float_basis(data: ToricStackData) -> np.ndarray:
    """The integer lie_algebra_basis as floats (exact below 2**53)."""
    return data.subgroup.lie_algebra_basis.astype(float)


def _generator_matrix(data: ToricStackData, z: np.ndarray) -> np.ndarray:
    """Real 2N x dim(a) matrix of generators of the subgroup Lie algebra:
    column c interleaves the real and imaginary parts of
    generator_field(basis[c], z)."""
    u = -1j * _float_basis(data) * np.asarray(z, dtype=complex)
    out = np.empty((2 * data.N, u.shape[0]))
    out[0::2] = u.real.T
    out[1::2] = u.imag.T
    return out


def check_local_freeness(data: ToricStackData, z, tol: float = 1e-8) -> bool:
    """True iff the subgroup generators have full numerical rank at z."""
    G = _generator_matrix(data, z)
    if G.shape[1] == 0:
        return True
    svals = np.linalg.svd(G, compute_uv=False)
    return bool(svals[0] > 0 and svals[-1] > tol * svals[0])


def check_groupoid_transversality(data: ToricStackData, z, tol: float = 1e-8) -> bool:
    """Action-groupoid form of the DM transversality criterion at (e, z).

    For the groupoid A_hat x Z over Z this reduces to triviality of the
    stabilizer algebra, decided here by an independent rank computation.
    """
    G = _generator_matrix(data, z)
    if G.shape[1] == 0:
        return True
    scale = float(np.linalg.norm(G))
    if scale == 0.0:
        return False
    r = np.linalg.matrix_rank(G, tol=tol * scale)
    return int(r) == G.shape[1]


def check_reduced_kernel_rank(data: ToricStackData, z,
                              tol: float = 1e-8) -> tuple[int, int]:
    """Kernel dimension of omega restricted to T_z Z, and its expected value.

    T_z Z is the numerical kernel of the differential of the subgroup moment
    map; the expected kernel dimension is dim A, the orbit directions inside
    the level set. The kernel is read off the singular values of
    W = Q^T Omega Q, Q an orthonormal basis of T_z Z, with the rank threshold
    tol * ||Omega|| = 2 * tol measured against the form, not against W: when
    A is the whole torus the level set is a Lagrangian torus orbit and W
    vanishes identically, so only rounding noise is left in it. Raises
    IllConditioned when the singular-value gap at that threshold is narrower
    than a factor of 10.
    """
    z = np.asarray(z, dtype=complex)
    N = data.N
    basis = _float_basis(data)
    d = basis.shape[0]
    dmu = np.empty((d, 2 * N))
    dmu[:, 0::2] = 2.0 * basis * z.real
    dmu[:, 1::2] = 2.0 * basis * z.imag
    if d:
        _, svals, vt = np.linalg.svd(dmu)
        thresh = tol * (svals[0] if svals.size else 1.0)
        nker = sum(1 for s in svals if s <= thresh) + (2 * N - len(svals))
        Q = vt[2 * N - nker:].T  # orthonormal basis of ker dmu
    else:
        Q = np.eye(2 * N)

    OmQ = np.empty_like(Q)  # Om @ Q, Om the block diagonal of [[0, 2], [-2, 0]]
    OmQ[0::2] = 2.0 * Q[1::2]
    OmQ[1::2] = -2.0 * Q[0::2]
    W = Q.T @ OmQ
    svals = np.linalg.svd(W, compute_uv=False)
    thresh = tol * 2.0  # tol * ||Om||_2, which bounds ||W||_2 as Q is orthonormal
    below = [s for s in svals if s <= thresh]
    above = [s for s in svals if s > thresh]
    if below and above and min(above) < 10.0 * max(max(below), thresh / 10.0):
        raise IllConditioned(
            f"singular-value gap at threshold too narrow: {max(below):.3e} vs {min(above):.3e}"
        )
    return (len(below), data.subgroup.dim)


@dataclass(frozen=True)
class SamplePoint:
    """A point of the level set in the open orthant: every |z_j|^2 > 0."""

    z: np.ndarray
    moduli: tuple  # exact rational |z_j|^2 used in the construction
    residual_level_error: float


def _recession_rays(analysis: Analysis) -> list[tuple[int, ...]]:
    """Generators of the recession cone of Delta, as primitive integer
    directions of x = a_lift + B^T lambda.

    Delta is pointed (B has full row rank), so its recession cone is spanned
    by the directions of its unbounded edges, and each of those leaves a
    vertex. At a vertex, n of its tight coordinates J with independent
    columns b_j give the candidate edges d = M_J^-1 e_k (rows of M_J are the
    b_j), and d is a recession direction iff b_j . d >= 0 for every j. On a
    regular level the polytope is simple: J is the whole vertex face. A
    vertex of an irregular level has more tight coordinates, and every n of
    them with independent columns is tried.
    """
    data = analysis.data
    n = data.n
    cols = data.B.T.tolist()  # b_j, the columns of B
    rays = set()
    for J, r in analysis.ranks.items():
        if r < n:
            continue
        for K in itertools.combinations(J, n):
            try:
                edges = inv([cols[j] for j in K]).T.tolist()  # row k is M_K^-1 e_k
            except ValueError:  # dependent columns: another subset of J
                continue
            for d in edges:
                dx = [sum(b * di for b, di in zip(col, d)) for col in cols]
                if min(dx) >= 0:
                    scale = math.lcm(*(q.denominator for q in dx))
                    ints = [int(q * scale) for q in dx]
                    g = math.gcd(*ints)
                    rays.add(tuple(q // g for q in ints))
    return sorted(rays)


def sample_level_points(analysis: Analysis, count: int, seed: int) -> list[SamplePoint]:
    """Points of Z with exact-by-construction moduli and random phases.

    Each draw takes strictly positive integer weights w_v in [1, 4096] over
    the vertices v of Delta and, when Delta is unbounded, t_k in
    [1/4096, 1] over its recession rays r_k, and sets
    x = sum w_v x(v) / sum w_v + sum t_k r_k with x(v) = a_lift + B^T v.
    A strictly positive combination of every vertex and ray lies in the
    interior of Delta, so every draw has x > 0 exactly and none is
    rejected; then z_j = sqrt(x_j) e^{i phi_j}. Raises EmptyInterior only
    when the slice misses the open orthant.
    """
    if not analysis.meets_interior:
        raise EmptyInterior("the slice misses the open orthant; nothing to sample")
    data, poly = analysis.data, analysis.polytope
    B, a = data.B.tolist(), data.a_lift
    vertex_moduli = [
        [a[j] + sum(row[j] * vi for row, vi in zip(B, v)) for j in range(data.N)]
        for v in poly.v_rep
    ]
    # the vertex moduli over one common denominator, one column per coordinate
    vden = math.lcm(*(x.denominator for x in itertools.chain(*vertex_moduli)))
    columns = [[int(x * vden) for x in col] for col in zip(*vertex_moduli)]
    rays = [] if poly.bounded else _recession_rays(analysis)
    ray_columns = list(zip(*rays)) or [()] * data.N
    lie, af = _float_basis(data), np.array([float(x) for x in a])
    rng = random.Random(seed)

    def dot(u, v):
        return sum(map(operator.mul, u, v))

    out = []
    for _ in range(count):
        w = [rng.randrange(1, 4097) for _ in poly.v_rep]
        t = [rng.randrange(1, 4097) for _ in rays]  # ray weights t / 4096
        W = sum(w)
        x = [Fraction(4096 * dot(w, col) + vden * W * dot(t, ray), 4096 * vden * W)
             for col, ray in zip(columns, ray_columns)]
        phases = [rng.random() for _ in range(data.N)]
        z = np.array(
            [math.sqrt(float(xj)) * cmath.exp(2j * math.pi * p)
             for xj, p in zip(x, phases)],
            dtype=complex,
        )
        # relative residual of the subgroup moment level at z
        xf = np.abs(z) ** 2
        level = np.max(np.abs(lie @ (xf - af)), initial=0.0) / max(1.0, np.max(xf))
        out.append(SamplePoint(z=z, moduli=tuple(x), residual_level_error=float(level)))
    return out


@dataclass(frozen=True)
class NumericReport:
    samples: int
    max_moment_residual: float
    max_level_residual: float
    local_freeness_agrees: bool
    kernel_rank_agrees: bool
    kernel_rank_rate: float
    transversality_agrees: bool
    discarded_ill_conditioned: int
    tolerances: dict


def run_numeric_report(analysis: Analysis, samples: int = 100, seed: int = 0,
                       tol: float = 1e-8, fd_step: float = 1e-5) -> NumericReport:
    """Aggregate numeric verification over sampled level points.

    Deterministic for fixed (input, samples, seed, tol, fd_step).
    """
    data = analysis.data
    pts = sample_level_points(analysis, samples, seed)
    rng = random.Random(seed ^ 0x5EED)
    max_moment = 0.0
    max_level = 0.0
    free_ok = True
    trans_ok = True
    rank_hits = 0
    rank_total = 0
    discarded = 0
    for pt in pts:
        eps = [rng.uniform(-2.0, 2.0) for _ in range(data.N)]
        max_moment = max(max_moment, float(check_moment_equation(pt.z, eps, fd_step)))
        max_level = max(max_level, pt.residual_level_error)
        lf = check_local_freeness(data, pt.z, tol)
        tv = check_groupoid_transversality(data, pt.z, tol)
        free_ok = free_ok and lf
        trans_ok = trans_ok and (tv == lf)
        try:
            got, expected = check_reduced_kernel_rank(data, pt.z, tol)
        except IllConditioned:
            discarded += 1
            continue
        rank_total += 1
        if got == expected:
            rank_hits += 1
    rate = rank_hits / rank_total if rank_total else 1.0
    return NumericReport(
        samples=len(pts),
        max_moment_residual=max_moment,
        max_level_residual=max_level,
        local_freeness_agrees=free_ok,
        kernel_rank_agrees=rate >= 0.99,
        kernel_rank_rate=rate,
        transversality_agrees=trans_ok,
        discarded_ill_conditioned=discarded,
        tolerances={"rank_tol": tol, "fd_step": fd_step},
    )
