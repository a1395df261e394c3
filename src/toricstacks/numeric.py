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
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import EmptyInterior, IllConditioned
from .geometry import Analysis, ToricStackData
from .rational import frac, qmat

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


def _generator_matrix(data: ToricStackData, z: np.ndarray) -> np.ndarray:
    """Real 2N x dim(a) matrix of generators of the subgroup Lie algebra."""
    basis = data.subgroup.lie_algebra_basis
    d = basis.shape[0]
    out = np.zeros((2 * data.N, d))
    z = np.asarray(z, dtype=complex)
    for c in range(d):
        u = generator_field([int(x) for x in basis[c]], z)
        out[0::2, c] = u.real
        out[1::2, c] = u.imag
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
    basis = data.subgroup.lie_algebra_basis
    d = basis.shape[0]
    dmu = np.zeros((d, 2 * N))
    for i in range(d):
        for j in range(N):
            a = float(int(basis[i, j]))
            dmu[i, 2 * j] = 2.0 * a * z[j].real
            dmu[i, 2 * j + 1] = 2.0 * a * z[j].imag
    if d:
        _, svals, vt = np.linalg.svd(dmu)
        thresh = tol * (svals[0] if svals.size else 1.0)
        nker = sum(1 for s in svals if s <= thresh) + (2 * N - len(svals))
        Q = vt[2 * N - nker:].T  # orthonormal basis of ker dmu
    else:
        Q = np.eye(2 * N)

    Om = np.zeros((2 * N, 2 * N))
    for j in range(N):
        Om[2 * j, 2 * j + 1] = 2.0
        Om[2 * j + 1, 2 * j] = -2.0
    W = Q.T @ Om @ Q
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


def sample_level_points(analysis: Analysis, count: int, seed: int) -> list[SamplePoint]:
    """Points of Z with exact-by-construction moduli and random phases.

    Interior lambda values are drawn by rejection from a rational bounding
    box around the vertices (denominator 4096), then z_j = sqrt(x_j) e^{i phi}.
    """
    if not analysis.meets_interior:
        raise EmptyInterior("the slice misses the open orthant; nothing to sample")
    data, poly = analysis.data, analysis.polytope
    n, N = data.n, data.N
    B, a = qmat(data.B), data.a_lift
    rng = random.Random(seed)

    if n == 0:
        boxes = []
    else:
        lo = [min((v[k] for v in poly.v_rep), default=Fraction(0)) - 1 for k in range(n)]
        hi = [max((v[k] for v in poly.v_rep), default=Fraction(0)) + 1 for k in range(n)]
        boxes = list(zip(lo, hi))

    den = 4096
    out = []
    attempts = 0
    max_attempts = 20000 * max(count, 1)
    while len(out) < count:
        attempts += 1
        if attempts > max_attempts:
            raise EmptyInterior("rejection sampling failed to hit the interior")
        lam = [
            Fraction(rng.randrange(int(lo * den), int(hi * den) + 1), den)
            for lo, hi in boxes
        ]
        x = [a[j] + sum(B[i, j] * lam[i] for i in range(n)) for j in range(N)]
        if not all(xj > 0 for xj in x):
            continue
        phases = [rng.random() for _ in range(N)]
        z = np.array(
            [math.sqrt(float(xj)) * cmath.exp(2j * math.pi * p)
             for xj, p in zip(x, phases)],
            dtype=complex,
        )
        out.append(SamplePoint(
            z=z,
            moduli=tuple(x),
            residual_level_error=_level_residual(data, z),
        ))
    return out


def _level_residual(data: ToricStackData, z: np.ndarray) -> float:
    """Relative residual of the subgroup moment level at z."""
    basis = data.subgroup.lie_algebra_basis
    xf = np.abs(np.asarray(z, dtype=complex)) ** 2
    af = np.array([float(v) for v in data.a_lift])
    worst = 0.0
    scale = max(1.0, float(np.max(xf)) if len(xf) else 1.0)
    for i in range(basis.shape[0]):
        row = np.array([float(int(v)) for v in basis[i]])
        worst = max(worst, abs(float(row @ (xf - af))) / scale)
    return worst


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
