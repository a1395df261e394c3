"""Floating-point verification layer."""

import math
import random

import numpy as np
import pytest

from toricstacks import corpus
from toricstacks.errors import EmptyInterior
from toricstacks.geometry import analyze, toric_stack_data
from toricstacks.lattice import identity
from toricstacks.numeric import (
    GENERATOR_SPEED,
    check_groupoid_transversality,
    check_local_freeness,
    check_moment_equation,
    check_reduced_kernel_rank,
    generator_field,
    omega,
    run_numeric_report,
    sample_level_points,
)


def test_generator_speed_pinned():
    # the generator of the weight-1 rotation at z is exactly -i z
    assert GENERATOR_SPEED == pytest.approx(-1.0 / (2.0 * math.pi))
    z = np.array([1.0 + 0.0j])
    u = generator_field([1], z)
    assert u[0] == pytest.approx(-1j)
    # contraction identity at this z: omega(u, xhat) = d<e_1, mu>(xhat) = 2x
    xhat = np.array([1.0 + 0.0j])
    assert omega(u, xhat) == pytest.approx(-2.0 * u[0].imag)


def test_omega_antisymmetric_and_normalized():
    rng = random.Random(3)
    u = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])
    v = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4)])
    assert omega(u, v) == pytest.approx(-omega(v, u))
    # on the first coordinate plane: omega(xhat, yhat) = 2
    e = np.zeros(4, dtype=complex)
    e[0] = 1.0
    assert omega(e, 1j * e) == pytest.approx(2.0)


def test_moment_equation_zero_speed_is_exact():
    z = np.array([0.3 + 0.4j, -1.2 + 0.1j])
    assert check_moment_equation(z, [0.0, 0.0], 1e-5) == 0.0


def test_moment_equation_residual_scales_quadratically():
    z = np.array([0.3 + 0.4j, -0.2 + 0.9j, 1.1 - 0.5j])
    eps = [1.3, -0.7, 0.4]
    r1 = check_moment_equation(z, eps, 1e-3)
    r2 = check_moment_equation(z, eps, 5e-4)
    assert r1 < 1e-5
    assert 3.5 < r1 / r2 < 4.5


def test_moment_equation_additive_for_disjoint_supports():
    # residuals add across coordinates that separate the two speed vectors
    z = np.array([0.8 + 0.1j, -0.3 + 0.6j])
    e1 = [1.7, 0.0]
    e2 = [0.0, -0.9]
    both = check_moment_equation(z, [1.7, -0.9], 1e-4)
    r1 = check_moment_equation(z, e1, 1e-4)
    r2 = check_moment_equation(z, e2, 1e-4)
    assert both <= r1 + r2 + 1e-12


def test_local_freeness_matches_regularity_on_level():
    data = corpus.projective_line()
    for pt in sample_level_points(analyze(data), 25, seed=7):
        assert check_local_freeness(data, pt.z)
        assert check_groupoid_transversality(data, pt.z)


def test_local_freeness_fails_at_fixed_point():
    data = corpus.irregular_origin()
    z0 = np.zeros(2, dtype=complex)  # the singular level set is the origin
    assert not check_local_freeness(data, z0)
    assert not check_groupoid_transversality(data, z0)


def test_reduced_kernel_rank_on_sphere():
    data = corpus.projective_line()
    for pt in sample_level_points(analyze(data), 10, seed=11):
        got, expected = check_reduced_kernel_rank(data, pt.z)
        assert expected == 1
        assert got == expected


def test_reduced_kernel_rank_trivial_subgroup():
    data = corpus.full_rank_square()
    # the level set misses no directions: omega restricted to ker(dmu) of a
    # 2-dimensional level in C^2 has kernel dim = dim A = 0
    for pt in sample_level_points(analyze(data), 5, seed=2):
        got, expected = check_reduced_kernel_rank(data, pt.z)
        assert expected == 0
        assert got == expected


@pytest.mark.parametrize("N", [2, 3])
def test_reduced_kernel_rank_whole_torus(N):
    # B is empty, so A is the whole torus and the level set is a Lagrangian
    # torus orbit: omega restricted to it vanishes, every direction is kernel
    data = toric_stack_data(identity(N), [], list(range(1, N + 1)))
    for pt in sample_level_points(analyze(data), 10, seed=5):
        assert check_reduced_kernel_rank(data, pt.z) == (N, N)


def test_sample_level_points_deterministic_and_on_level():
    data = corpus.teardrop()
    a = sample_level_points(analyze(data), 8, seed=5)
    b = sample_level_points(analyze(data), 8, seed=5)
    for p, q in zip(a, b):
        assert np.array_equal(p.z, q.z)
        assert p.moduli == q.moduli
    for p in a:
        assert p.residual_level_error < 1e-12
        # exact moduli satisfy the level equation exactly
        lie = data.subgroup.lie_algebra_basis
        for i in range(lie.shape[0]):
            assert sum(int(lie[i, j]) * (p.moduli[j] - data.a_lift[j])
                       for j in range(data.N)) == 0


def test_sample_level_points_empty_interior():
    with pytest.raises(EmptyInterior):
        sample_level_points(analyze(corpus.empty_level()), 3, seed=0)
    with pytest.raises(EmptyInterior):
        sample_level_points(analyze(corpus.irregular_origin()), 3, seed=0)


def test_run_numeric_report_aggregates():
    rep = run_numeric_report(analyze(corpus.teardrop()), samples=30, seed=1)
    assert rep.samples == 30
    assert rep.max_moment_residual < 1e-6
    assert rep.max_level_residual < 1e-12
    assert rep.local_freeness_agrees
    assert rep.transversality_agrees
    assert rep.kernel_rank_agrees and rep.kernel_rank_rate >= 0.99
    assert rep.tolerances == {"rank_tol": 1e-8, "fd_step": 1e-5}


def test_run_numeric_report_gerbe_fixture():
    rep = run_numeric_report(analyze(corpus.gerbe_over_point()), samples=10, seed=4)
    assert rep.local_freeness_agrees and rep.kernel_rank_agrees
