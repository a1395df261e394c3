"""Acceptance gate: ten verifiable criteria, one printed verdict line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines; each criterion is also an ordinary assertion.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from toricstacks import corpus
from toricstacks.geometry import OrthantFace, analyze, toric_stack_data
from toricstacks.invariants import (
    inertia_table,
    labeled_polytope,
    stabilizer_on_face,
    stages_verify,
)
from toricstacks.lattice import cokernel_structure, det, identity, imat, smith_normal_form
from toricstacks.numeric import (
    check_local_freeness,
    check_moment_equation,
    run_numeric_report,
    sample_level_points,
)
from toricstacks.rational import qmat, rank


def _verdict(num: int, description: str, ok: bool, elapsed: float, budget: float):
    in_time = elapsed < budget
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"[{status}] criterion {num:2d}: {description} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {description}"
    assert in_time, f"criterion {num} overran its budget: {elapsed:.2f}s"


def test_criterion_01_classical_projective_corpus():
    t0 = time.perf_counter()
    ok = True
    for build, nverts in ((corpus.projective_line, 2), (corpus.projective_plane, 3)):
        data = build()
        a = analyze(data)
        s = a.summary
        poly = a.polytope
        table = inertia_table(a)
        ok = ok and s.regular and s.effective and s.gerbe.is_trivial
        ok = ok and s.dimension == 2 * data.n  # twice the residual torus rank
        ok = ok and len(poly.v_rep) == nverts
        ok = ok and all(r.group.is_trivial for r in table)
    # segment of lattice length 1
    seg = analyze(corpus.projective_line()).polytope.v_rep
    ok = ok and seg[1][0] - seg[0][0] == 1
    _verdict(1, "classical projective corpus (segment and triangle)",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_teardrop_inertia_and_labels():
    t0 = time.perf_counter()
    a = analyze(corpus.teardrop())
    table = {r.face.zeros: r.group.invariant_factors for r in inertia_table(a)}
    ok = table == {(): (), (0,): (2,), (1,): ()}
    ok = ok and labeled_polytope(a).facet_labels == (2, 1)
    _verdict(2, "teardrop inertia table and facet labels (2, 1)",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_gerbe_fixture():
    t0 = time.perf_counter()
    s = analyze(corpus.gerbe_over_point()).summary
    ok = s.dimension == 0 and s.gerbe.invariant_factors == (2,)
    ok = ok and s.regular and not s.empty
    _verdict(3, "index-two gerbe over a point (dim 0, Z/2 generic inertia)",
             ok, time.perf_counter() - t0, 1.0)


def test_criterion_04_regularity_matches_local_freeness():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for name, build in corpus.ALL.items():
        data = build()
        a = analyze(data)
        verdict = a.verdict
        if verdict.regular and any(len(f.zeros) == 0 for f in a.faces):
            pts = sample_level_points(a, 100, seed=42)
            agree = all(check_local_freeness(data, p.z, tol=1e-8) for p in pts)
            ok = ok and agree
            checked += len(pts)
        elif not verdict.regular:
            # the singular level set here degenerates to the fixed point 0
            z0 = np.zeros(data.N, dtype=complex)
            pts = [z0] * 100
            agree = all(not check_local_freeness(data, z, tol=1e-8) for z in pts)
            ok = ok and agree
            checked += len(pts)
    singular = analyze(corpus.irregular_origin()).verdict
    ok = ok and not singular.regular and singular.witness.zeros == (0, 1)
    ok = ok and checked >= 100 * 6
    _verdict(4, "exact regularity == numeric local freeness on sampled levels",
             ok, time.perf_counter() - t0, 10.0)


def test_criterion_05_moment_equation_residuals():
    t0 = time.perf_counter()
    rng = random.Random(5)
    ok = True
    worst_h5 = 0.0
    r_big = 0.0
    r_half = 0.0
    for _ in range(100):
        N = rng.randint(1, 4)
        z = np.array([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                      for _ in range(N)])
        eps = [rng.uniform(-2, 2) for _ in range(N)]
        worst_h5 = max(worst_h5, check_moment_equation(z, eps, 1e-5))
        # the quadratic convergence rate is measured where truncation error
        # still dominates rounding error
        r_big = max(r_big, check_moment_equation(z, eps, 1e-3))
        r_half = max(r_half, check_moment_equation(z, eps, 5e-4))
    ok = ok and worst_h5 < 1e-6
    ratio = r_big / r_half
    ok = ok and 3.5 <= ratio <= 4.5
    _verdict(5, f"moment-equation residual < 1e-6 at h=1e-5, halving ratio {ratio:.2f}",
             ok, time.perf_counter() - t0, 10.0)


def test_criterion_06_reduced_kernel_rank():
    t0 = time.perf_counter()
    ok = True
    for name in ("projective_line", "projective_plane", "teardrop",
                 "gerbe_over_point", "full_rank_square"):
        rep = run_numeric_report(analyze(corpus.ALL[name]()), samples=40, seed=6)
        ok = ok and rep.kernel_rank_rate >= 0.99
    _verdict(6, "kernel of restricted form has dim A on >= 99% of samples",
             ok, time.perf_counter() - t0, 30.0)


def _random_regular_family(count, seed):
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 100 * count:
        guard += 1
        N = rng.randint(1, 6)
        lattice = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(N)]
        d = det(imat(lattice, cols=N))
        if d == 0 or abs(d) > 12:
            continue
        n = rng.randint(0, N)
        B = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(n)]
        if n and rank(qmat(B)) < n:
            continue
        a = [Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(N)]
        out.append(toric_stack_data(lattice, B, a, N=N))
    return out


def test_criterion_07_conformance_sweep():
    t0 = time.perf_counter()
    family = _random_regular_family(200, seed=20260823)
    violations = 0
    regular_nonempty = 0
    for data in family:
        s = analyze(data).summary
        if not (s.regular and not s.empty):
            continue
        regular_nonempty += 1
        generic = stabilizer_on_face(data, OrthantFace(()))
        if not (s.effective and s.dimension == 2 * data.n
                and generic.invariant_factors == data.gamma.invariant_factors):
            violations += 1
    ok = len(family) >= 200 and violations == 0 and regular_nonempty > 0
    _verdict(7, f"conformance sweep: {regular_nonempty}/{len(family)} regular "
                f"nonempty, {violations} violations",
             ok, time.perf_counter() - t0, 60.0)


def test_criterion_08_snf_properties_bulk():
    t0 = time.perf_counter()
    rng = random.Random(8)
    violations = 0
    for _ in range(1000):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = imat([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)])
        snf = smith_normal_form(M)
        good = np.array_equal(snf.U @ M @ snf.V, snf.D)
        good = good and abs(det(snf.U)) == 1 and abs(det(snf.V)) == 1
        diag = snf.diagonal
        nz = [x for x in diag if x]
        good = good and all(x >= 0 for x in diag)
        good = good and all(b % a == 0 for a, b in zip(nz, nz[1:]))
        good = good and diag[:len(nz)] == tuple(nz)
        if m == n and det(M) != 0:
            good = good and cokernel_structure(M).order == abs(det(M))
        if not good:
            violations += 1
    _verdict(8, f"SNF bulk properties on 1000 random matrices, "
                f"{violations} violations",
             violations == 0, time.perf_counter() - t0, 30.0)


def test_criterion_09_stages_fixtures():
    t0 = time.perf_counter()
    outer1 = toric_stack_data(identity(3), [[0, 0, 1]], [1, 1, 1])
    r1 = stages_verify(outer1, [[0, 1, 0], [0, 0, 1]])
    r2 = stages_verify(corpus.projective_line(), [[1, -1]])
    outer3 = toric_stack_data(identity(2), [], [2, 2])
    r3 = stages_verify(outer3, [[2, -1]])
    corrupted = stages_verify(
        outer1, [[0, 1, 0], [0, 0, 1]],
        declared={"dimension": 2, "gerbe": [], "vertex_inertia": [[2]],
                  "f_vector": [1, 1]},
    )
    ok = r1.consistent and r2.consistent and r3.consistent
    ok = ok and not corrupted.consistent
    _verdict(9, "three stages fixtures consistent, corrupted control rejected",
             ok, time.perf_counter() - t0, 5.0)


def _random_unimodular(n, rng):
    U = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        q = rng.randint(-2, 2)
        U[i] = [x + q * y for x, y in zip(U[i], U[j])]
    if rng.random() < 0.5 and n:
        U[0] = [-x for x in U[0]]
    return imat(U, cols=n)


def _comparable_signature(data):
    a = analyze(data)
    sig = {"regular": a.verdict.regular, "f_vector": a.polytope.f_vector}
    s = a.summary
    if s.regular and not s.empty:
        sig["gerbe"] = s.gerbe.invariant_factors
        sig["dimension"] = s.dimension
        sig["labels"] = tuple(sorted(labeled_polytope(a).facet_labels))
    return sig


def test_criterion_10_unimodular_invariance():
    t0 = time.perf_counter()
    rng = random.Random(10)
    ok = True
    for name, build in corpus.ALL.items():
        base = build()
        reference = _comparable_signature(base)
        n = base.n
        for _ in range(20):
            U = _random_unimodular(n, rng)
            newB = imat(U @ base.B, cols=base.N) if n else base.B
            data = toric_stack_data(base.lattice_hat, newB,
                                    list(base.a_lift), N=base.N)
            if _comparable_signature(data) != reference:
                ok = False
    _verdict(10, "invariants stable under unimodular change of B",
             ok, time.perf_counter() - t0, 30.0)
