"""Stabilizer groups, gerbe, effectiveness, stages verification."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix, ZZ, diag
from sympy.matrices.normalforms import invariant_factors, smith_normal_decomp

from toricstacks import corpus
from toricstacks.errors import InfiniteStabilizer, IrregularLevel, NestingViolated
from toricstacks.geometry import OrthantFace, analyze, meeting_faces, toric_stack_data
from toricstacks.invariants import (
    inertia_table,
    labeled_polytope,
    stabilizer_on_face,
    stages_verify,
)
from toricstacks.lattice import identity


def test_teardrop_stabilizers_frozen():
    data = corpus.teardrop()
    assert stabilizer_on_face(data, OrthantFace(())).is_trivial
    assert stabilizer_on_face(data, OrthantFace((0,))).invariant_factors == (2,)
    assert stabilizer_on_face(data, OrthantFace((1,))).is_trivial


def test_teardrop_inertia_table_and_labels():
    a = analyze(corpus.teardrop())
    table = inertia_table(a)
    assert [(r.face.zeros, r.group.invariant_factors) for r in table] == [
        ((), ()), ((0,), (2,)), ((1,), ()),
    ]
    assert [r.is_generic for r in table] == [True, False, False]
    assert labeled_polytope(a).facet_labels == (2, 1)


def test_projective_corpus_all_trivial_inertia():
    for build in (corpus.projective_line, corpus.projective_plane):
        a = analyze(build())
        assert all(r.group.is_trivial for r in inertia_table(a))
        poly = labeled_polytope(a)
        assert all(l == 1 for l in poly.facet_labels)


def test_weighted_vertex_stabilizer():
    # B = [1 -3]: the kernel circle {(3s, s)} acts with weight 3 on z_0 and
    # weight 1 on z_1, so the pole z_1 = 0 carries a Z/3 stabilizer
    data = toric_stack_data(identity(2), [[1, -3]], [3, 0])
    assert stabilizer_on_face(data, OrthantFace((1,))).invariant_factors == (3,)
    assert stabilizer_on_face(data, OrthantFace((0,))).is_trivial


def _brute_force_stabilizer_order(data, zeros, max_den=6):
    """Count cosets t + lattice_hat with B t integral and t_j in Z off J.

    Enumerates a rational grid over [0, 2)^N, which contains a fundamental
    domain for every lattice_hat in the corpus; cosets are distinguished by
    their lattice_hat-coordinates reduced mod 1. Only sound for groups of
    exponent dividing max_den.
    """
    N = data.N
    from toricstacks.rational import inv, qmat
    Linv = inv(qmat(data.lattice_hat))
    seen = set()
    for num in itertools.product(range(2 * max_den), repeat=N):
        t = [Fraction(v, max_den) for v in num]
        if any((sum(Fraction(int(data.B[i, j])) * t[j] for j in range(N))
                ).denominator != 1 for i in range(data.n)):
            continue
        if any(t[j].denominator != 1 for j in range(N) if j not in zeros):
            continue
        coords = tuple(
            (c := sum(t[k] * Linv[k, j] for k in range(N))) - c.__floor__()
            for j in range(N)
        )
        seen.add(coords)
    return len(seen)


@pytest.mark.parametrize("build,zeros", [
    (corpus.teardrop, (0,)),
    (corpus.teardrop, (1,)),
    (corpus.gerbe_over_point, ()),
    (corpus.projective_line, (0,)),
])
def test_stabilizer_order_against_brute_force(build, zeros):
    data = build()
    order = stabilizer_on_face(data, OrthantFace(zeros)).order
    assert order == _brute_force_stabilizer_order(data, zeros)


def _primal_stabilizer_factors(lattice_hat, B, zeros):
    """Invariant factors of L/lattice_hat from an explicit basis of L, or None.

    With D = S C T the sympy Smith form of the congruence matrix C (rows of
    B, then e_j off the face), L = {t : C t in Z^m} has the row basis
    diag(1/d) T^T, so the rows of lattice_hat have the integer coordinates
    lattice_hat T^-T diag(d) in it. None means L is not a lattice
    (rank C < N), i.e. the stabilizer is infinite.
    """
    N = len(lattice_hat)
    C = Matrix([list(r) for r in B] +
               [[int(j == k) for k in range(N)] for j in range(N) if j not in zeros])
    if C.rows == 0 or C.rank() < N:
        return None
    D, S, T = smith_normal_decomp(C, domain=ZZ)
    assert S * C * T == D
    coords = Matrix(lattice_hat) * T.inv().T * diag(*[D[i, i] for i in range(N)])
    assert all(x.is_integer for x in coords)
    return tuple(abs(int(d)) for d in invariant_factors(coords, domain=ZZ)
                 if abs(int(d)) != 1)


@st.composite
def _dense_stack_input(draw):
    N = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    lattice_hat = draw(st.lists(st.lists(entry, min_size=N, max_size=N),
                                min_size=N, max_size=N)
                       .filter(lambda m: Matrix(m).det() != 0))
    n = draw(st.integers(0, N))
    B = draw(st.lists(st.lists(entry, min_size=N, max_size=N),
                      min_size=n, max_size=n)
             .filter(lambda m: not m or Matrix(m).rank() == len(m)))
    return lattice_hat, B


@settings(max_examples=80, deadline=None)
@given(_dense_stack_input())
def test_stabilizer_matches_primal_reference_on_every_face(inp):
    lattice_hat, B = inp
    N = len(lattice_hat)
    data = toric_stack_data(lattice_hat, B, [0] * N, N=N)
    for size in range(N + 1):
        for zeros in itertools.combinations(range(N), size):
            expected = _primal_stabilizer_factors(lattice_hat, B, zeros)
            if expected is None:
                with pytest.raises(InfiniteStabilizer):
                    stabilizer_on_face(data, OrthantFace(zeros))
            else:
                got = stabilizer_on_face(data, OrthantFace(zeros))
                assert got.invariant_factors == expected, zeros


def test_stabilizer_monotone_along_faces():
    for build in (corpus.teardrop, corpus.projective_plane):
        data = build()
        faces = meeting_faces(data)
        groups = {f.zeros: stabilizer_on_face(data, f) for f in faces}
        for f in faces:
            for g in faces:
                if set(f.zeros) <= set(g.zeros):
                    assert groups[g.zeros].order % groups[f.zeros].order == 0


def test_gerbe_identity_generic_stabilizer_is_gamma():
    for name, build in corpus.ALL.items():
        data = build()
        summary = analyze(data).summary
        if summary.regular and not summary.empty:
            assert summary.gerbe.invariant_factors == \
                data.gamma.invariant_factors, name


def test_gerbe_fixture_summary():
    summary = analyze(corpus.gerbe_over_point()).summary
    assert summary.dimension == 0
    assert summary.residual_torus_dim == 0
    assert summary.gerbe.invariant_factors == (2,)
    assert summary.effective and summary.regular and not summary.empty


def test_projective_line_summary():
    s = analyze(corpus.projective_line()).summary
    assert (s.dimension, s.residual_torus_dim) == (2, 1)
    assert s.gerbe.is_trivial and s.effective and s.regular and not s.empty


def test_empty_summary():
    s = analyze(corpus.empty_level()).summary
    assert s.empty and s.regular
    assert s.dimension is None and s.gerbe is None and s.effective is None


def test_irregular_summary_and_errors():
    a = analyze(corpus.irregular_origin())
    s = a.summary
    assert not s.regular and s.dimension is None
    # effectiveness is only defined on regular levels
    assert s.effective is None
    with pytest.raises(IrregularLevel):
        inertia_table(a)


def test_effectiveness_on_corpus():
    assert analyze(corpus.teardrop()).summary.effective is True
    assert analyze(corpus.gerbe_over_point()).summary.effective is True


# ---------------------------------------------------------------------------
# Reduction in stages
# ---------------------------------------------------------------------------

def _outer_circle_in_2torus():
    return toric_stack_data(identity(3), [[0, 0, 1]], [1, 1, 1])


def test_stages_circle_in_2torus_consistent():
    rep = stages_verify(_outer_circle_in_2torus(), [[0, 1, 0], [0, 0, 1]])
    assert rep.consistent and rep.detail is None
    assert rep.one_shot["dimension"] == 2
    assert rep.one_shot == rep.staged


def test_stages_equal_subgroups_trivial():
    outer = corpus.projective_line()
    rep = stages_verify(outer, [[1, -1]])
    assert rep.consistent
    assert rep.one_shot["f_vector"] == (2, 1)


def test_stages_teardrop_in_full_torus():
    outer = toric_stack_data(identity(2), [], [2, 2])
    rep = stages_verify(outer, [[2, -1]])
    assert rep.consistent
    assert rep.one_shot["dimension"] == 0


def test_stages_nesting_violation():
    # ker([[1,-1,0]]) is 2-dimensional and not inside ker of the outer circle
    outer = corpus.projective_plane()
    with pytest.raises(NestingViolated):
        stages_verify(outer, [[1, -1, 0]])


def test_stages_finite_part_nesting_violation():
    # 𝔞1 = 0 in both, but the finite kernel of B1 = [[2,0],[0,1]] contains a
    # half-integer point that B2 = [[1,0],[0,1]] pairs to a non-integer
    outer = toric_stack_data(identity(2), [[1, 0], [0, 1]], [1, 1])
    with pytest.raises(NestingViolated):
        stages_verify(outer, [[2, 0], [0, 1]])


def test_stages_irregular_inner_rejected():
    outer = toric_stack_data(identity(2), [], [0, 0])
    with pytest.raises(IrregularLevel):
        stages_verify(outer, [[1, -1]])


def test_stages_declared_block():
    outer = _outer_circle_in_2torus()
    good = {"dimension": 2, "gerbe": [], "vertex_inertia": [[]],
            "f_vector": [1, 1], "volume": None}
    assert stages_verify(outer, [[0, 1, 0], [0, 0, 1]], declared=good).consistent
    bad = dict(good, vertex_inertia=[[2]])
    rep = stages_verify(outer, [[0, 1, 0], [0, 0, 1]], declared=bad)
    assert not rep.consistent and rep.detail == "vertex_inertia"
