"""Exact polyhedral geometry of the level slice."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricstacks import corpus
from toricstacks.errors import DimensionMismatch
from toricstacks.geometry import (
    OrthantFace,
    analyze,
    face_meets_slice,
    meeting_faces,
    toric_stack_data,
)
from toricstacks.lattice import identity
from toricstacks.rational import feasible, qmat, rank


def _zeros(faces):
    return [f.zeros for f in faces]


def test_orthant_face_normalizes():
    f = OrthantFace((2, 0, 2))
    assert f.zeros == (0, 2)
    assert len(f) == 2


def test_projective_line_faces_and_polytope():
    data = corpus.projective_line()
    assert _zeros(meeting_faces(data)) == [(), (0,), (1,)]
    a = analyze(data)
    poly = a.polytope
    assert poly.v_rep == ((Fraction(-1),), (Fraction(0),))
    assert poly.f_vector == (2, 1)
    assert poly.bounded and not poly.empty
    assert a.volume == 1  # segment of lattice length 1


def test_projective_plane_polytope():
    a = analyze(corpus.projective_plane())
    poly = a.polytope
    assert set(poly.v_rep) == {
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(-1), Fraction(-1)),
    }
    assert poly.f_vector == (3, 3, 1)
    assert a.volume == 1


def test_teardrop_polytope():
    data = corpus.teardrop()
    a = analyze(data)
    assert a.polytope.v_rep == ((Fraction(0),), (Fraction(2),))
    assert face_meets_slice(data, OrthantFace(()))
    assert a.meets_interior


def test_slice_constancy_on_strata():
    # whether a face meets depends only on the face, tested via supersets
    data = corpus.projective_plane()
    meeting = set(_zeros(meeting_faces(data)))
    for f in [(), (0,), (1,), (2,), (0, 1), (1, 2)]:
        assert f in meeting
    assert (0, 2) in meeting or not face_meets_slice(data, OrthantFace((0, 2)))


def test_toric_stack_data_rejects_mismatched_ambient():
    # B acts on T^3 but the extension covers T^2
    with pytest.raises(DimensionMismatch):
        toric_stack_data(identity(2), [[1, 1, 1]], [0, 0], N=2)


def test_irregular_witness():
    verdict = analyze(corpus.irregular_origin()).verdict
    assert not verdict.regular
    assert verdict.witness.zeros == (0, 1)


def test_regular_corpus_verdicts():
    for name in ("projective_line", "projective_plane", "teardrop",
                 "gerbe_over_point", "full_rank_square", "empty_level"):
        assert analyze(corpus.ALL[name]()).verdict.regular, name


def test_empty_level():
    data = corpus.empty_level()
    assert meeting_faces(data) == []
    a = analyze(data)
    assert a.polytope.empty and a.polytope.v_rep == ()
    assert a.volume == 0


def test_point_polytope_n_zero():
    a = analyze(corpus.gerbe_over_point())
    poly = a.polytope
    assert poly.n == 0
    assert poly.v_rep == ((),)
    assert poly.f_vector == (1,)
    assert a.volume == 1


def test_unbounded_ray():
    a = analyze(toric_stack_data(identity(3), [[0, 0, 1]], [1, 1, 1]))
    poly = a.polytope
    assert not poly.bounded
    assert a.volume is None
    assert poly.f_vector == (1, 1)


def test_full_rank_square_quadrant():
    a = analyze(corpus.full_rank_square())
    poly = a.polytope
    assert poly.v_rep == ((Fraction(-1), Fraction(-1)),)
    assert not poly.bounded
    assert poly.f_vector == (1, 2, 1)
    assert a.volume is None


def test_redundant_facet_flagged():
    # third inequality 0*lambda + 1 >= 0 never becomes a facet
    data = toric_stack_data(identity(3), [[1, -1, 0]], [1, 0, 1])
    assert analyze(data).polytope.redundant == (False, False, True)


def test_rational_level():
    a = analyze(toric_stack_data(identity(2), [[1, -1]], ["1/2", "0"]))
    assert a.polytope.v_rep == ((Fraction(-1, 2),), (Fraction(0),))
    assert a.volume == Fraction(1, 2)


@st.composite
def _full_row_rank_input(draw):
    N = draw(st.integers(1, 4))
    n = draw(st.integers(0, N))
    B = draw(st.lists(st.lists(st.integers(-3, 3), min_size=N, max_size=N),
                      min_size=n, max_size=n)
             .filter(lambda m: not m or rank(qmat(m)) == len(m)))
    a_lift = draw(st.lists(st.fractions(-4, 4, max_denominator=3),
                           min_size=N, max_size=N))
    return N, B, a_lift


@settings(max_examples=120, deadline=None)
@given(_full_row_rank_input())
def test_polytope_empty_iff_closed_system_infeasible(inp):
    # emptiness is read off the meeting faces; the reference decides the
    # closed system a + B^T lambda >= 0 directly
    N, B, a_lift = inp
    data = toric_stack_data(identity(N), B, a_lift, N=N)
    closed = [([Fraction(B[i][j]) for i in range(len(B))], Fraction(a_lift[j]), False)
              for j in range(N)]
    assert analyze(data).polytope.empty == (not feasible([], closed, len(B)))
