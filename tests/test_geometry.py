"""Exact polyhedral geometry of the level slice."""

import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from toricstacks import corpus
from toricstacks.errors import DimensionMismatch, IrregularLevel
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


def _subset_vertices(B, a_lift):
    """Every lambda where n independent rows of a + B^T lambda >= 0 are tight
    and the rest hold, found by trying each n-subset of the N rows."""
    n, N = len(B), len(a_lift)
    found = set()
    for J in itertools.combinations(range(N), n):
        M = sympy.Matrix([[B[i][j] for i in range(n)] for j in J])
        if M.rank() < n:
            continue
        rhs = sympy.Matrix([-sympy.Rational(a_lift[j].numerator, a_lift[j].denominator)
                            for j in J])
        lam = [Fraction(int(x.p), int(x.q)) for x in M.LUsolve(rhs)] if n else []
        if all(a_lift[j] + sum(B[i][j] * lam[i] for i in range(n)) >= 0
               for j in range(N)):
            found.add(tuple(lam))
    return tuple(sorted(found))


@settings(max_examples=120, deadline=None)
@given(_full_row_rank_input())
@example((3, [[1, 0, -1], [0, 1, -1]], [Fraction(0), Fraction(0), Fraction(1)]))  # bounded
@example((3, [[0, 0, 1]], [Fraction(1), Fraction(1), Fraction(1)]))  # unbounded
@example((2, [[1, 1]], [Fraction(-1), Fraction(-1)]))  # empty
def test_vertices_match_subset_enumeration(inp):
    # vertices are read off the meeting faces of rank n; the reference tries
    # every n-subset of the inequalities
    N, B, a_lift = inp
    data = toric_stack_data(identity(N), B, a_lift, N=N)
    assert analyze(data).polytope.v_rep == _subset_vertices(B, a_lift)


# ---------------------------------------------------------------------------
# Volume against closed forms and a floating-point convex hull
# ---------------------------------------------------------------------------

def _simplex_B(n):
    """[I_n | -1]: the simplex of side sum(a_lift)."""
    return [[int(i == j) for j in range(n)] + [-1] for i in range(n)]


def _block_diag(B1, B2):
    w1, w2 = len(B1[0]), len(B2[0])
    return [row + [0] * w2 for row in B1] + [[0] * w1 + row for row in B2]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_simplex_volume_closed_form(n):
    a = [Fraction(k + 1, 3) for k in range(n + 1)]
    data = toric_stack_data(identity(n + 1), _simplex_B(n), a)
    assert analyze(data).volume == sum(a) ** n


@pytest.mark.parametrize("lows, highs", [
    ([Fraction(1, 2)], [Fraction(3, 4)]),
    ([1, Fraction(1, 3)], [2, Fraction(1, 5)]),
    ([1, 2, Fraction(1, 2)], [Fraction(1, 7), 1, 3]),
    ([1] * 6, [1] * 6),  # N = 12
    ([1] * 7, [1] * 7),  # N = 14: volume 7! * 2^7
], ids=["segment", "rectangle", "box", "6-cube", "7-cube"])
def test_box_volume_closed_form(lows, highs):
    # [I_n | -I_n] at level (lows, highs): the box prod_i [-low_i, high_i]
    n = len(lows)
    B = [[int(i == j) for j in range(n)] + [-int(i == j) for j in range(n)]
         for i in range(n)]
    data = toric_stack_data(identity(2 * n), B, lows + highs)
    sides = [Fraction(lo) + hi for lo, hi in zip(lows, highs)]
    assert analyze(data).volume == factorial(n) * prod(sides)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 2), (2, 3)])
def test_product_of_simplices_volume_closed_form(p, q):
    a1 = [Fraction(k + 1, 2) for k in range(p + 1)]
    a2 = [Fraction(1, k + 2) for k in range(q + 1)]
    data = toric_stack_data(identity(p + q + 2), _block_diag(_simplex_B(p), _simplex_B(q)),
                            a1 + a2)
    assert analyze(data).volume == comb(p + q, p) * sum(a1) ** p * sum(a2) ** q


@st.composite
def _bounded_input(draw):
    """[M | -M.1] with M of rank n: the columns positively span R^n, so the
    polytope is bounded for every level."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(n, n + 2))
    M = draw(st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k),
                      min_size=n, max_size=n)
             .filter(lambda m: rank(qmat(m)) == n))
    B = [row + [-sum(row)] for row in M]
    a_lift = draw(st.lists(st.fractions(-1, 4, max_denominator=3),
                           min_size=k + 1, max_size=k + 1))
    return B, a_lift


@settings(max_examples=150, deadline=None)
@given(_bounded_input())
def test_volume_matches_convex_hull(inp):
    B, a_lift = inp
    n, N = len(B), len(a_lift)
    a = analyze(toric_stack_data(identity(N), B, a_lift, N=N))
    assume(a.verdict.regular and not a.polytope.empty)
    assert a.polytope.bounded
    verts = [[float(x) for x in v] for v in a.polytope.v_rep]
    if n == 1:
        euclidean = max(v[0] for v in verts) - min(v[0] for v in verts)
    else:
        euclidean = ConvexHull(verts).volume
    assert float(a.volume) == pytest.approx(factorial(n) * euclidean, rel=1e-9)


def test_irregular_bounded_volume_raises():
    # the level at the origin is the single point lambda = 0
    a = analyze(corpus.irregular_origin())
    assert a.polytope.bounded and not a.polytope.empty
    with pytest.raises(IrregularLevel):
        a.volume
