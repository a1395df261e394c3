"""Small named examples used by the demos and the test suite.

Each builder returns a fully validated ToricStackData. The names describe
the resulting quotient: the projective line and plane, the teardrop
orbifold (a football with one smooth pole), a finite gerbe over a point,
and deliberately degenerate inputs (irregular level, empty level).
"""

from __future__ import annotations

from .geometry import ToricStackData, toric_stack_data
from .lattice import identity


def projective_line() -> ToricStackData:
    """N = 2, standard lattice, B = [1 -1], level lift (1, 0): a segment."""
    return toric_stack_data(identity(2), [[1, -1]], [1, 0])


def projective_plane() -> ToricStackData:
    """N = 3, standard lattice, reduction by the diagonal circle: a triangle."""
    return toric_stack_data(identity(3), [[1, -1, 0], [0, 1, -1]], [1, 0, 0])


def teardrop() -> ToricStackData:
    """B = [2 -1], level lift (0, 2): an orbifold sphere with one Z/2 point."""
    return toric_stack_data(identity(2), [[2, -1]], [0, 2])


def gerbe_over_point() -> ToricStackData:
    """N = 1, index-two lattice, no residual torus: a Z/2 gerbe over a point."""
    return toric_stack_data([[2]], [], [1])


def full_rank_square() -> ToricStackData:
    """B = identity on N = 2: the subgroup is trivial, so nothing is quotiented
    away; the moment image is an unbounded shifted quadrant with one vertex."""
    return toric_stack_data(identity(2), [[1, 0], [0, 1]], [1, 1])


def irregular_origin() -> ToricStackData:
    """Projective-line data at level lift (0, 0): the origin is a singular
    level, witnessed by the face where both coordinates vanish."""
    return toric_stack_data(identity(2), [[1, -1]], [0, 0])


def empty_level() -> ToricStackData:
    """Level lift (-1, -1) with B = [1 -1]: the slice misses the orthant."""
    return toric_stack_data(identity(2), [[1, -1]], [-1, -1])


ALL = {
    "projective_line": projective_line,
    "projective_plane": projective_plane,
    "teardrop": teardrop,
    "gerbe_over_point": gerbe_over_point,
    "full_rank_square": full_rank_square,
    "irregular_origin": irregular_origin,
    "empty_level": empty_level,
}
