"""Reduction in stages: quotient by a subgroup first, the rest second.

Reducing C^3 by the coordinate 2-torus in one shot must agree with first
reducing by a coordinate circle inside it and then by the remaining circle.
The verifier computes both sides independently and compares dimension,
gerbe, vertex inertia, f-vector, and normalized volume; a deliberately
corrupted declaration is shown to be caught.
"""

from toricstacks import analyze, stages_verify, toric_stack_data
from toricstacks.lattice import identity


def main():
    outer = toric_stack_data(identity(3), [[0, 0, 1]], [1, 1, 1])
    inner_B = [[0, 1, 0], [0, 0, 1]]

    a = analyze(outer)
    print("one-shot quotient: dimension", a.summary.dimension,
          "| f-vector", a.polytope.f_vector, "| bounded", a.polytope.bounded)

    rep = stages_verify(outer, inner_B)
    print("one-shot invariants:", rep.one_shot)
    print("staged invariants:  ", rep.staged)
    print("consistent:", rep.consistent)

    bad = {"dimension": 2, "gerbe": [], "vertex_inertia": [[2]],
           "f_vector": [1, 1]}
    rep_bad = stages_verify(outer, inner_B, declared=bad)
    print("corrupted declaration consistent:", rep_bad.consistent,
          "| first differing invariant:", rep_bad.detail)


if __name__ == "__main__":
    main()
