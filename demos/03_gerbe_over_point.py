"""A Z/2 gerbe over a point: generic inertia without any orbifold locus.

Take N = 1 with the index-two sublattice 2Z presenting an extension of the
circle by Z/2, reduce by the whole extended circle at level 1. The quotient
is zero-dimensional, yet every point carries the Z/2 automorphism group:
the finite kernel of the covering acts trivially and survives as inertia.
"""

from toricstacks import analyze
from toricstacks.corpus import gerbe_over_point


def main():
    data = gerbe_over_point()
    print("input: N = 1, sublattice index =", data.gamma.order,
          " level lift =", list(data.a_lift))

    summary = analyze(data).summary
    print("regular:", summary.regular)
    print("real dimension:", summary.dimension)
    print("residual torus rank:", summary.residual_torus_dim)
    print("generic inertia (gerbe) group:", summary.gerbe)
    assert summary.gerbe.invariant_factors == (2,)
    print("=> a point with a two-element automorphism group at every point")


if __name__ == "__main__":
    main()
