"""The projective line as an exact symplectic quotient.

C^2 reduced by the anti-diagonal circle ker(B), B = [1 -1], at level lift
(1, 0). The residual circle's moment image is a unit segment, both poles
are smooth, and the quotient is the round two-sphere of symplectic area
matching the segment length.
"""

from toricstacks import analyze, inertia_table, labeled_polytope
from toricstacks.corpus import projective_line


def main():
    data = projective_line()
    print("input: N =", data.N, " B =", [list(r) for r in data.B],
          " level lift =", list(data.a_lift))

    a = analyze(data)  # each fact below is computed once, when first read
    summary = a.summary
    print("regular level:", summary.regular)
    print("real dimension:", summary.dimension)
    print("gerbe group:", summary.gerbe)
    print("effective residual action:", summary.effective)

    poly = labeled_polytope(a)
    print("moment segment vertices:", [tuple(v) for v in poly.v_rep])
    print("facet labels:", poly.facet_labels)
    print("normalized length:", a.volume)

    print("inertia by stratum:")
    for rec in inertia_table(a):
        where = "generic" if rec.is_generic else f"zeros {rec.face.zeros}"
        print(f"  {where}: {rec.group}")


if __name__ == "__main__":
    main()
