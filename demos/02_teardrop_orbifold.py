"""The teardrop orbifold: one smooth pole, one Z/2 cone point.

Reducing C^2 by the circle ker([2 -1]) at level lift (0, 2) yields a
sphere-like quotient whose moment segment carries facet labels (2, 1):
the stabilizer along the x_1 = 0 pole has order two.
"""

from toricstacks import OrthantFace, analyze, inertia_table, labeled_polytope, stabilizer_on_face
from toricstacks.corpus import teardrop


def main():
    data = teardrop()
    print("input: B =", [list(r) for r in data.B],
          " level lift =", list(data.a_lift))

    a = analyze(data)
    poly = labeled_polytope(a)
    print("moment segment:", [tuple(v) for v in poly.v_rep])
    print("facet labels:", poly.facet_labels)

    print("inertia by stratum:")
    for rec in inertia_table(a):
        where = "generic" if rec.is_generic else f"zeros {rec.face.zeros}"
        print(f"  {where}: {rec.group} (order {rec.group.order})")

    # the cone point explicitly: the circle {(s, 2s)} contains (1/2, 1)
    # which acts trivially on the z_1-axis but by -1 on z_0
    cone = stabilizer_on_face(data, OrthantFace((0,)))
    print("stabilizer at the cone point:", cone)


if __name__ == "__main__":
    main()
