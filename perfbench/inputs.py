"""Seeded inputs for the benchmark workloads.

Every workload is a fixed schedule of cases whose shape (family, size,
subcommand) does not depend on the seed; the seed only picks the level
lifts, the Hirzebruch twist, the weights and the random matrices. Cases are
plain dicts:

    {"name": str, "command": "analyze" | "stages" | "verify",
     "args": [extra CLI arguments], "doc": input JSON, "expect": dict}

`expect` holds what the output checks compare against: closed forms for the
parametric families, the shape of the input for random matrices. The
closed forms are computed here from the family parameters, never from the
program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial, gcd

VERIFY_SAMPLES = 96

# (n, N) rungs of the random workload. From n = 5, N = 7 on, some inputs
# send Fourier-Motzkin elimination past the per-op deadline.
RANDOM_RUNGS = ((2, 6), (2, 8), (2, 11), (3, 7), (3, 8), (4, 6), (5, 6))
# Rungs whose Fourier-Motzkin calls overrun the per-op deadline at the seed.
DEFECT_RUNGS = ((5, 8), (5, 9), (5, 10))


# ---------------------------------------------------------------------------
# exact helpers (independent of the package under test)
# ---------------------------------------------------------------------------

def rank(rows) -> int:
    """Rank of an integer matrix by Fraction elimination."""
    M = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(M[0]) if M else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(M)) if M[i][c] != 0), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(len(M)):
            if i != r and M[i][c] != 0:
                f = M[i][c] / M[r][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        r += 1
    return r


def identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def block_diag(*blocks) -> list[list[int]]:
    width = sum(len(b[0]) for b in blocks)
    out, col = [], 0
    for b in blocks:
        for row in b:
            out.append([0] * col + list(row) + [0] * (width - col - len(row)))
        col += len(b[0])
    return out


def simplex_B(n: int) -> list[list[int]]:
    """[I_n | -1]: reduction of C^(n+1) by the diagonal circle."""
    return [[int(i == j) for j in range(n)] + [-1] for i in range(n)]


def cube_B(n: int) -> list[list[int]]:
    """[I_n | -I_n]: the product of n copies of P^1."""
    return [[int(i == j) for j in range(n)] + [-int(i == j) for j in range(n)]
            for i in range(n)]


def hirzebruch_B(k: int) -> list[list[int]]:
    """Columns are the rays (1,0), (0,1), (-1,k), (0,-1) of the fan of F_k."""
    return [[1, 0, -1, 0], [0, 1, k, -1]]


def weighted_B(w) -> list[list[int]]:
    """A saturated integer basis of the orthogonal complement of w.

    Column operations bring the row w to (g, 0, ..., 0); the transform U is
    unimodular, so its last N-1 columns are a basis of w^perp in Z^N.
    """
    N = len(w)
    row = list(w)
    U = identity(N)
    while sum(1 for x in row[1:] if x) or row[0] < 0:
        if row[0] < 0 and not any(row[1:]):
            row[0] = -row[0]
            for r in U:
                r[0] = -r[0]
            continue
        piv = min((j for j in range(N) if row[j]), key=lambda j: (abs(row[j]), j))
        row[0], row[piv] = row[piv], row[0]
        for r in U:
            r[0], r[piv] = r[piv], r[0]
        for j in range(1, N):
            q = row[j] // row[0]
            if q:
                row[j] -= q * row[0]
                for r in U:
                    r[j] -= q * r[0]
    return [[U[i][j] for i in range(N)] for j in range(1, N)]


def lift(rng: random.Random, lo: int, hi: int, dens=(1, 2, 3, 4)) -> Fraction:
    """A positive rational in [lo, hi] with a small denominator."""
    d = rng.choice(dens)
    return Fraction(rng.randint(lo * d, hi * d), d)


def partition(rng: random.Random, total: Fraction, parts: int) -> list[Fraction]:
    """`total` split into `parts` positive rationals."""
    weights = [rng.randint(1, 4) for _ in range(parts)]
    return [Fraction(total) * w / sum(weights) for w in weights]


def simplex_f(n: int) -> list[int]:
    return [comb(n + 1, k + 1) for k in range(n + 1)]


def cube_f(n: int) -> list[int]:
    return [comb(n, k) * 2 ** (n - k) for k in range(n + 1)]


def product_f(f1, f2) -> list[int]:
    out = [0] * (len(f1) + len(f2) - 1)
    for i, a in enumerate(f1):
        for j, b in enumerate(f2):
            out[i + j] += a * b
    return out


def _doc(B, a, lattice=None, stages=None) -> dict:
    N = len(a)
    doc = {"N": N, "lattice_hat": lattice or identity(N), "B": B,
           "a_lift": [str(x) for x in a]}
    if stages is not None:
        doc["stages"] = {"B_inner": stages}
    return doc


def _case(name, command, doc, expect) -> dict:
    return {"name": name, "command": command, "args": [], "doc": doc, "expect": expect}


# ---------------------------------------------------------------------------
# parametric families with closed forms
# ---------------------------------------------------------------------------

def simplex(rng, n, command="analyze", side=None) -> dict:
    """The simplex of side sum(a); `side` fixes that sum."""
    a = [lift(rng, 1, 3) for _ in range(n + 1)] if side is None else partition(rng, side, n + 1)
    side = sum(a)
    expect = {"family": "simplex", "n": n, "f_vector": simplex_f(n),
              "volume": str(side ** n), "vertex_orders": None}
    stages = simplex_B(n) if command == "stages" else None
    return _case(f"simplex-{n}", command, _doc(simplex_B(n), a, stages=stages), expect)


def cube(rng, n, command="analyze", sides=None) -> dict:
    """The box prod_i [-a_i, a_(n+i)]; `sides` fixes a_i + a_(n+i)."""
    if sides is None:
        a = [lift(rng, 1, 2) for _ in range(2 * n)]
    else:
        low = [Fraction(rng.randint(1, 7), 8) * s for s in sides]
        a = low + [s - x for s, x in zip(sides, low)]
    vol = factorial(n)
    for i in range(n):
        vol *= a[i] + a[n + i]
    expect = {"family": "cube", "n": n, "f_vector": cube_f(n),
              "volume": str(vol), "vertex_orders": None}
    stages = None
    if command == "stages":
        # first stage: the circle of the first P^1 factor only
        stages = [[1] + [0] * (n - 1) + [-1] + [0] * (n - 1)]
        stages += [row for j, row in enumerate(identity(2 * n)) if j not in (0, n)]
    return _case(f"cube-{n}", command, _doc(cube_B(n), a, stages=stages), expect)


def product(rng, p, q, command="analyze", sides=None) -> dict:
    """Delta^p x Delta^q; `sides` fixes the sides of both factors."""
    if sides is None:
        a = [lift(rng, 1, 3) for _ in range(p + q + 2)]
    else:
        a = partition(rng, sides[0], p + 1) + partition(rng, sides[1], q + 1)
    s1, s2 = sum(a[:p + 1]), sum(a[p + 1:])
    vol = Fraction(factorial(p + q), factorial(p) * factorial(q)) * s1 ** p * s2 ** q
    expect = {"family": "product", "n": p + q,
              "f_vector": product_f(simplex_f(p), simplex_f(q)),
              "volume": str(vol), "vertex_orders": None}
    B = block_diag(simplex_B(p), simplex_B(q))
    # first stage: the diagonal circle of the first factor only
    stages = block_diag(simplex_B(p), identity(q + 1)) if command == "stages" else None
    return _case(f"product-{p}-{q}", command, _doc(B, a, stages=stages), expect)


def hirzebruch(rng, command="analyze") -> dict:
    k = rng.randint(0, 4)
    a1, a3, a4 = (lift(rng, 1, 3) for _ in range(3))
    # a1 + a3 > k a2 keeps the trapezoid a quadrilateral
    a2 = lift(rng, 1, 3) if k == 0 else (a1 + a3) / (k + rng.randint(1, 3))
    area = (a1 + a3) * (a2 + a4) + Fraction(k, 2) * (a4 * a4 - a2 * a2)
    expect = {"family": "hirzebruch", "n": 2, "f_vector": [4, 4, 1],
              "volume": str(2 * area), "vertex_orders": None}
    B = hirzebruch_B(k)
    stages = B if command == "stages" else None
    return _case(f"hirzebruch-{k}", command, _doc(B, [a1, a2, a3, a4], stages=stages), expect)


def weighted(rng, N) -> dict:
    while True:
        w = sorted(rng.randint(1, 7) for _ in range(N))
        if gcd(*w) == 1:  # else the generic point has inertia Z/gcd
            break
    a = [lift(rng, 1, 3) for _ in range(N)]
    expect = {"family": "weighted", "n": N - 1, "f_vector": simplex_f(N - 1),
              "volume": None, "vertex_orders": w}
    return _case("weighted-" + "-".join(map(str, w)), "analyze",
                 _doc(weighted_B(w), a), expect)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def families(seed: int) -> list[dict]:
    """analyze and stages ops over the north-star families, N = 3..8.

    Several cases cost about the median op, so the median does not jump
    between two distant cases from run to run.
    """
    rng = random.Random(f"families:{seed}")
    return [
        simplex(rng, 5),
        hirzebruch(rng),
        cube(rng, 3, "stages"),
        weighted(rng, 4),
        product(rng, 2, 2),
        simplex(rng, 3, "stages"),
        weighted(rng, 3),
        cube(rng, 4),
        hirzebruch(rng, "stages"),
        weighted(rng, 5),
        product(rng, 1, 2, "stages"),
        simplex(rng, 4),
        hirzebruch(rng),
        product(rng, 1, 3),
        cube(rng, 3),
        simplex(rng, 6),
        weighted(rng, 4),
        product(rng, 2, 3),
        cube(rng, 3),
        simplex(rng, 4),
    ]


def random_case(rng: random.Random, n: int, N: int, index: int) -> dict:
    while True:
        B = [[rng.randint(-3, 3) for _ in range(N)] for _ in range(n)]
        if rank(B) == n:
            break
    lattice = identity(N)
    if index % 3 == 2:  # a non-trivial finite extension on every third input
        j = rng.randrange(N)
        lattice[j][j] = rng.choice((2, 3))
        if j + 1 < N:
            lattice[j][j + 1] = rng.randint(-1, 1)
    a = [lift(rng, 1, 9) for _ in range(N)]
    return _case(f"random-{n}-{N}", "analyze", _doc(B, a, lattice=lattice),
                 {"family": "random", "n": n})


def random_matrices(seed: int, rungs=RANDOM_RUNGS, per_rung: int = 6) -> list[dict]:
    """analyze ops on seeded random B with entries in [-3, 3]."""
    rng = random.Random(f"random:{seed}")
    cases, index = [], 0
    for _ in range(per_rung):
        for n, N in rungs:
            cases.append(random_case(rng, n, N, index))
            index += 1
    return cases


def verify(seed: int) -> list[dict]:
    """verify ops on regular family members that fill little of their box.

    The sampler draws from the vertex bounding box widened by 1 on each
    side, so small simplices and long thin boxes fill little of it. The
    seed moves the polytopes (it splits fixed sides into lifts) but does not
    change their shape, so the sampler's share of the box is the same for
    every seed. Sizes are chosen so that all but two ops cost about the
    same, which keeps the median op inside one cluster.
    """
    rng = random.Random(f"verify:{seed}")
    args = ["--samples", str(VERIFY_SAMPLES), "--seed", str(seed)]
    cases = [
        simplex(rng, 2, "verify", side=Fraction(2, 7)),
        cube(rng, 2, "verify", sides=[6, Fraction(1, 32)]),
        hirzebruch(rng, "verify"),
        simplex(rng, 3, "verify", side=Fraction(9, 5)),
        product(rng, 2, 2, "verify", sides=(5, 5)),
        cube(rng, 3, "verify", sides=[5, Fraction(1, 2), Fraction(1, 2)]),
        product(rng, 1, 2, "verify", sides=(Fraction(3, 2), Fraction(3, 2))),
    ]
    for c in cases:
        c["args"] = args
    return cases


def defects(seed: int) -> list[dict]:
    """Known failures at the seed: Fourier-Motzkin overruns on n = 5 random
    inputs and EmptyInterior from the rejection sampler on thin simplices."""
    rng = random.Random(f"defects:{seed}")
    cases = random_matrices(seed, rungs=DEFECT_RUNGS, per_rung=1)
    for n in (2, 3):
        c = simplex(rng, n, "verify", side=Fraction(1, 100))
        c["args"] = ["--samples", "8", "--seed", str(seed)]
        cases.append(c)
    return cases


WORKLOADS = {
    "families": families,
    "random": random_matrices,
    "verify": verify,
    "defects": defects,
}
