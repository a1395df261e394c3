"""Output checks: each returns None when a report is right, else the reason.

The checks use only the case (its input and the closed forms computed by
`inputs`) and the JSON schemas shipped with the program, never the program's
own functions, so a wrong report cannot pass by agreeing with itself.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import jsonschema

from inputs import rank

EXIT_OK, EXIT_IRREGULAR, EXIT_INVALID = 0, 2, 3
# flags of the numeric block that must all hold on a regular level
NUMERIC_FLAGS = ("local_freeness_agrees", "kernel_rank_agrees", "transversality_agrees")
# generous bounds on the float residuals of a correct numeric pass
MAX_MOMENT_RESIDUAL = 1e-6
MAX_LEVEL_RESIDUAL = 1e-9
# what the CLI prints for an EmptyInterior error from the sampler
EMPTY_INTERIOR_MESSAGES = ("rejection sampling failed", "nothing to sample")


class Checker:
    """Checks outputs of one workload against its cases."""

    def __init__(self, schema_dir: Path):
        def validator(name):
            schema = json.loads((schema_dir / name).read_text(encoding="utf-8"))
            return jsonschema.Draft202012Validator(schema)

        self.report_schema = validator("report.schema.json")
        self.stages_schema = validator("stages.schema.json")
        self.input_schema = validator("input.schema.json")

    def check_input(self, doc: dict) -> str | None:
        return _schema_error(self.input_schema, doc, "input")

    def check(self, case: dict, code: int, out: str, err: str) -> str | None:
        """Verdict on one op: its exit code, standard output and error text."""
        if code == EXIT_INVALID:
            # every verify case is a family member with a nonempty interior
            if any(m in err for m in EMPTY_INTERIOR_MESSAGES):
                return "sampler raised EmptyInterior on a polytope with nonempty interior"
            return f"valid input rejected: {err.strip()[:200]}"
        try:
            report = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"
        if case["command"] == "stages":
            return check_stages(self.stages_schema, case, code, report)
        return check_report(self.report_schema, case, code, report)


def _schema_error(validator, doc, what: str = "report") -> str | None:
    error = jsonschema.exceptions.best_match(validator.iter_errors(doc))
    return None if error is None else f"{what} violates schema: {error.message}"


def check_report(validator, case: dict, code: int, rep: dict) -> str | None:
    """analyze and verify reports."""
    problem = _schema_error(validator, rep) or check_polytope(case, rep)
    if problem:
        return problem
    expect = case["expect"]
    if expect["family"] == "random":
        problem = check_random(case, code, rep)
    else:
        problem = check_family(case, code, rep)
    if problem:
        return problem
    if case["command"] == "verify":
        return check_numeric(rep)
    if rep["numeric"] is not None:
        return "analyze report carries a numeric block"
    return None


def check_polytope(case: dict, rep: dict) -> str | None:
    """Input echo, H-rep against the input, and every vertex against the H-rep."""
    doc = case["doc"]
    echo = rep["input"]
    if (echo.get("N"), echo.get("lattice_hat"), echo.get("B")) != (doc["N"], doc["lattice_hat"], doc["B"]):
        return "input echo differs from the input"
    if [Fraction(x) for x in echo.get("a_lift", [])] != [Fraction(x) for x in doc["a_lift"]]:
        return "input echo differs from the input lift"
    poly = rep["polytope"]
    n, B, a = len(doc["B"]), doc["B"], [Fraction(x) for x in doc["a_lift"]]
    if poly["n"] != n or len(poly["h_rep"]) != doc["N"]:
        return "polytope dimension or H-rep size differs from the input"
    rows = []
    for j, row in enumerate(poly["h_rep"]):
        normal, offset = [Fraction(x) for x in row["normal"]], Fraction(row["offset"])
        if normal != [Fraction(B[i][j]) for i in range(n)] or offset != a[j]:
            return f"H-rep row {j + 1} is not (column {j + 1} of B, a_{j + 1})"
        rows.append((normal, offset))
    if not poly["f_vector"] or poly["f_vector"][0] != len(poly["v_rep"]):
        return "f_vector[0] differs from the number of vertices"
    for v in poly["v_rep"]:
        lam = [Fraction(x) for x in v]
        values = [sum(c * x for c, x in zip(normal, lam)) + offset for normal, offset in rows]
        if any(x < 0 for x in values):
            return f"vertex {v} violates the H-rep"
        tight = [j for j, x in enumerate(values) if x == 0]
        if rank([[B[i][j] for j in tight] for i in range(n)]) < n:
            return f"vertex {v} is not cut out by n independent tight rows"
    return None


def check_family(case: dict, code: int, rep: dict) -> str | None:
    """Closed forms of the parametric families (all regular and bounded)."""
    expect, poly = case["expect"], rep["polytope"]
    n = expect["n"]
    if code != EXIT_OK or not rep["regular"] or rep["empty"]:
        return f"family member not reported regular and nonempty (exit {code})"
    if rep["dimension"] != 2 * n or rep["gerbe"] != [] or rep["effective"] is not True:
        return "dimension, gerbe or effectiveness differs from the closed form"
    if not poly["bounded"] or poly["empty"]:
        return "family polytope not reported bounded and nonempty"
    if poly["f_vector"] != expect["f_vector"]:
        return f"f_vector {poly['f_vector']} != closed form {expect['f_vector']}"
    inertia = rep["inertia"] or []
    if len(inertia) != sum(expect["f_vector"]):
        return "inertia table does not have one record per face"
    orders = expect["vertex_orders"]
    if orders is None:
        if any(r["group"] or r["order"] != 1 for r in inertia):
            return "smooth family member reports nontrivial inertia"
        return None
    N = len(orders)
    by_face = {tuple(r["face"]): r["order"] for r in inertia}
    for i, w in enumerate(orders):
        face = tuple(j + 1 for j in range(N) if j != i)
        if by_face.get(face) != w:
            return f"vertex inertia order on face {list(face)} is {by_face.get(face)}, expected {w}"
    return None


def check_random(case: dict, code: int, rep: dict) -> str | None:
    """Structural checks on random matrices with positive lifts."""
    poly, B = rep["polytope"], case["doc"]["B"]
    n = len(B)
    if rep["empty"] or poly["empty"]:
        return "positive lift reported empty"  # lambda = 0 lies in the interior
    if rep["regular"]:
        if code != EXIT_OK or rep["witness"] is not None or rep["inertia"] is None:
            return "regular level without exit 0 and an inertia table"
        if len(rep["inertia"]) != sum(poly["f_vector"]):
            return "inertia table does not have one record per face"
        generic = [r for r in rep["inertia"] if r["face"] == []]
        if len(generic) != 1 or generic[0]["group"] != rep["gerbe"]:
            return "generic inertia record differs from the gerbe"
        if rep["dimension"] != 2 * n or rep["effective"] is not True:
            return "dimension or effectiveness wrong on a regular level"
        if poly["bounded"]:
            euler = sum((-1) ** k * f for k, f in enumerate(poly["f_vector"]))
            if euler != 1:
                return f"Euler characteristic of the f-vector is {euler}, not 1"
        return None
    if code != EXIT_IRREGULAR or not rep["witness"] or rep["inertia"] is not None:
        return "irregular level without exit 2, a witness and a null inertia table"
    cols = [j - 1 for j in rep["witness"]]
    if rank([[B[i][j] for j in cols] for i in range(n)]) == len(cols):
        return f"witness face {rep['witness']} has independent columns"
    return None


def check_numeric(rep: dict) -> str | None:
    num = rep["numeric"]
    if num is None:
        return "verify report has no numeric block"
    failed = [flag for flag in NUMERIC_FLAGS if num[flag] is not True]
    if failed:
        return "numeric disagreement: " + ", ".join(failed)
    if not num["max_moment_residual"] <= MAX_MOMENT_RESIDUAL:
        return f"moment residual {num['max_moment_residual']} too large"
    if not num["max_level_residual"] <= MAX_LEVEL_RESIDUAL:
        return f"level residual {num['max_level_residual']} too large"
    return None


def check_stages(validator, case: dict, code: int, rep: dict) -> str | None:
    problem = _schema_error(validator, rep)
    if problem:
        return problem
    expect = case["expect"]
    if code != EXIT_OK or rep["consistent"] is not True or rep["detail"] is not None:
        return f"stages not consistent (exit {code}, detail {rep['detail']})"
    one = rep["one_shot"]
    if one["f_vector"] != expect["f_vector"]:
        return f"stages f_vector {one['f_vector']} != closed form {expect['f_vector']}"
    if one["volume"] is None or Fraction(one["volume"]) != Fraction(expect["volume"]):
        return f"stages volume {one['volume']} != closed form {expect['volume']}"
    if one["dimension"] != 2 * expect["n"] or one["gerbe"] != []:
        return "stages dimension or gerbe differs from the closed form"
    if one["vertex_inertia"] != [[]] * expect["f_vector"][0]:
        return "stages vertex inertia is not trivial on every vertex"
    if rep["staged"] != one:
        return "staged invariants differ from the one-shot invariants"
    return None
