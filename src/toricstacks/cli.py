"""Command-line front end.

Subcommands:
  analyze <file>   exact pipeline: regularity, polytope, inertia, gerbe, ...
  stages  <file>   reduction-in-stages consistency check
  verify  <file>   analyze plus floating-point verification on sampled points

Exit codes: 0 ok / consistent, 2 irregular level, 3 invalid input or nesting
violation, 4 empty stack, 5 stages inconsistent.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import ToricStackError
from .geometry import Analysis, ToricStackData, analyze, toric_stack_data
from .invariants import inertia_table, labeled_polytope, stages_verify
from .numeric import run_numeric_report

EXIT_OK = 0
EXIT_IRREGULAR = 2
EXIT_INVALID = 3
EXIT_EMPTY = 4
EXIT_INCONSISTENT = 5


class InputError(ToricStackError):
    """Raised with a diagnostic naming the offending field."""


def _rat(value, field):
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"{field}: expected an integer or 'p/q' string, got {value!r}")


def _int_matrix(value, field, ncols=None):
    if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
        raise InputError(f"{field}: expected a list of integer rows")
    for i, row in enumerate(value):
        if ncols is not None and len(row) != ncols:
            raise InputError(f"{field}: row {i} has length {len(row)}, expected {ncols}")
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise InputError(f"{field}: entry ({i},{j}) is not an integer")
    return value


def parse_input(doc: dict):
    """Validate the raw JSON document and build the exact stack data."""
    if not isinstance(doc, dict):
        raise InputError("input: expected a JSON object")
    if "N" not in doc or isinstance(doc["N"], bool) or not isinstance(doc["N"], int) or doc["N"] < 1:
        raise InputError("N: expected a positive integer")
    N = doc["N"]
    lattice = _int_matrix(doc.get("lattice_hat"), "lattice_hat", ncols=N)
    if len(lattice) != N:
        raise InputError(f"lattice_hat: expected {N} rows, got {len(lattice)}")
    B = _int_matrix(doc.get("B", []), "B", ncols=N)
    a_raw = doc.get("a_lift")
    if not isinstance(a_raw, list) or len(a_raw) != N:
        raise InputError(f"a_lift: expected a list of {N} rationals")
    a_lift = [_rat(x, f"a_lift[{i}]") for i, x in enumerate(a_raw)]
    try:
        data = toric_stack_data(lattice, B, a_lift, N=N)
    except ToricStackError as exc:
        field = "lattice_hat" if "lattice_hat" in str(exc) or "finite index" in str(exc) else "B"
        raise InputError(f"{field}: {exc}") from exc
    stages = doc.get("stages")
    if stages is not None:
        if not isinstance(stages, dict) or "B_inner" not in stages:
            raise InputError("stages: expected an object with a B_inner matrix")
        _int_matrix(stages["B_inner"], "stages.B_inner", ncols=N)
    return data, stages


def _frs(x) -> str:
    return str(Fraction(x))


def _face_json(zeros) -> list:
    return [j + 1 for j in zeros]  # reports use 1-based coordinates


def _group_json(group) -> list:
    return list(group.invariant_factors)


def _echo_input(data: ToricStackData, stages) -> dict:
    out = {
        "N": data.N,
        "lattice_hat": [[int(x) for x in row] for row in data.lattice_hat],
        "B": [[int(x) for x in row] for row in data.B],
        "a_lift": [_frs(x) for x in data.a_lift],
    }
    if stages is not None:
        out["stages"] = stages
    return out


def build_report(analysis: Analysis, stages=None, numeric=None) -> tuple[dict, int]:
    """Assemble the analysis report and its exit code."""
    t0 = time.perf_counter()
    verdict, poly, summary = analysis.verdict, analysis.polytope, analysis.summary

    inertia = None
    labels = None
    if verdict.regular and not summary.empty:
        poly = labeled_polytope(analysis)
        labels = list(poly.facet_labels)
        inertia = [
            {
                "face": _face_json(rec.face.zeros),
                "group": _group_json(rec.group),
                "order": rec.group.order,
                "generic": rec.is_generic,
            }
            for rec in inertia_table(analysis)
        ]

    report = {
        "tool": {"name": "toricstacks", "version": __version__},
        "input": _echo_input(analysis.data, stages),
        "regular": verdict.regular,
        "witness": _face_json(verdict.witness.zeros) if verdict.witness else None,
        "empty": summary.empty,
        "dimension": summary.dimension,
        "residual_torus_dim": summary.residual_torus_dim,
        "gerbe": _group_json(summary.gerbe) if summary.gerbe is not None else None,
        "effective": summary.effective,
        "polytope": {
            "n": poly.n,
            "h_rep": [
                {
                    "normal": [_frs(c) for c in normal],
                    "offset": _frs(offset),
                    "redundant": bool(red),
                    "label": labels[j] if labels else None,
                }
                for j, ((normal, offset), red) in enumerate(zip(poly.h_rep, poly.redundant))
            ],
            "v_rep": [[_frs(c) for c in v] for v in poly.v_rep],
            "f_vector": list(poly.f_vector),
            "bounded": poly.bounded,
            "empty": poly.empty,
        },
        "inertia": inertia,
        "numeric": numeric,
        "timing_seconds": round(time.perf_counter() - t0, 6),
    }
    if summary.empty:
        return report, EXIT_EMPTY
    if not verdict.regular:
        return report, EXIT_IRREGULAR
    return report, EXIT_OK


def _numeric_json(rep) -> dict:
    return {
        "samples": rep.samples,
        "max_moment_residual": rep.max_moment_residual,
        "max_level_residual": rep.max_level_residual,
        "local_freeness_agrees": rep.local_freeness_agrees,
        "kernel_rank_agrees": rep.kernel_rank_agrees,
        "kernel_rank_rate": rep.kernel_rank_rate,
        "transversality_agrees": rep.transversality_agrees,
        "discarded_ill_conditioned": rep.discarded_ill_conditioned,
        "tolerances": rep.tolerances,
    }


def _stages_json(rep) -> dict:
    def inv(d):
        return {
            "dimension": d["dimension"],
            "gerbe": list(d["gerbe"]),
            "vertex_inertia": [list(t) for t in d["vertex_inertia"]],
            "f_vector": list(d["f_vector"]),
            "volume": _frs(d["volume"]) if d["volume"] is not None else None,
        }

    return {
        "tool": {"name": "toricstacks", "version": __version__},
        "consistent": rep.consistent,
        "detail": rep.detail,
        "one_shot": inv(rep.one_shot),
        "staged": inv(rep.staged),
        "declared": rep.declared,
        "level_shift": [_frs(x) for x in rep.level_shift],
    }


def write_off(poly_json: dict, path: str) -> None:
    """OFF-style plain-text V-representation export."""
    lines = ["OFF", str(len(poly_json["v_rep"]))]
    for v in poly_json["v_rep"]:
        lines.append(" ".join(f"{float(Fraction(c)):.12f}" for c in v))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(_text_summary(doc))


def _text_summary(doc: dict) -> str:
    lines = [f"toricstacks {__version__}"]
    if "consistent" in doc:
        lines.append(f"stages consistent: {doc['consistent']}")
        if doc["detail"]:
            lines.append(f"first differing invariant: {doc['detail']}")
        one = doc["one_shot"]
        lines.append(
            f"one-shot: dim={one['dimension']} gerbe={one['gerbe']} "
            f"f-vector={one['f_vector']}"
        )
        return "\n".join(lines)
    lines.append(f"regular: {doc['regular']}")
    if doc["witness"]:
        lines.append(f"witness face: {doc['witness']}")
    lines.append(f"empty: {doc['empty']}")
    if doc["dimension"] is not None:
        lines.append(f"dimension: {doc['dimension']} (residual torus T^{doc['residual_torus_dim']})")
    if doc["gerbe"] is not None:
        gerbe = doc["gerbe"] or "trivial"
        lines.append(f"gerbe: {gerbe}")
    if doc["effective"] is not None:
        lines.append(f"effective: {doc['effective']}")
    poly = doc["polytope"]
    lines.append(
        f"polytope: {len(poly['v_rep'])} vertices, f-vector {poly['f_vector']}, "
        f"bounded={poly['bounded']}"
    )
    if doc["inertia"] is not None:
        for rec in doc["inertia"]:
            g = rec["group"] or "trivial"
            lines.append(f"  inertia on face {rec['face'] or 'generic'}: {g}")
    if doc["numeric"] is not None:
        num = doc["numeric"]
        lines.append(
            f"numeric: {num['samples']} samples, moment residual "
            f"{num['max_moment_residual']:.3e}, local freeness agrees: "
            f"{num['local_freeness_agrees']}"
        )
    return "\n".join(lines)


def run_analysis(doc: dict, numeric_opts: dict | None = None) -> tuple[dict, int]:
    data, stages = parse_input(doc)
    analysis = analyze(data)
    numeric = None
    if numeric_opts is not None and analysis.verdict.regular and analysis.meets_interior:
        numeric = _numeric_json(run_numeric_report(analysis, **numeric_opts))
    return build_report(analysis, stages=stages, numeric=numeric)


def run_stages(doc: dict) -> tuple[dict, int]:
    data, stages = parse_input(doc)
    if stages is None:
        raise InputError("stages: block is required for the stages subcommand")
    rep = stages_verify(data, stages["B_inner"], declared=stages.get("declared"))
    return _stages_json(rep), EXIT_OK if rep.consistent else EXIT_INCONSISTENT


def _numeric_flag_error(args) -> str | None:
    """Why the numeric flags of `verify` cannot give a meaningful check, or None."""
    if args.samples < 1:
        return f"--samples must be at least 1, got {args.samples}"
    for flag, value in (("--tol", args.tol), ("--fd-step", args.fd_step)):
        if not (math.isfinite(value) and value > 0):
            return f"{flag} must be finite and positive, got {value}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="toricstacks", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="input JSON file")
        p.add_argument("--format", choices=["json", "text"], default="json")
        p.add_argument("--polytope-out", metavar="FILE",
                       help="write the V-representation as OFF-style text")

    p_an = sub.add_parser("analyze", help="run the exact pipeline")
    common(p_an)

    p_st = sub.add_parser("stages", help="reduction-in-stages consistency")
    p_st.add_argument("file")
    p_st.add_argument("--format", choices=["json", "text"], default="json")

    p_vf = sub.add_parser("verify", help="analyze plus numeric verification")
    common(p_vf)
    p_vf.add_argument("--samples", type=int, default=100)
    p_vf.add_argument("--seed", type=int, default=0)
    p_vf.add_argument("--tol", type=float, default=1e-8)
    p_vf.add_argument("--fd-step", type=float, default=1e-5)

    args = parser.parse_args(argv)
    problem = _numeric_flag_error(args) if args.command == "verify" else None
    if problem:
        # not parser.error: its exit code 2 means an irregular level here
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_INVALID

    try:
        with open(args.file, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_INVALID

    try:
        if args.command == "stages":
            report, code = run_stages(doc)
        elif args.command == "verify":
            opts = {"samples": args.samples, "seed": args.seed,
                    "tol": args.tol, "fd_step": args.fd_step}
            report, code = run_analysis(doc, numeric_opts=opts)
        else:
            report, code = run_analysis(doc)
    except ToricStackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    _emit(report, args.format)
    if getattr(args, "polytope_out", None) and "polytope" in report:
        write_off(report["polytope"], args.polytope_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
