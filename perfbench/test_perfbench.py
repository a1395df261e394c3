"""Tests of the benchmark itself: inputs, output checks, span arithmetic.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from checks import Checker, check_random  # noqa: E402


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT / "schemas")


def run_case(case, tmp_path):
    """Run the program on one case; returns (code, stdout, stderr)."""
    import toricstacks.cli

    path = tmp_path / "case.json"
    path.write_text(json.dumps(case["doc"]), encoding="utf-8")
    code, _, out, err = worker.run_op(toricstacks.cli, [case["command"], str(path), *case["args"]], 60)
    return code, out, err


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(workload):
    make = inputs.WORKLOADS[workload]
    first = json.dumps(make(7), sort_keys=True)
    assert json.dumps(make(7), sort_keys=True) == first
    assert json.dumps(make(8), sort_keys=True) != first


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generated_inputs_validate_against_schema(workload, checker):
    for seed in (1, 2):
        for case in inputs.WORKLOADS[workload](seed):
            assert checker.check_input(case["doc"]) is None, case["name"]


def test_workload_shape_does_not_depend_on_the_seed():
    for make in inputs.WORKLOADS.values():
        assert [c["name"].split("-")[0] for c in make(1)] == [c["name"].split("-")[0] for c in make(2)]


@pytest.mark.parametrize("w", [(2, 3, 5, 7), (1, 1, 2), (3, 4), (2, 2, 3), (6, 10, 15)])
def test_weighted_B_is_a_saturated_basis_of_w_perp(w):
    B = inputs.weighted_B(w)
    assert len(B) == len(w) - 1
    assert all(sum(b * x for b, x in zip(row, w)) == 0 for row in B)
    # saturated: the maximal minors of B have gcd 1
    from itertools import combinations
    from math import gcd

    def det(M):
        if len(M) == 1:
            return M[0][0]
        return sum((-1) ** j * M[0][j] * det([r[:j] + r[j + 1:] for r in M[1:]]) for j in range(len(M)))

    g = 0
    for cols in combinations(range(len(w)), len(w) - 1):
        g = gcd(g, det([[row[j] for j in cols] for row in B]))
    assert g == 1


# ---------------------------------------------------------------------------
# output checks: each accepts the program's report and rejects a corruption
# ---------------------------------------------------------------------------

def _family_case(name, command="analyze"):
    rng = inputs.random.Random(name)
    build = {
        "simplex": lambda: inputs.simplex(rng, 3, command),
        "hirzebruch": lambda: inputs.hirzebruch(rng, command),
        "weighted": lambda: inputs.weighted(rng, 4),
        "cube": lambda: inputs.cube(rng, 2, command),
        "product": lambda: inputs.product(rng, 1, 2, command),
    }[name]
    case = build()
    if command == "verify":
        case["args"] = ["--samples", "8", "--seed", "0"]
    return case


def _corrupt(out: str, edit) -> str:
    doc = json.loads(out)
    edit(doc)
    return json.dumps(doc)


ANALYZE_CORRUPTIONS = {
    "f_vector": lambda d: d["polytope"]["f_vector"].__setitem__(1, d["polytope"]["f_vector"][1] + 1),
    "missing vertex": lambda d: d["polytope"]["v_rep"].pop(),
    "moved vertex": lambda d: d["polytope"]["v_rep"][0].__setitem__(0, "-100"),
    "h_rep offset": lambda d: d["polytope"]["h_rep"][0].__setitem__("offset", "123/7"),
    "inertia": lambda d: d["inertia"][-1].update(group=[97], order=97),
    "gerbe": lambda d: d.__setitem__("gerbe", [3]),
    "irregular": lambda d: d.update(regular=False, witness=[1]),
    "schema": lambda d: d.pop("timing_seconds"),
}


@pytest.mark.parametrize("family", ["simplex", "hirzebruch", "weighted", "cube", "product"])
def test_family_check_accepts_report_and_rejects_corruptions(family, checker, tmp_path):
    case = _family_case(family)
    code, out, err = run_case(case, tmp_path)
    assert checker.check(case, code, out, err) is None
    for label, edit in ANALYZE_CORRUPTIONS.items():
        assert checker.check(case, code, _corrupt(out, edit), err) is not None, label
    assert checker.check(case, 2, out, err) is not None  # wrong exit code


def test_weighted_check_rejects_wrong_vertex_order(checker, tmp_path):
    case = _family_case("weighted")
    code, out, err = run_case(case, tmp_path)
    w = case["expect"]["vertex_orders"]

    def swap_orders(doc):
        N = len(w)
        for rec in doc["inertia"]:
            if len(rec["face"]) == N - 1:
                rec["order"] = rec["order"] * 5
                rec["group"] = [rec["order"]]

    assert checker.check(case, code, _corrupt(out, swap_orders), err) is not None


@pytest.mark.parametrize("family", ["simplex", "cube", "product", "hirzebruch"])
def test_stages_check_accepts_report_and_rejects_corruptions(family, checker, tmp_path):
    case = _family_case(family, "stages")
    code, out, err = run_case(case, tmp_path)
    assert checker.check(case, code, out, err) is None
    corruptions = {
        "inconsistent": lambda d: d.update(consistent=False, detail="volume"),
        "volume": lambda d: [d[k].__setitem__("volume", "1/3") for k in ("one_shot", "staged")],
        "f_vector": lambda d: [d[k]["f_vector"].__setitem__(0, 99) for k in ("one_shot", "staged")],
        "vertex inertia": lambda d: [d[k]["vertex_inertia"][0].append(2) for k in ("one_shot", "staged")],
        "staged differs": lambda d: d["staged"].__setitem__("dimension", 0),
    }
    for label, edit in corruptions.items():
        assert checker.check(case, code, _corrupt(out, edit), err) is not None, label
    assert checker.check(case, 5, out, err) is not None


def test_random_check_accepts_reports_and_rejects_corruptions(checker, tmp_path):
    cases = inputs.random_matrices(3, rungs=((2, 6), (3, 7)), per_rung=3)
    regular = 0
    for case in cases:
        code, out, err = run_case(case, tmp_path)
        assert checker.check(case, code, out, err) is None, case["name"]
        doc = json.loads(out)
        if doc["regular"]:
            regular += 1
            bad_euler = lambda d: d["polytope"]["f_vector"].__setitem__(-1, 2)  # noqa: E731
            assert checker.check(case, code, _corrupt(out, bad_euler), err) is not None
        for label, edit in {
            "vertex count": lambda d: d["polytope"]["f_vector"].__setitem__(0, len(d["polytope"]["v_rep"]) + 1),
            "empty": lambda d: d.update(empty=True),
            "echo": lambda d: d["input"]["B"][0].__setitem__(0, 17),
        }.items():
            assert checker.check(case, code, _corrupt(out, edit), err) is not None, label
    assert regular


def test_random_check_rejects_a_witness_with_independent_columns():
    case = inputs._case("random-2-3", "analyze",
                        inputs._doc([[1, 0, -1], [0, 1, -1]], [1, 1, 1]), {"family": "random", "n": 2})
    report = {"regular": False, "witness": [1], "inertia": None, "empty": False,
              "polytope": {"empty": False, "f_vector": [], "bounded": True}}
    assert "independent" in check_random(case, 2, report)


def test_verify_check_rejects_disagreement_and_empty_interior(checker, tmp_path):
    case = _family_case("hirzebruch", "verify")
    code, out, err = run_case(case, tmp_path)
    assert checker.check(case, code, out, err) is None
    for flag in ("local_freeness_agrees", "kernel_rank_agrees", "transversality_agrees"):
        bad = _corrupt(out, lambda d: d["numeric"].__setitem__(flag, False))
        assert checker.check(case, code, bad, err) is not None, flag
    no_numeric = _corrupt(out, lambda d: d.__setitem__("numeric", None))
    assert checker.check(case, code, no_numeric, err) is not None
    verdict = checker.check(case, 3, "", "error: rejection sampling failed to hit the interior\n")
    assert "EmptyInterior" in verdict


# ---------------------------------------------------------------------------
# spans, percentiles and the worker
# ---------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert spans.tail(list(range(1, 101))) == (90, 90.0, 10)
    assert spans.tail(list(range(11, 0, -1))) == (1, 100.0 / 11, 10)
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_time_subtracts_the_union_of_clipped_children():
    hand = [
        ("root", 0.0, 10.0, -1, 0, 0),
        ("a", 1.0, 4.0, 0, 0, 0),
        ("b", 3.0, 6.0, 0, 0, 0),       # overlaps a: covered once
        ("a.child", 2.0, 3.0, 1, 0, 0),
        ("late", 9.0, 12.0, 0, 0, 0),   # runs past root: clipped to 9..10
    ]
    assert spans.self_times(hand) == pytest.approx([10 - 5 - 1, 2.0, 3.0, 1.0, 3.0])


def test_summarize_counts_and_ratios_on_hand_built_spans():
    hand = [
        ("geometry.meeting_faces", 0.0, 1.0, -1, 0, 3),
        ("rational.feasible", 0.1, 0.2, 0, 0, 4),
        ("geometry.face_meets_slice", 0.3, 0.5, 0, 0, 0),
        ("rational.feasible", 0.3, 0.5, 2, 0, 6),
        ("rational.feasible", 2.0, 2.5, -1, 1, 2),    # outside face enumeration
        ("invariants.stabilizer_on_face", 3.0, 3.5, -1, 1, 11),
        ("invariants.stabilizer_on_face", 4.0, 4.5, -1, 1, 11),
    ]
    got = spans.summarize(hand, ops=2)
    assert got["rational.feasible.calls"] == 3
    assert got["rational.feasible.rows_in"] == 12
    assert got["rational.feasible.max_rows_in"] == 6
    assert got["geometry.faces_found"] == 3
    assert got["geometry.face_hit_ratio"] == pytest.approx(3 / 2)
    assert got["geometry.meeting_faces.calls_per_op"] == 0.5
    assert got["invariants.stabilizer_on_face.calls"] == 2
    assert got["invariants.stabilizer_on_face.distinct"] == 1
    assert got["geometry.meeting_faces.self_s"] == pytest.approx(1.0 - 0.1 - 0.2)
    assert got["rational.feasible.self_s"] == pytest.approx(0.1 + 0.2 + 0.5)


def test_tracer_patches_every_importer_and_restores_them(tmp_path):
    import toricstacks.cli
    import toricstacks.geometry
    import toricstacks.rational

    original = toricstacks.rational.feasible
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert toricstacks.geometry.feasible is not original
        assert toricstacks.geometry.feasible.__wrapped__ is original
        tracer.op = 5
        case = _family_case("simplex")
        code, out, _ = run_case(case, tmp_path)
    finally:
        tracer.uninstall()
    assert toricstacks.geometry.feasible is original
    assert code == 0
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "geometry.meeting_faces", "rational.feasible",
            "invariants.stabilizer_on_face", "lattice.smith_normal_form"} <= names
    assert tracer.spans[0][0] == "cli.main" and tracer.spans[0][3] == -1
    assert all(s[4] == 5 for s in tracer.spans)
    assert all(s[3] < i for i, s in enumerate(tracer.spans))


def test_deadline_interrupts_an_overrunning_op():
    import signal

    slow = SimpleNamespace(main=lambda argv: time.sleep(5))
    previous = signal.signal(signal.SIGALRM, worker._interrupt)
    try:
        code, seconds, _, _ = worker.run_op(slow, [], 0.05)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code == worker.OVERRUN
    assert seconds < 1.0


def test_recorder_stores_reports_differing_only_in_timing_once():
    rec = worker.Recorder()
    out = '{\n  "timing_seconds": %s,\n  "tool": 1\n}'
    rec.add(0, 0, 0.5, out % "0.123", "")
    rec.add(0, 0, 0.7, out % "0.2", "")
    rec.add(0, 0, 0.7, out.replace("1", "2") % "0.2", "")
    assert [op[3] for op in rec.ops] == [0, 0, 1]
    assert json.loads(rec.outputs[0][2])["timing_seconds"] == 0
