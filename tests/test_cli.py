"""CLI behavior: exit codes, report shape, determinism, exports."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import toricstacks
from toricstacks import cli, geometry, invariants, numeric
from toricstacks.cli import main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "demos" / "fixtures"
SCHEMAS = ROOT / "schemas"


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    return json.loads((SCHEMAS / name).read_text())


def test_analyze_projective_line_exit_0(capsys):
    code, out, _ = run_cli(["analyze", FIXTURES / "projective_line.json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["regular"] and not doc["empty"]
    assert doc["dimension"] == 2
    assert doc["gerbe"] == []
    assert doc["effective"] is True
    assert len(doc["polytope"]["v_rep"]) == 2
    jsonschema.validate(doc, load_schema("report.schema.json"))


def test_analyze_irregular_exit_2_with_witness(capsys):
    code, out, _ = run_cli(["analyze", FIXTURES / "irregular_origin.json"], capsys)
    assert code == 2
    doc = json.loads(out)
    assert doc["regular"] is False
    assert doc["witness"] == [1, 2]
    assert doc["inertia"] is None
    jsonschema.validate(doc, load_schema("report.schema.json"))


def test_analyze_invalid_exit_3_names_field(capsys):
    code, _, err = run_cli(["analyze", FIXTURES / "invalid_lattice.json"], capsys)
    assert code == 3
    assert "lattice_hat not finite index" in err


def test_analyze_empty_exit_4(capsys):
    code, out, _ = run_cli(["analyze", FIXTURES / "empty_level.json"], capsys)
    assert code == 4
    doc = json.loads(out)
    assert doc["empty"] is True


def test_analyze_missing_file_exit_3(capsys):
    code, _, err = run_cli(["analyze", FIXTURES / "no_such_file.json"], capsys)
    assert code == 3
    assert "cannot read" in err


def test_malformed_field_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "N": 2, "lattice_hat": [[1, 0], [0, 1]],
        "B": [[1, -1]], "a_lift": ["1", "x"],
    }))
    code, _, err = run_cli(["analyze", bad], capsys)
    assert code == 3
    assert "a_lift" in err


def test_stages_fixtures_exit_codes(capsys):
    for name, expected in [
        ("stages_circle_in_2torus.json", 0),
        ("stages_equal_subgroups.json", 0),
        ("stages_teardrop_in_full_torus.json", 0),
        ("stages_corrupted.json", 5),
    ]:
        code, out, _ = run_cli(["stages", FIXTURES / name], capsys)
        assert code == expected, name
        doc = json.loads(out)
        assert doc["consistent"] == (expected == 0)
        jsonschema.validate(doc, load_schema("stages.schema.json"))


def test_stages_without_block_exit_3(capsys):
    code, _, err = run_cli(["stages", FIXTURES / "projective_line.json"], capsys)
    assert code == 3
    assert "stages" in err


def test_verify_teardrop(capsys):
    code, out, _ = run_cli(
        ["verify", FIXTURES / "teardrop.json", "--samples", "15", "--seed", "3"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    num = doc["numeric"]
    assert num["samples"] == 15
    assert num["max_moment_residual"] < 1e-6
    assert num["local_freeness_agrees"] is True
    jsonschema.validate(doc, load_schema("report.schema.json"))


def test_verify_gerbe_kernel_rank(capsys):
    # the level set is a Lagrangian circle, so the restricted form vanishes
    code, out, _ = run_cli(["verify", FIXTURES / "gerbe_over_point.json"], capsys)
    assert code == 0
    num = json.loads(out)["numeric"]
    assert num["kernel_rank_agrees"] is True
    assert num["kernel_rank_rate"] == 1.0


def test_verify_disagreement_exits_5_with_report(capsys):
    # a rank threshold of 1e300 calls every generator matrix rank-deficient
    code, out, _ = run_cli(["verify", FIXTURES / "teardrop.json", "--tol", "1e300"], capsys)
    assert code == cli.EXIT_INCONSISTENT
    doc = json.loads(out)
    assert doc["regular"] is True
    assert doc["numeric"]["local_freeness_agrees"] is False
    assert doc["numeric"]["kernel_rank_agrees"] is False
    jsonschema.validate(doc, load_schema("report.schema.json"))


# Delta^2 and Delta^3 of side 1/100: (B, a_lift)
THIN_SIMPLICES = {
    2: ([[1, 0, -1], [0, 1, -1]], ["1/300", "1/200", "1/600"]),
    3: ([[1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]], ["1/450", "1/900", "1/450", "1/225"]),
}


@pytest.mark.parametrize("n", sorted(THIN_SIMPLICES))
def test_verify_samples_thin_simplices(n, tmp_path, capsys):
    # the simplex fills almost none of its bounding box
    B, a_lift = THIN_SIMPLICES[n]
    path = tmp_path / f"thin_simplex_{n}.json"
    identity = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
    path.write_text(json.dumps({"N": n + 1, "lattice_hat": identity, "B": B, "a_lift": a_lift}))
    code, out, err = run_cli(["verify", path, "--samples", "20", "--seed", "1"], capsys)
    assert code == 0, err
    num = json.loads(out)["numeric"]
    assert num["samples"] == 20
    assert all(num[flag] is True for flag in cli.AGREEMENT_FLAGS)


@pytest.mark.parametrize("flags", [
    ["--fd-step", "0"],
    ["--fd-step", "nan"],
    ["--samples", "0"],
    ["--samples", "-3"],
    ["--tol", "-1"],
    ["--tol", "inf"],
])
def test_verify_rejects_degenerate_numeric_flags(flags, capsys):
    # each would give NaN residuals, a non-JSON token or a pass on no samples
    code, out, err = run_cli(["verify", FIXTURES / "teardrop.json", *flags], capsys)
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err.startswith(f"error: {flags[0]} ")


def test_verify_irregular_skips_numeric(capsys):
    code, out, _ = run_cli(["verify", FIXTURES / "irregular_origin.json"], capsys)
    assert code == 2
    assert json.loads(out)["numeric"] is None


def test_reports_byte_identical_modulo_timing(capsys):
    def canonical():
        code, out, _ = run_cli(
            ["analyze", FIXTURES / "teardrop.json"], capsys)
        doc = json.loads(out)
        doc.pop("timing_seconds")
        return json.dumps(doc, sort_keys=True)

    assert canonical() == canonical()


GOLDEN = sorted(json.loads((ROOT / "tests" / "golden_reports.json").read_text()).items())


@pytest.mark.parametrize("case,expected", GOLDEN, ids=[case for case, _ in GOLDEN])
def test_reports_match_golden(case, expected, capsys):
    """analyze on every fixture and stages on every stages_* fixture.

    tests/golden_reports.json holds each exit code and the canonical stdout
    (the JSON report without timing_seconds, with sorted keys; "" when
    nothing is printed). verify is left out: its floats can differ across
    machines.
    """
    command, name = case.split(" ", 1)
    code, out, _ = run_cli([command, FIXTURES / name], capsys)
    canonical = ""
    if out.strip():
        doc = json.loads(out)
        doc.pop("timing_seconds", None)
        canonical = json.dumps(doc, sort_keys=True)
    assert (code, canonical) == (expected["exit_code"], expected["stdout"])


def test_golden_reports_cover_every_fixture():
    assert {case for case, _ in GOLDEN} == (
        {f"analyze {p.name}" for p in FIXTURES.glob("*.json")}
        | {f"stages {p.name}" for p in FIXTURES.glob("stages_*.json")}
    )


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of toricstacks.<name>, wherever
    a module of the package has it bound."""
    original, calls = getattr(toricstacks, name), []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, geometry, invariants, numeric):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("command,name,inputs", [
    ("verify", "teardrop.json", 1),
    ("analyze", "projective_plane.json", 1),
    ("stages", "stages_circle_in_2torus.json", 2),  # inner, outer
])
def test_faces_and_stabilizers_are_computed_once_per_input(command, name, inputs,
                                                           monkeypatch, capsys):
    face_calls = _count_calls(monkeypatch, "meeting_faces")
    stabilizer_calls = _count_calls(monkeypatch, "stabilizer_on_face")
    code, _, _ = run_cli([command, FIXTURES / name], capsys)
    assert code == 0
    # the call lists keep every data object alive, so ids are not reused
    assert len(face_calls) == len({id(data) for data, in face_calls}) == inputs
    pairs = [(id(data), face.zeros) for data, face in stabilizer_calls]
    assert pairs and len(pairs) == len(set(pairs))


def test_report_round_trips_rationals(capsys):
    _, out, _ = run_cli(["analyze", FIXTURES / "projective_plane.json"], capsys)
    doc = json.loads(out)
    from fractions import Fraction
    verts = {tuple(Fraction(c) for c in v) for v in doc["polytope"]["v_rep"]}
    assert verts == {
        (Fraction(0), Fraction(0)),
        (Fraction(-1), Fraction(0)),
        (Fraction(-1), Fraction(-1)),
    }


def test_text_format(capsys):
    code, out, _ = run_cli(
        ["analyze", FIXTURES / "teardrop.json", "--format", "text"], capsys)
    assert code == 0
    assert "regular: True" in out
    assert "inertia" in out


def test_polytope_out_off_export(tmp_path, capsys):
    target = tmp_path / "poly.off"
    code, _, _ = run_cli(
        ["analyze", FIXTURES / "projective_line.json",
         "--polytope-out", target], capsys)
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "OFF"
    assert lines[1] == "2"
    assert lines[2:] == ["-1.000000000000", "0.000000000000"]


def test_input_fixtures_validate_against_schema():
    schema = load_schema("input.schema.json")
    for path in FIXTURES.glob("*.json"):
        if path.name == "invalid_lattice.json":
            continue  # structurally valid JSON, semantically rejected
        jsonschema.validate(json.loads(path.read_text()), schema)
    jsonschema.validate(json.loads((FIXTURES / "invalid_lattice.json").read_text()), schema)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "toricstacks.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_every_exit_code_is_covered(capsys):
    produced = set()
    cases = [
        (["analyze", FIXTURES / "projective_line.json"],),
        (["analyze", FIXTURES / "irregular_origin.json"],),
        (["analyze", FIXTURES / "invalid_lattice.json"],),
        (["analyze", FIXTURES / "empty_level.json"],),
        (["stages", FIXTURES / "stages_corrupted.json"],),
    ]
    for (args,) in cases:
        code, _, _ = run_cli(args, capsys)
        produced.add(code)
    assert produced == {0, 2, 3, 4, 5}
