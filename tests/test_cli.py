"""Command-line surface: formats, exit codes, determinism."""

import dataclasses
import json
import random
from fractions import Fraction as F

import pytest

from heisflag import cli, linalg
from heisflag.cli import main
from heisflag.heisenberg import admissible_classes
from heisflag.matrixio import (
    MatrixFormatError,
    format_matrix,
    parse_matrix,
    parse_rational,
)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, m, name="g.mat"):
    path = tmp_path / name
    path.write_text(format_matrix(m))
    return str(path)


# -- matrix files -----------------------------------------------------------

def test_matrix_round_trip_exact():
    m = linalg.mat([[F(1, 2), F(-3)], [F(-3), F(7, 5)]])
    assert parse_matrix(format_matrix(m)) == m
    text = "2\n1/2 -3\n-3 7/5\n"
    assert format_matrix(parse_matrix(text)) == text


def test_matrix_round_trip_random():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = [[F(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
             for _ in range(n)]
        assert parse_matrix(format_matrix(m)) == m


def test_matrix_parse_errors():
    # int() and \d also take underscores and non-ASCII digits: "1_0" reads 10, "４" reads 4
    for bad in ["", "x", "2\n1 2\n", "2\n1 2 3\n4 5 6\n", "1\n1/0\n", "1\n1/-2\n",
                "1\n0.5\n", "1_0\n" + ("0 " * 10 + "\n") * 10, "1\n４\n",
                "1\n1/2１\n"]:
        with pytest.raises(MatrixFormatError):
            parse_matrix(bad)
    with pytest.raises(MatrixFormatError):
        parse_rational("2/4x")


# -- classify ---------------------------------------------------------------

def test_classify_standard_form(tmp_path, capsys):
    path = write_matrix(tmp_path, linalg.diag([1, 1, -1, -1]))
    code, out, _ = run_cli(capsys, "classify", path)
    assert code == 0
    assert "class_id: 7" in out
    assert "center_signature: (2, 0, 0)" in out
    assert "derived_refined: spacelike" in out
    assert "swapped: false" in out


def test_classify_flat_with_curvature(tmp_path, capsys):
    two_planes = linalg.mat([[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    path = write_matrix(tmp_path, two_planes)
    code, out, _ = run_cli(capsys, "classify", path, "--curvature", "--record")
    assert code == 0
    assert "class_id: 21" in out
    assert "flat: true" in out
    assert '"class_id": 21' in out


def test_classify_out_of_scope_dimension(tmp_path, capsys):
    path = write_matrix(tmp_path, linalg.identity(3))
    code, out, err = run_cli(capsys, "classify", path)
    assert code == 2
    assert "out of scope" in err


def test_classify_rejects_degenerate_and_definite(tmp_path, capsys):
    path = write_matrix(tmp_path, linalg.diag([1, 1, 0, -1]))
    assert run_cli(capsys, "classify", path)[0] == 2
    path = write_matrix(tmp_path, linalg.identity(4))
    assert run_cli(capsys, "classify", path)[0] == 2
    path = write_matrix(tmp_path, linalg.mat([[1, 2, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0],
                                              [0, 0, 0, -1]]))
    code, _, err = run_cli(capsys, "classify", path)
    assert code == 2 and "error: Gram matrix must be symmetric" in err


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("not a matrix\n")
    assert run_cli(capsys, "classify", str(path))[0] == 1
    assert run_cli(capsys, "classify", str(tmp_path / "missing.mat"))[0] == 1


# -- table ------------------------------------------------------------------

def test_table_counts(capsys):
    for p, q, count in [(3, 3, 21), (3, 2, 15), (2, 2, 10), (3, 1, 6)]:
        code, out, _ = run_cli(capsys, "table", str(p), str(q))
        assert code == 0
        assert f"count: {count}" in out
    assert run_cli(capsys, "table", "2", "1")[0] == 2


def test_table_lists_rows(capsys):
    code, out, _ = run_cli(capsys, "table", "3", "1")
    assert code == 0
    for cid in (1, 2, 3, 4, 10, 13):
        assert f"class {cid}:" in out
    assert "class 5:" not in out


# -- witness ----------------------------------------------------------------

def test_witness_swap(capsys):
    code, out, _ = run_cli(capsys, "witness", "2", "2",
                           "1,0,0,0;0,1,0,0", "0,1,0,0;1,0,0,0")
    assert code == 0
    assert "equivalent: true" in out
    assert "residual_form:" in out


def test_witness_inequivalent(capsys):
    code, out, _ = run_cli(capsys, "witness", "2", "2",
                           "1,0,0,0;0,1,0,0", "0,0,1,0;0,0,0,1")
    assert code == 0
    assert "inequivalent: sig_big (2, 0, 0) != (0, 2, 0)" in out


def test_witness_parse_error(capsys):
    assert run_cli(capsys, "witness", "2", "2", "1,0,x,0;0,1,0,0",
                   "1,0,0,0;0,1,0,0")[0] == 1
    assert run_cli(capsys, "witness", "2", "2", "1,0,0,0;0,1,0,0",
                   "1,0,0,0;0,1,0,0;0,0,1,0")[0] == 1
    code, out, err = run_cli(capsys, "witness", "2", "2", "1,0,0;0,1,0", "0,1,0;1,0,0")
    assert code == 1 and out == ""
    assert "error: flag vectors must have length p + q" in err
    code, _, err = run_cli(capsys, "witness", "2", "2", "1,0,0,0;0,1,0,0", "0,1,0,0;1,0,0,0",
                           "--small", "5")
    assert code == 1
    assert "the small part must take 1 to 1 of the 2 flag spec vectors, got 5" in err


def test_witness_rejects_dependent_flag_vectors(capsys):
    code, out, err = run_cli(capsys, "witness", "2", "2", "1,0,0,0;2,0,0,0;0,1,0,0",
                             "0,1,0,0;0,2,0,0;1,0,0,0", "--small", "2")
    assert code == 1 and "equivalent" not in out
    assert "the 2 small-part vectors of the flag spec are linearly dependent (rank 1)" in err
    code, _, err = run_cli(capsys, "witness", "2", "2", "0,0,0,0;0,1,0,0", "1,0,0,0;0,1,0,0")
    assert code == 1 and "small-part vectors" in err and "(rank 0)" in err
    code, _, err = run_cli(capsys, "witness", "2", "2", "1,0,0,0;0,1,0,0;1,1,0,0",
                           "1,0,0,0;0,1,0,0;0,0,1,0", "--small", "2")
    assert code == 1
    assert "the 3 flag spec vectors are linearly dependent (rank 2)" in err


def test_witness_rejects_negative_signature(capsys):
    code, _, err = run_cli(capsys, "witness", "--", "-1", "5",
                           "1,0,0,0;0,1,0,0", "0,1,0,0;1,0,0,0")
    assert code == 2
    assert "p, q >= 0" in err


def test_witness_rational_entries(capsys):
    # second flag is the image of the first under the exact boost
    # [[5/3, 4/3], [4/3, 5/3]] acting on the (e1, e3) plane
    code, out, _ = run_cli(capsys, "witness", "2", "2",
                           "1,0,0,0;0,1,0,0", "5/3,0,4/3,0;0,1,0,0")
    assert code == 0
    assert "equivalent: true" in out


# -- matsuki ----------------------------------------------------------------

def test_matsuki_output(capsys):
    code, out, _ = run_cli(capsys, "matsuki", "2", "2", "1,0,1,0;0,1,0,1")
    assert code == 0
    assert "c_zero: 2" in out and "d_zero: 1" in out and "d_pm: 0" in out


def test_matsuki_rejects_dependent_flag_vectors(capsys):
    code, out, err = run_cli(capsys, "matsuki", "2", "2", "1,0,1,0;0,1,0,1;1,1,1,1")
    assert code == 1 and "c_zero" not in out
    assert "the 3 flag spec vectors are linearly dependent (rank 2)" in err
    code, _, err = run_cli(capsys, "matsuki", "2", "2", "1,0,1,0")
    assert code == 1
    assert "a flag needs at least two vectors, the flag spec has 1" in err
    assert "--small" not in err


def test_matsuki_rejects_negative_signature(capsys):
    for p, q in [("5", "-1"), ("-1", "5")]:
        code, _, err = run_cli(capsys, "matsuki", "--", p, q, "1,0,1,0;0,1,0,1")
        assert code == 2
        assert f"signature ({p}, {q})" in err
    code, _, err = run_cli(capsys, "matsuki", "2", "2", "1,0,1;0,1,0")
    assert code == 1 and "error: flag vectors must have length p + q" in err


# -- curvature --------------------------------------------------------------

def test_curvature_lorentzian_report(capsys):
    code, out, _ = run_cli(capsys, "curvature", "3", "1")
    assert code == 0
    assert out.count("flat: true") == 1
    assert out.count("soliton: c =") == 6


def test_curvature_single_class(capsys):
    code, out, _ = run_cli(capsys, "curvature", "2", "2", "--class-id", "21")
    assert code == 0
    assert "class 21:" in out and "flat: true" in out
    assert run_cli(capsys, "curvature", "2", "2", "--class-id", "1")[0] == 2
    code, out, err = run_cli(capsys, "curvature", "2", "2", "--class-id", "0")
    assert code == 2 and "class 0 " in err and "class " not in out
    code, out, err = run_cli(capsys, "curvature", "3", "0")
    assert code == 2 and out == ""
    assert "error: need p, q >= 1 (definite metrics are out of scope)" in err


# -- verify -----------------------------------------------------------------

def test_verify_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "2", "2", "--seed", "3",
                             "--trials", "25", "--record")
    code2, out2, _ = run_cli(capsys, "verify", "2", "2", "--seed", "3",
                             "--trials", "25", "--record")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "result: pass" in out1
    assert "check matsuki_duality_count: pass" in out1
    code3, out3, _ = run_cli(capsys, "verify", "3", "1", "--trials", "10")
    assert code3 == 0
    assert "observed ids [1, 2, 3, 4, 10, 13]" in out3


def coverage_line(out):
    return next(line for line in out.splitlines()
                if line.startswith("check metric_class_coverage:"))


def test_verify_coverage_reads_no_seed(capsys):
    # coverage reads no RNG, so its line is the same at every seed
    lines = set()
    for seed in range(5):
        code, out, _ = run_cli(capsys, "verify", "5", "3", "--seed", str(seed), "--trials", "5")
        assert code == 0, out
        lines.add(coverage_line(out))
    assert lines == {"check metric_class_coverage: pass (observed ids "
                     f"{list(range(1, 22))}, 0 off their orbit)"}


def test_verify_passes_at_every_signature_up_to_ten(capsys):
    for n in range(4, 11):
        for p in range(1, n):
            code, out, _ = run_cli(capsys, "verify", str(p), str(n - p), "--trials", "1")
            assert code == 0, out


def test_verify_coverage_fails_on_a_lost_orbit(capsys, monkeypatch):
    survey = cli.survey_flags(3, 2)
    lost, *kept = survey.invariants
    monkeypatch.setattr(cli, "survey_flags", lambda p, q: dataclasses.replace(
        survey, invariants={inv: survey.invariants[inv] for inv in kept}))
    code, out, _ = run_cli(capsys, "verify", "3", "2", "--trials", "1", "--record")
    assert code == 3
    assert coverage_line(out).startswith("check metric_class_coverage: FAIL")
    record = json.loads(out.split("record: ")[1])
    assert "metric_class_coverage" in record["failures"]
    table = admissible_classes(3, 2)
    missing = set(table.ids) - set(record["observed_ids"])
    assert missing == {row.id for row in table.classes if row.flag_invariants(3, 2) == lost}


def test_verify_rejects_out_of_scope(capsys):
    assert run_cli(capsys, "verify", "1", "2")[0] == 2


def test_verify_rejects_trials_below_one(capsys):
    for trials in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "2", "2", "--trials", trials)
        assert code == 1
        assert f"--trials must be at least 1, got {trials}" in err
        assert "result:" not in out
