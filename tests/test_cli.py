"""The command-line surface: formats, exit codes, determinism, file output."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from twospinors import NumericalDrift, cli, fiber_projector, shell_point
from twospinors.cli import _build_parser, _g17_texts, _jdump, field_records, main
from twospinors.momentum import canonical_boosts
from twospinors.verify import run_verification

ROOT = Path(__file__).resolve().parents[1]

GAMMA0 = [
    [[0, 0], [0, 0], [0, 0], [-1, 0]],
    [[0, 0], [0, 0], [1, 0], [0, 0]],
    [[0, 0], [1, 0], [0, 0], [0, 0]],
    [[-1, 0], [0, 0], [0, 0], [0, 0]],
]


def run_json(capsys, argv):
    code = main([argv[0], "--format", "json"] + argv[1:])
    out = capsys.readouterr().out
    return code, json.loads(out)


# --- gamma -------------------------------------------------------------------


def test_gamma_json_payload(capsys):
    code, doc = run_json(capsys, ["gamma"])
    assert code == 0
    assert set(doc) >= {"header", "gamma0", "gamma1", "gamma2", "gamma3", "eta"}
    np.testing.assert_allclose(doc["gamma0"], GAMMA0, atol=1e-14)
    assert doc["relation_residual"] <= 1e-13
    assert doc["header"]["basis_order"] == "e1, e2, e1bar, e2bar"


def test_gamma_text_embeds_conventions(capsys):
    assert main(["gamma"]) == 0
    out = capsys.readouterr().out
    assert "2 h(X, Y) Id" in out
    assert "gamma0" in out


# --- lorentz -----------------------------------------------------------------


def test_lorentz_identity(capsys):
    code, doc = run_json(capsys, ["lorentz", "--", "1", "0", "0", "0", "0", "0", "1", "0"])
    assert code == 0
    np.testing.assert_allclose(doc["lorentz"], np.eye(4), atol=1e-14)
    assert doc["eta_defect"] <= 1e-12


def test_lorentz_boost_example(capsys):
    s = 2**0.5
    code, doc = run_json(
        capsys, ["lorentz", "--", repr(s), "0", "0", "0", "0", "0", repr(1 / s), "0"]
    )
    assert code == 0
    lam = np.asarray(doc["lorentz"])
    assert abs(lam[0, 0] - 1.25) <= 1e-12
    assert abs(lam[0, 3] - 0.75) <= 1e-12


def test_lorentz_rejects_bad_determinant(capsys):
    code = main(["lorentz", "--", "2", "0", "0", "0", "0", "0", "2", "0"])
    assert code == 3


# --- verify --------------------------------------------------------------------


def test_verify_passes(capsys):
    code, doc = run_json(capsys, ["verify", "--seed", "42", "--samples", "25"])
    assert code == 0
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])


def test_verify_corruption_fails_with_named_relation(capsys):
    code, doc = run_json(
        capsys, ["verify", "--seed", "42", "--samples", "5", "--corrupt-gamma", "0,0,1"]
    )
    assert code == 1
    bad = [c for c in doc["checks"] if not c["passed"]]
    assert bad and any("gamma(" in c["detail"] for c in bad)


@pytest.mark.parametrize("argv", [
    ["--seed", "0", "--samples", "1"],
    ["--seed", "5", "--samples", "10"],
    ["--seed", "11", "--samples", "200"],
    ["--seed", "42", "--samples", "5", "--corrupt-gamma", "0,0,1"],
], ids=["seed-0", "seed-5", "seed-11", "corrupt-gamma"])
def test_verify_line_matches_jdump(capsys, argv):
    # The JSON line is written from templates; it is _jdump of the payload
    # that lists every field of each CheckResult.
    code = main(["verify", "--format", "json", *argv])
    args = _build_parser().parse_args(["verify", *argv])
    report = run_verification(seed=args.seed, samples=args.samples, corrupt_gamma=args.corrupt_gamma)
    payload = {
        "header": cli._header(seed=args.seed),
        "samples": report.samples,
        "checks": [vars(c) for c in report.checks],
        "passed": report.passed,
    }
    assert capsys.readouterr().out == _jdump(payload) + "\n"
    assert code == (0 if report.passed else 1)


# --- solve ---------------------------------------------------------------------


def test_solve_rest_solutions(capsys):
    code, doc = run_json(capsys, ["solve", "-m", "1", "--", "0", "0", "0"])
    assert code == 0
    psis = [sol["psi"] for sol in doc["solutions"]]
    assert psis[0] == [[1, 0], [0, 0], [0, 0], [-1, 0]]
    assert psis[1] == [[0, 0], [1, 0], [1, 0], [0, 0]]
    assert all(sol["residual"] == 0 for sol in doc["solutions"])


def test_solve_boosted_residual(capsys):
    code, doc = run_json(capsys, ["solve", "-m", "1", "--", "0", "0", "0.75"])
    assert code == 0
    np.testing.assert_allclose(doc["momentum"], [1.25, 0, 0, 0.75], atol=1e-12)
    assert all(sol["residual"] <= 1e-10 for sol in doc["solutions"])


def test_solve_solutions_fixed_by_projector(capsys):
    code, doc = run_json(capsys, ["solve", "-m", "1.5", "--", "0.4", "-0.2", "0.9"])
    assert code == 0
    q = shell_point(1.5, 0.4, -0.2, 0.9)
    proj = fiber_projector(q)
    for sol in doc["solutions"]:
        psi = np.array([complex(re, im) for re, im in sol["psi"]])
        np.testing.assert_allclose(proj @ psi, psi, atol=1e-10)


def test_solve_rejects_bad_mass(capsys):
    assert main(["solve", "-m", "-1", "--", "0", "0", "0"]) == 3


def test_solve_refuses_overflowing_energy(capsys):
    assert main(["solve", "-m", "1", "--", "1e160", "0", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: momentum coordinates must be finite\n"


# --- planewave-check --------------------------------------------------------------


def test_planewave_check_rest(capsys):
    code, doc = run_json(
        capsys, ["planewave-check", "-m", "1", "--step", "1e-3", "--", "0", "0", "0"]
    )
    assert code == 0
    assert doc["residual"] <= 1e-5
    assert doc["mode"] == "central-difference"


def test_planewave_check_halving_quarters(capsys):
    def args(step):
        return ["planewave-check", "-m", "1", "--point", "0.1", "0.2", "-0.3", "0.5",
                "--step", step, "--", "0.5", "0.3", "0.4"]

    _, doc1 = run_json(capsys, args("1e-2"))
    _, doc2 = run_json(capsys, args("5e-3"))
    assert 3.6 <= doc1["residual"] / doc2["residual"] <= 4.4


def test_planewave_check_analytic(capsys):
    code, doc = run_json(
        capsys, ["planewave-check", "-m", "1", "--analytic", "--", "0.5", "0.3", "0.4"]
    )
    assert code == 0
    assert doc["mode"] == "analytic"
    assert doc["residual"] <= 1e-12


def test_planewave_check_rejects_bad_step(capsys):
    assert main(["planewave-check", "-m", "1", "--step", "-1", "--", "0", "0", "0"]) == 3


# --- sample-field -------------------------------------------------------------------


def read_records(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    records = [json.loads(line) for line in lines[1:]]
    return header, records


def test_sample_field_single_node(tmp_path, capsys):
    out = tmp_path / "field.ndjson"
    code = main(["sample-field", "-m", "1", "--grid", "1:0:0", "--out", str(out)])
    assert code == 0
    header, records = read_records(out)
    assert header["record"] == "header"
    assert header["schema"] == 1
    assert "clifford_anticommutator" in header
    assert len(records) == 2
    assert records[0]["s"] == [[1, 0], [0, 0]]
    assert records[1]["s"] == [[0, 0], [1, 0]]


def test_sample_field_conjugate_pair_exact(tmp_path, capsys):
    out = tmp_path / "field.ndjson"
    assert main(["sample-field", "-m", "1", "--grid", "3:-1:1", "--out", str(out)]) == 0
    _, records = read_records(out)
    assert len(records) == 2 * 27
    for rec in records:
        assert rec["residual"] <= 1e-9
        assert rec["ok"] is True
        s = [complex(re, im) for re, im in rec["s"]]
        sbar = [complex(re, im) for re, im in rec["sbar"]]
        assert sbar == [z.conjugate() for z in s]


# Output of sample-field on three grids, pinned by the sha256 of the file the
# scalar, one-node-at-a-time implementation wrote.  (mass, grid, extra flags).
PINNED_GRIDS = {
    "cartesian-7": (1.7, "7:-0.9:2.3", ["--seed", "5"],
                    "e090974a933983779858bfc5765342820dbedb871ab52e12ec70a078496b2ff5"),
    "rapidity-5": (0.6, "5:-2.5:1.5", ["--rapidity"],
                   "0085bfca45d02138f043fbe0ee3be675ad0018eef0fb5ee32125912cae9085a3"),
    "origin-1": (1.0, "1:0:0", [],
                 "75c9b02f370b8d1973090ad9a6a5898aab7a95b2f33e9636bd7f22a908fe1101"),
    # Mirror-image nodes: many numbers of a plane differ only in sign.
    "symmetric-4": (1.0, "4:-1.5:1.5", [],
                    "df634d421c2c4cf718d1e697763928e84e510a416079cb9279f1c677567e5192"),
    # The same grid with every one of its 128 records flagged "ok": false.
    "flagged-4": (1.0, "4:-1.5:1.5", ["--tol", "1e-20"],
                  "72c5a27e9b170e6127551c4e9732e3457cd6736ffb513d52aab436b04549972b"),
}


@pytest.mark.parametrize("mass, grid, flags, digest", PINNED_GRIDS.values(), ids=PINNED_GRIDS)
def test_sample_field_byte_identical(tmp_path, capsys, mass, grid, flags, digest):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    argv = ["sample-field", "-m", repr(mass), "--grid", grid] + flags
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == digest


# The stdout summary of the "flagged-4" row, in each format: the one command
# output that no digest above covers.
SAMPLE_FIELD_SUMMARY = {
    "json": '{"header": {"schema": 1, "conventions_version": 1, "basis_order": "e1, e2, e1bar, '
            'e2bar", "epsilon_normalization": "eps(e1, e2) = 1", "metric_signature": "+---", '
            '"clifford_anticommutator": "phi(X) phi(Y) + phi(Y) phi(X) = 2 h(X, Y) Id", '
            '"planewave_phase": "psi(x) = exp(-i*(p0*x0 + p1*x1 + p2*x2 + p3*x3)) * psi_p", '
            '"seed": 0, "tol": 9.9999999999999995e-21}, "out": "field.ndjson", "records": 128, '
            '"flagged": 128}\n',
    "text": "wrote 128 records to field.ndjson (128 flagged)\n",
}


@pytest.mark.parametrize("fmt", SAMPLE_FIELD_SUMMARY)
def test_sample_field_summary_byte_identical(tmp_path, capsys, monkeypatch, fmt):
    mass, grid, flags, digest = PINNED_GRIDS["flagged-4"]
    monkeypatch.chdir(tmp_path)
    argv = ["sample-field", "--format", fmt, "-m", repr(mass), "--grid", grid, *flags]
    assert main(argv + ["--out", "field.ndjson"]) == 0
    assert capsys.readouterr().out == SAMPLE_FIELD_SUMMARY[fmt]
    assert hashlib.sha256((tmp_path / "field.ndjson").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mass, grid, flags, digest", PINNED_GRIDS.values(), ids=PINNED_GRIDS)
def test_written_lines_match_field_records(tmp_path, capsys, mass, grid, flags, digest):
    # The writer and the dict view are two consumers of the same planes.
    out = tmp_path / "field.ndjson"
    argv = ["sample-field", "-m", repr(mass), "--grid", grid, *flags, "--out", str(out)]
    assert main(argv) == 0
    args = _build_parser().parse_args(argv)
    header, records = field_records(args.mass, args.grid, seed=args.seed, tol=args.tol,
                                    rapidity=args.rapidity)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines == [_jdump(header)] + [_jdump(rec) for rec in records]
    assert len(lines) == 1 + 2 * int(grid.split(":")[0]) ** 3


# Failing grids: the exit code, the last stderr line and the sha256 of the
# partial file are those of the scalar implementation, on rapidity axes of
# math.sinh values, which no host's SIMD loops change.  The mid-grid row
# fails on its eighth node, whose boost has determinant 1.0000000000010232:
# spinor._unimodular marks it and SL2Element refuses it.
SAMPLE_FIELD_ERRORS = {
    "determinant": (
        ["-m", "1", "--grid", "3:-11:11", "--rapidity"],
        "error: determinant (1.000000000007276+0j) differs from 1 by more than 1e-12; "
        "renormalize first",
        "7417fb3f779b825ccf5121faa5c9f6a81a4365f6b8e1c057f2cfac2857aa88fd",
    ),
    "off-shell": (
        ["-m", "1", "--grid", "5:-30:30", "--rapidity"],
        "error: dispersion defect 8.590e+09 exceeds tolerance for m=1.0",
        "d73ab95da059c3edf194c839e6b02b8563a42bcbf47e10d59161b6953f9eb2bd",
    ),
    "non-finite-momentum": (
        ["-m", "1", "--grid", "3:-800:800", "--rapidity"],
        "error: momentum coordinates must be finite",
        "68bcb6fc35f9a816c502376775a51cfa22ab70ac75e31541513b5df195a188d5",
    ),
    "determinant-mid-grid": (
        ["-m", "0.2038915621465247", "--grid", "4:-8.745101673433474:9.051056505008884",
         "--rapidity"],
        "error: determinant (1.0000000000010232+0j) differs from 1 by more than 1e-12; "
        "renormalize first",
        "35418a99dc081a0509d26e2b9983784c47835a07fddbebd6bcf6e8c8539772cf",
    ),
    "bad-mass": (
        ["-m", "-1", "--grid", "2:0:1"],
        "error: mass must be positive, got -1.0",
        "64ff6b98d1de5e26397b5fb5b468be14161d1e2d9adb467bf31bae107379992b",
    ),
}


@pytest.mark.parametrize("argv, message, digest", SAMPLE_FIELD_ERRORS.values(),
                         ids=SAMPLE_FIELD_ERRORS)
def test_sample_field_error_parity(tmp_path, capsys, argv, message, digest):
    out = tmp_path / "field.ndjson"
    assert main(["sample-field", *argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, message, digest", SAMPLE_FIELD_ERRORS.values(),
                         ids=SAMPLE_FIELD_ERRORS)
def test_partial_file_matches_field_records(tmp_path, capsys, argv, message, digest):
    # The partial file holds exactly the records field_records yields before
    # it raises the error that sample-field reports.
    out = tmp_path / "field.ndjson"
    assert main(["sample-field", *argv, "--out", str(out)]) == 3
    args = _build_parser().parse_args(["sample-field", *argv, "--out", str(out)])
    header, records = field_records(args.mass, args.grid, seed=args.seed, tol=args.tol,
                                    rapidity=args.rapidity)
    seen = [_jdump(header)]
    with pytest.raises(ValueError) as info:
        for rec in records:
            seen.append(_jdump(rec))
    assert f"error: {info.value}" == message
    assert out.read_text(encoding="utf-8").splitlines() == seen


# A non-finite number written into an accepted node of the second plane of a
# 2-node grid, after fiber_test has read it: (array, index, value, index of
# the first record holding it).  Plane 1 holds records 0-7; node 1 of plane 2
# holds records 10 and 11.
NON_FINITE_RECORDS = {
    "residual": ((1, 1), np.nan, 11),
    "psi": ((1, 1, 0), np.inf, 11),
    "p": ((1, 0, 3), np.inf, 10),
}


@pytest.mark.parametrize("name, case", NON_FINITE_RECORDS.items(), ids=NON_FINITE_RECORDS)
def test_non_finite_record_refused_after_the_records_before_it(tmp_path, capsys, monkeypatch,
                                                               name, case):
    # sample-field writes every record before the first one holding the
    # number and refuses that one, printing its line.
    (index, value, refused), original, calls = case, cli.fiber_test, []

    def poisoned(p, psi, m, tol):
        result = original(p, psi, m, tol)
        calls.append(None)
        if len(calls) % 2 == 0:  # the second plane of each run
            {"p": p, "psi": psi, "residual": result[0]}[name][index] = value
        return result

    monkeypatch.setattr(cli, "fiber_test", poisoned)
    out = tmp_path / "field.ndjson"
    assert main(["sample-field", "-m", "1", "--grid", "2:-1:1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    # The same planes through field_records, rendered as %.17g renders them.
    monkeypatch.setattr(cli, "_g17", lambda x: "%.17g" % x)
    header, records = field_records(1.0, (2, -1.0, 1.0), seed=0, tol=1e-9)
    expected = [_jdump(header)] + [_jdump(rec) for rec in records]
    assert out.read_text(encoding="utf-8").splitlines() == expected[:1 + refused]
    line = expected[1 + refused]
    assert "inf" in line or "nan" in line
    assert captured.err == f"error: cannot write a record with a non-finite number: {line}\n"


NON_FINITE_OUTPUT = {
    "planewave-json": ["planewave-check", "-m", "1", "--step", "inf", "--format", "json",
                       "--", "0", "0", "0"],
    "planewave-text": ["planewave-check", "-m", "1", "--step", "inf", "--", "0", "0", "0"],
    "sample-field-tol": ["sample-field", "-m", "1", "--grid", "2:-1:1", "--tol", "nan",
                         "--format", "json"],
}


# A non-finite argument that would reach the output is refused at parse time.
@pytest.mark.parametrize("argv", NON_FINITE_OUTPUT.values(), ids=NON_FINITE_OUTPUT)
def test_non_finite_output_refused(tmp_path, capsys, argv):
    out = tmp_path / "field.ndjson"
    if argv[0] == "sample-field":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: argument --" in captured.err
    assert "expected a finite number" in captured.err
    assert not out.exists()


# Malformed or non-finite arguments: a usage error at parse time (exit 2),
# with the stderr line naming the argument; nothing on stdout, no file.
BAD_ARGUMENTS = {
    "solve-tol-nan-text": (["solve", "-m", "1", "--tol", "nan", "--", "0", "0", "1"],
                           "argument --tol: expected a finite number, got 'nan'"),
    "solve-tol-negative": (["solve", "-m", "1", "--tol", "-1", "--", "0", "0", "0"],
                           "argument --tol: expected a nonnegative number, got '-1'"),
    "sample-field-tol-negative": (["sample-field", "-m", "1", "--grid", "2:-1:1", "--tol", "-1"],
                                  "argument --tol: expected a nonnegative number, got '-1'"),
    "solve-tol-negative-exponent": (["solve", "-m", "1", "--tol", "-1e-9", "--", "0", "0", "0"],
                                    "argument --tol: expected a nonnegative number, got '-1e-9'"),
    "solve-mass-negative-inf": (["solve", "-m", "-inf", "--", "0", "0", "1"],
                                "argument -m/--mass: expected a finite number, got '-inf'"),
    "solve-mass-inf": (["solve", "-m", "inf", "--", "0", "0", "1"],
                       "argument -m/--mass: expected a finite number, got 'inf'"),
    "solve-momentum-nan": (["solve", "-m", "1", "--", "0", "nan", "1"],
                           "argument P: expected a finite number, got 'nan'"),
    "solve-momentum-word": (["solve", "-m", "1", "--", "0", "x", "1"],
                            "argument P: expected a finite number, got 'x'"),
    "planewave-step-inf": (["planewave-check", "-m", "1", "--step", "inf", "--", "0", "0", "0"],
                           "argument --step: expected a finite number, got 'inf'"),
    "planewave-point-nan": (["planewave-check", "-m", "1", "--point", "0", "0", "nan", "0",
                             "--", "0", "0", "0"],
                            "argument --point: expected a finite number, got 'nan'"),
    "lorentz-entry-inf": (["lorentz", "--", "1", "0", "0", "0", "0", "0", "1", "-inf"],
                          "argument E: expected a finite number, got '-inf'"),
    "grid-lo-inf": (["sample-field", "-m", "1", "--grid", "2:-inf:1"],
                    "argument --grid: expected a finite number, got '-inf'"),
    "grid-hi-word": (["sample-field", "-m", "1", "--grid", "2:1:x"],
                     "argument --grid: expected a finite number, got 'x'"),
    "grid-no-nodes": (["sample-field", "-m", "1", "--grid", "0:-1:1"],
                      "argument --grid: expected at least one node per axis, got '0'"),
    "grid-fraction-nodes": (["sample-field", "-m", "1", "--grid", "2.5:-1:1"],
                            "argument --grid: expected at least one node per axis, got '2.5'"),
    "grid-two-parts": (["sample-field", "-m", "1", "--grid", "2:1"],
                       "argument --grid: expected N:LO:HI, got '2:1'"),
    "sample-field-mass-nan": (["sample-field", "-m", "nan", "--grid", "2:0:1"],
                              "argument -m/--mass: expected a finite number, got 'nan'"),
    "verify-samples-zero": (["verify", "--samples", "0"],
                            "argument --samples: expected a positive integer, got '0'"),
    "verify-samples-negative": (["verify", "--samples=-5"],
                                "argument --samples: expected a positive integer, got '-5'"),
    "verify-samples-word": (["verify", "--samples", "many"],
                            "argument --samples: expected a positive integer, got 'many'"),
    "verify-seed-negative": (["verify", "--seed", "-1"],
                             "argument --seed: expected a nonnegative integer, got '-1'"),
    "verify-seed-negative-exponent": (["verify", "--seed=-1e0"],
                                      "argument --seed: expected a nonnegative integer, got '-1e0'"),
    "sample-field-seed-negative": (["sample-field", "-m", "1", "--grid", "2:-1:1", "--seed", "-1"],
                                   "argument --seed: expected a nonnegative integer, got '-1'"),
    "corrupt-gamma-past-table": (["verify", "--corrupt-gamma", "9,0,0"],
                                 "argument --corrupt-gamma: expected MU,I,J with each index "
                                 "in 0..3, got '9,0,0'"),
    "corrupt-gamma-negative": (["verify", "--corrupt-gamma=-1,0,0"],
                               "argument --corrupt-gamma: expected MU,I,J with each index "
                               "in 0..3, got '-1,0,0'"),
    "corrupt-gamma-two-parts": (["verify", "--corrupt-gamma", "0,1"],
                                "argument --corrupt-gamma: expected MU,I,J with each index "
                                "in 0..3, got '0,1'"),
    "corrupt-gamma-word": (["verify", "--corrupt-gamma", "0,1,x"],
                           "argument --corrupt-gamma: expected MU,I,J with each index "
                           "in 0..3, got '0,1,x'"),
}


@pytest.mark.parametrize("argv, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_argument_is_a_usage_error(tmp_path, capsys, argv, message):
    out = tmp_path / "field.ndjson"
    if argv[0] == "sample-field":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"twospinors {argv[0]}: error: {message}"
    assert not out.exists()


# A negative number in exponent form is an option's value, read as its
# decimal spelling is: the same exit code, stdout and stderr.
NEGATIVE_SPELLINGS = {
    "solve-mass": (["solve", "-m", "-1e0", "--", "0", "0", "0"],
                   ["solve", "-m", "-1.0", "--", "0", "0", "0"]),
    "planewave-mass": (["planewave-check", "-m", "-1E0", "--", "0", "0", "0"],
                       ["planewave-check", "-m", "-1", "--", "0", "0", "0"]),
    "sample-field-mass": (["sample-field", "-m", "-1e0", "--grid", "2:0:1"],
                          ["sample-field", "-m", "-1.0", "--grid", "2:0:1"]),
    "solve-tol": (["solve", "-m", "1", "--tol", "-1e-9", "--", "0", "0", "0"],
                  ["solve", "-m", "1", "--tol=-1e-9", "--", "0", "0", "0"]),
    "planewave-step": (["planewave-check", "-m", "1", "--step", "-1e-3", "--", "0", "0", "0"],
                       ["planewave-check", "-m", "1", "--step", "-0.001", "--", "0", "0", "0"]),
    "planewave-point": (["planewave-check", "-m", "1", "--point", "0", "-1e-3", "0", "-.5e1", "--", "0", "0", "0"],
                        ["planewave-check", "-m", "1", "--point", "0", "-0.001", "0", "-5", "--", "0", "0", "0"]),
}


@pytest.mark.parametrize("exponent, decimal", NEGATIVE_SPELLINGS.values(), ids=NEGATIVE_SPELLINGS)
def test_negative_exponent_is_read_as_a_number(tmp_path, capsys, exponent, decimal):
    results = []
    for argv in (exponent, decimal):
        if argv[0] == "sample-field":
            argv = argv + ["--out", str(tmp_path / "field.ndjson")]
        try:
            code = main(argv)
        except SystemExit as exit:
            code = exit.code
        results.append((code, *capsys.readouterr()))
    assert results[0] == results[1]
    assert results[0][0] in (0, 2, 3) and "expected one argument" not in results[0][2]


# Output of every other command, pinned by the exit code and the sha256 of
# stdout in each format: argv, exit code, json digest, text digest.
SQRT2, INV_SQRT2 = repr(2**0.5), repr(1 / 2**0.5)
PINNED_OUTPUTS = {
    "gamma": (["gamma"], 0,
              "9540f40ff73811a21eb81cee9bcee9eb5d3850805c81db1ce1dec52006ff3989",
              "5a4ca64a30c6abb9033b050b8140b9a9f10503f3675fdb379511e91a09e6fad6"),
    "lorentz-identity": (["lorentz", "--", "1", "0", "0", "0", "0", "0", "1", "0"], 0,
                         "daadeeed15f438dd9d1e6bc8baa1f8e4bc6da95543e82cb9fc9a75a4637e5448",
                         "d658b97e26e48f93e7e25ba6b137be457702a9672187367f757b7593c2d14f3f"),
    "lorentz-boost": (["lorentz", "--", SQRT2, "0", "0", "0", "0", "0", INV_SQRT2, "0"], 0,
                      "c7bed27d5b5a4d0466b11c5d114a8cbe4e4b4b43a651666d15588f6f5cce7cc9",
                      "7cd13e2ce3b39e7a74a51058e224cb184a636db8058a1494aa2e60cb55615d81"),
    "solve-rest": (["solve", "-m", "1", "--", "0", "0", "0"], 0,
                   "7f3449699e1552454d0dc7badcf215e37ec3241e9341b71376c11a9aa58e3876",
                   "6b2b9b238f10bf5b71d6ed46f21e90181c44fc8c43a4e08d66ca986f508ca26d"),
    "solve-boosted": (["solve", "-m", "1.5", "--", "0.4", "-0.2", "0.9"], 0,
                      "3863d557fe8ced96c7940d56ae362a7dd693d2fa52e92cf929739c0655b3a727",
                      "becee3a88cdcda3b95e0d86cd8dc3f94ccfd23d7eec56c169df3457d0621b39f"),
    "planewave-central": (["planewave-check", "-m", "1", "--point", "0.1", "0.2", "-0.3", "0.5",
                           "--step", "1e-2", "--", "0.5", "0.3", "0.4"], 0,
                          "97a495a84028ce5ab06b279d08258372dd09e4b2787774a6346d410b29e1dab8",
                          "e11c1439c90edc9b9e9d7a6063b9ff23272b49be9be599e09248de93d225ed29"),
    "planewave-analytic": (["planewave-check", "-m", "1", "--analytic", "--", "0.5", "0.3", "0.4"],
                           0,
                           "36e5aef2adcef5222ba2b20b6e88fdd6809b18a71a6ae04b69a6d423f61d0b79",
                           "327e553ded20d420dd890164dd6bc409b6bf9a16f6e91cf239af17ed1559a4d6"),
    "verify-seed0": (["verify", "--samples", "40", "--seed", "0"], 0,
                     "56e653bf83a191ce305f5fe424f5baf42ba6bc03c39f201d82e462a38f81b32b",
                     "5116c70e50edaecaf86014b25fc1023a44ff959fe520dceed057935d5270f9f3"),
    "verify-seed1": (["verify", "--samples", "40", "--seed", "1"], 0,
                     "b60fe94491329c4eabceb6efd8a249ab81df4e7a73aa1c95388c961c255e6c45",
                     "a79741d07b034ae877084c4ea1ce9ef00cbedd365e952dc45d7026df7c9aae10"),
    "verify-seed2": (["verify", "--samples", "40", "--seed", "2"], 0,
                     "e913314661cc5d595b0533618e27eacc110d8958da60849cfa3e2f29c300e7f8",
                     "ce11826e68560567ff2f091db6c3ab4ca0ca0f3d07856f48b117f6ec191e676d"),
    "verify-seed3": (["verify", "--samples", "40", "--seed", "3"], 0,
                     "995570cd7a9672540ef48a84601aeffaea94f82e7f81c4e696bba98959f1a588",
                     "bc54e4be760eddd4e0593dc5e395e72bfecc31e1cace7cecb4d0762455a5e100"),
    "verify-corrupt": (["verify", "--samples", "40", "--corrupt-gamma", "2,1,3"], 1,
                       "9c55c2a649cbe11b71de11870ad91c3d3ec196f656e088ec93d20aa0910502f3",
                       "284d738bc2c5805676fd42b263adaf36154fb2d8eb936ed69275b3fd0fe43049"),
    # The CI command, and a run that crosses verify._BLOCK (1024 samples).
    "verify-1000": (["verify", "--samples", "1000", "--seed", "7"], 0,
                    "f4eba20e4071e259950297bacdaa0f9be8425196a43b54c037fe2ddd329b4c2c",
                    "0d4b1f3ae95f68c251b94c0139ac68c03f6a3be80f2c85925777dfa2896963f7"),
    "verify-2500": (["verify", "--samples", "2500", "--seed", "7"], 0,
                    "d988911d19165279ac48760cee9671d05c9cfab9ef4e2e0da0762e1a8680f208",
                    "2969ed507b73f1f4e0830e5c31a12378506a411f06a08b9274207562b1f43c6f"),
}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("argv, code, json_digest, text_digest", PINNED_OUTPUTS.values(),
                         ids=PINNED_OUTPUTS)
def test_command_output_byte_identical(capsys, argv, code, json_digest, text_digest, fmt):
    assert main([argv[0], "--format", fmt] + argv[1:]) == code
    out = capsys.readouterr().out
    digest = json_digest if fmt == "json" else text_digest
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_jdump_refuses_non_finite():
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _jdump({"x": [1.0, bad]})


@pytest.mark.parametrize("text, expected", [
    ("ab", '"ab"'),
    ("a\\b", '"a\\\\b"'),
    ('a"b', '"a\\"b"'),
    ("a\tb", '"a\\tb"'),
    ("a\nb", '"a\\nb"'),
    ("a\x00b", '"a\\u0000b"'),
    ("p\u00e9", '"p\u00e9"'),
])
def test_jdump_escapes_strings(text, expected):
    # RFC 8259: quote, backslash and control characters escaped, other text
    # written as it is.
    assert _jdump({text: [text]}) == "{%s: [%s]}" % (expected, expected)
    assert json.loads(_jdump({text: [text]})) == {text: [text]}


def test_g17_texts_matches_per_value_format():
    # Each distinct magnitude is formatted once and its sign restored: -0.0
    # keeps its sign, a nan's is dropped as %.17g drops it.
    rng = np.random.default_rng(22)
    special = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308,
               1.7e308, -1.7e308]
    values = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40)
    x = np.concatenate([special, values, -values, np.nextafter(values, np.inf),
                        np.nextafter(values, -np.inf), rng.choice(values, 21)])
    x = rng.permutation(x).reshape(3, -1)
    assert np.signbit(x[np.isnan(x)]).any() and not np.signbit(x[np.isnan(x)]).all()
    assert _g17_texts(x) == ["%.17g" % v for v in x.ravel().tolist()]


def test_jdump_refuses_other_types():
    with pytest.raises(TypeError, match="^cannot serialize complex$"):
        _jdump({"x": [1.0, 2j]})


def test_sample_field_rapidity_grid(tmp_path, capsys):
    out = tmp_path / "field.ndjson"
    assert main(
        ["sample-field", "-m", "2", "--grid", "3:-1:1", "--rapidity", "--out", str(out)]
    ) == 0
    header, records = read_records(out)
    assert header["grid"]["kind"] == "rapidity"
    # extreme axis value is m*sinh(1) in each spatial direction
    p3_values = {rec["p"][3] for rec in records}
    assert any(abs(v - 2 * np.sinh(1.0)) <= 1e-12 for v in p3_values)


def test_sample_field_io_error_mentions_path(tmp_path, capsys):
    # An output path that cannot be opened is a usage error: a missing
    # directory, and a directory itself.
    for unopenable in (tmp_path / "no" / "such" / "dir" / "f.ndjson", tmp_path):
        code = main(["sample-field", "-m", "1", "--grid", "1:0:0", "--out", str(unopenable)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot open output file {str(unopenable)!r}: ")


# --- options -------------------------------------------------------------------------

# A command takes --seed or --tol only if it reads it: argv with the flag,
# the flag, and (for kept flags) the parsed attribute and value.
DROPPED_FLAGS = {
    "gamma-seed": (["gamma", "--seed", "1"], "--seed"),
    "gamma-tol": (["gamma", "--tol", "1e-9"], "--tol"),
    "lorentz-seed": (["lorentz", "--seed", "1", "--", "1", "0", "0", "0", "0", "0", "1", "0"], "--seed"),
    "lorentz-tol": (["lorentz", "--tol", "1e-9", "--", "1", "0", "0", "0", "0", "0", "1", "0"], "--tol"),
    "verify-tol": (["verify", "--samples", "1", "--tol", "1e-9"], "--tol"),
    "solve-seed": (["solve", "-m", "1", "--seed", "1", "--", "0", "0", "0"], "--seed"),
    "planewave-check-seed": (["planewave-check", "-m", "1", "--seed", "1", "--", "0", "0", "0"], "--seed"),
}
KEPT_FLAGS = {
    "verify-seed": (["verify", "--seed", "7"], "seed", 7),
    "solve-tol": (["solve", "-m", "1", "--tol", "1e-6", "--", "0", "0", "0"], "tol", 1e-6),
    "planewave-check-tol": (["planewave-check", "-m", "1", "--tol", "1e-6", "--", "0", "0", "0"], "tol", 1e-6),
    "sample-field-seed": (["sample-field", "-m", "1", "--seed", "7", "--out", "f.ndjson"], "seed", 7),
    "sample-field-tol": (["sample-field", "-m", "1", "--tol", "1e-6", "--out", "f.ndjson"], "tol", 1e-6),
}


@pytest.mark.parametrize("argv, flag", DROPPED_FLAGS.values(), ids=DROPPED_FLAGS)
def test_unread_option_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, attr, value", KEPT_FLAGS.values(), ids=KEPT_FLAGS)
def test_read_option_parses(argv, attr, value):
    assert getattr(_build_parser().parse_args(argv), attr) == value


def call_main(capsys, argv):
    """Exit code and stdout of one main call, a usage error included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main parses with one parser per process.  Each call of a sequence gives
    # the exit code and stdout of the same call on a freshly built parser: no
    # corruption, usage error or option carries over to the next call.
    assert cli._parser() is cli._parser()
    out = str(tmp_path / "field.ndjson")
    calls = [
        (["verify", "--samples", "5", "--corrupt-gamma", "0,1,1"], 1),
        (["verify", "--samples", "5"], 0),
        (["solve", "-m", "1", "--seed", "1", "--", "0", "0", "0"], 2),
        (["solve", "-m", "1", "--", "0.3", "-0.2", "0.1"], 0),
        (["sample-field", "-m", "1", "--grid", "2:-1:1", "--out", out, "--format", "json"], 0),
        (["planewave-check", "-m", "1", "--", "0.5", "0.3", "0.4"], 0),
    ]
    shared = [call_main(capsys, argv) for argv, _ in calls]
    assert [code for code, _ in shared] == [code for _, code in calls]
    field = (tmp_path / "field.ndjson").read_bytes()
    monkeypatch.setattr(cli, "_parser", _build_parser)
    assert [call_main(capsys, argv) for argv, _ in calls] == shared
    assert (tmp_path / "field.ndjson").read_bytes() == field


# --- process-level behavior ----------------------------------------------------------


def run_module(argv):
    """python -m twospinors argv in a fresh interpreter, on this tree's src/,
    with a RuntimeWarning an error."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "twospinors", *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def test_usage_error_exit_code():
    proc = run_module(["frobnicate"])
    assert proc.returncode == 2


def test_overflowing_axis_reports_only_the_error(tmp_path):
    proc = run_module(["sample-field", "-m", "1", "--rapidity", "--grid", "3:-800:800",
                       "--out", str(tmp_path / "field.ndjson")])
    assert proc.returncode == 3
    assert proc.stderr == "error: momentum coordinates must be finite\n"


# Inputs whose arithmetic overflows on the way to a typed error: stderr is
# that one error line, with no numpy warning before it.
ONLY_THE_ERROR = {
    "sample-field-span": (
        ["sample-field", "-m", "1", "--grid", "3:1.7e308:-1.7e308"],
        "error: momentum coordinates must be finite",
    ),
    "sample-field-span-bad-mass": (
        ["sample-field", "-m", "-3", "--grid", "3:1.7e308:-1.7e308"],
        "error: mass must be positive, got -3.0",
    ),
    "planewave-phase": (
        ["planewave-check", "-m", "1e154", "--step", "1e-200", "--analytic",
         "--point", "1e155", "0.5", "1e-150", "1", "--", "1e-8", "5e-324", "1e-8"],
        "error: plane-wave phase p.x = inf at x = [1e+155, 0.5, 1e-150, 1.0] is not finite",
    ),
    "planewave-subnormal-step": (
        ["planewave-check", "-m", "1", "--step", "5e-324", "--", "0.5", "0", "0"],
        "error: plane-wave residual nan at step 5e-324 is not finite",
    ),
}


@pytest.mark.parametrize("argv, message", ONLY_THE_ERROR.values(), ids=ONLY_THE_ERROR)
def test_overflow_reports_only_the_typed_error(tmp_path, argv, message):
    if argv[0] == "sample-field":
        argv = argv + ["--out", str(tmp_path / "field.ndjson")]
    proc = run_module(argv)
    assert proc.returncode == 3
    assert "Warning" not in proc.stderr
    assert proc.stderr == message + "\n"


def test_overflowing_lorentz_defect_reports_only_the_error():
    proc = run_module(["lorentz", "1e150", "0", "0", "0", "0", "0", "1e-150", "0"])
    assert proc.returncode == 3
    assert proc.stderr == "error: metric-orthogonality defect inf exceeds 1e-10\n"


def test_nan_determinant_reports_only_the_error():
    # The determinant of this singular matrix is inf - inf = nan.
    proc = run_module(["lorentz", "--"] + ["1e200", "0"] * 4)
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: determinant (nan+0j) differs from 1 by more than 1e-12; renormalize first\n"
    )


def test_overflowing_boost_reports_only_the_typed_error(tmp_path):
    # A subnormal mass: shell_point accepts the first node, its boost overflows.
    proc = run_module(["sample-field", "-m", "1e-315", "--grid", "2:1e-7:3e-7",
                       "--out", str(tmp_path / "field.ndjson")])
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: canonical boost of p = [1.7320508075688772e-07, 1e-07, 1e-07, 1e-07]"
        " at m = 1e-315 overflows\n"
    )


def test_sample_field_mask_disagreement_is_numerical_drift(monkeypatch):
    # The mask rejects node 1 of the second p1 slab, which the scalar path
    # accepts: the records of every node before it are yielded, then the
    # replay raises NumericalDrift naming the node.
    calls = []

    def reject_one(m, p1, p2, p3):
        p, A, accepted = canonical_boosts(m, p1, p2, p3)
        calls.append(None)
        if len(calls) == 2:
            accepted[1] = False
        return p, A, accepted

    monkeypatch.setattr(cli, "canonical_boosts", reject_one)
    _, records = field_records(1.0, (2, -1.0, 1.0), seed=0, tol=1e-9)
    seen = []
    with pytest.raises(NumericalDrift) as info:
        for rec in records:
            seen.append(rec["p"])
    # Two records per node; node 5 of the grid is the rejected one.
    nodes = [[2.0, p1, p2, p3] for p1 in (-1.0, 1.0) for p2 in (-1.0, 1.0) for p3 in (-1.0, 1.0)]
    assert seen == [p for p in nodes[:5] for _ in range(2)]
    assert str(info.value) == f"stacked checks rejected the node p = {nodes[5]} that the scalar path accepts"


def test_module_entry_point_runs(capsys):
    # python -m twospinors prints what main prints.
    main(["gamma", "--format", "json"])
    proc = run_module(["gamma", "--format", "json"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")
    assert json.loads(proc.stdout)["relation_residual"] <= 1e-13
