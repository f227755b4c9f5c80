"""The command-line surface: formats, exit codes, determinism, file output."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from twospinors import fiber_projector, shell_point
from twospinors.cli import _jdump, _parse_grid, _record_line, field_records, main

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
}


@pytest.mark.parametrize("mass, grid, flags, digest", PINNED_GRIDS.values(), ids=PINNED_GRIDS)
def test_sample_field_byte_identical(tmp_path, capsys, mass, grid, flags, digest):
    a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
    argv = ["sample-field", "-m", repr(mass), "--grid", grid] + flags
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert hashlib.sha256(a.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mass, grid, flags, digest", PINNED_GRIDS.values(), ids=PINNED_GRIDS)
def test_record_line_matches_jdump(mass, grid, flags, digest):
    seed = int(flags[flags.index("--seed") + 1]) if "--seed" in flags else 0
    _, records = field_records(mass, _parse_grid(grid), seed=seed, tol=1e-9,
                               rapidity="--rapidity" in flags)
    count = 0
    for rec in records:
        assert _record_line(rec) == _jdump(rec)
        count += 1
    assert count == 2 * int(grid.split(":")[0]) ** 3


def test_record_line_refuses_non_finite():
    _, records = field_records(1.0, (1, 0.0, 0.0), seed=0, tol=1e-9)
    rec = next(records)
    for key, value in (("residual", float("nan")), ("p", [float("inf"), 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            _record_line({**rec, key: value})


# Failing grids: the exit code, the last stderr line and the sha256 of the
# partial file are those of the scalar implementation.  The mid-grid row
# fails on its eighth node, where numpy's array arithmetic and its scalar
# arithmetic disagree about the determinant check.
SAMPLE_FIELD_ERRORS = {
    "determinant": (
        ["-m", "1", "--grid", "3:-12:12", "--rapidity"],
        "error: determinant (0.9999999999854481+0j) differs from 1 by more than 1e-12; "
        "renormalize first",
        "62521a5c31ddc0bc2ee671df8ca45adad29b70812019db7ae45e89d622b70626",
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
        "d2b4a486c727534e6d74bf6aa07fde1b2daca78933e9ebae4d0bbb2726e050d5",
    ),
    "bad-mass": (
        ["-m", "-1", "--grid", "2:0:1"],
        "error: mass must be positive, got -1.0",
        "64ff6b98d1de5e26397b5fb5b468be14161d1e2d9adb467bf31bae107379992b",
    ),
}


@pytest.mark.filterwarnings("ignore:overflow encountered in sinh:RuntimeWarning")
@pytest.mark.parametrize("argv, message, digest", SAMPLE_FIELD_ERRORS.values(),
                         ids=SAMPLE_FIELD_ERRORS)
def test_sample_field_error_parity(tmp_path, capsys, argv, message, digest):
    out = tmp_path / "field.ndjson"
    assert main(["sample-field", *argv, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == message
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


NON_FINITE_OUTPUT = {
    "planewave-json": ["planewave-check", "-m", "1", "--step", "inf", "--format", "json",
                       "--", "0", "0", "0"],
    "planewave-text": ["planewave-check", "-m", "1", "--step", "inf", "--", "0", "0", "0"],
    "sample-field-tol": ["sample-field", "-m", "1", "--grid", "2:-1:1", "--tol", "nan",
                         "--format", "json"],
}


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("argv", NON_FINITE_OUTPUT.values(), ids=NON_FINITE_OUTPUT)
def test_non_finite_output_refused(tmp_path, capsys, argv):
    out = tmp_path / "field.ndjson"
    if argv[0] == "sample-field":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write the non-finite number")
    assert not out.exists()


def test_jdump_refuses_non_finite():
    for bad in (float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValueError, match="non-finite"):
            _jdump({"x": [1.0, bad]})


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
    missing = tmp_path / "no" / "such" / "dir" / "f.ndjson"
    code = main(["sample-field", "-m", "1", "--grid", "1:0:0", "--out", str(missing)])
    assert code == 1
    err = capsys.readouterr().err
    assert str(missing) in err


# --- process-level behavior ----------------------------------------------------------


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "gamma", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["relation_residual"] <= 1e-13
