"""The command-line surface: formats, exit codes, determinism, file output."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from twospinors import fiber_projector, shell_point
from twospinors.cli import _build_parser, _jdump, _parse_grid, _record_line, field_records, main

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
                     "ca552d5a562418294d1ac7e8d8660fac5eb62d71103b935140899728c6caf94a",
                     "9b63eebe176178af1ec28f3f274433154ec62aa12eab0488b3959cd4013a3157"),
    "verify-seed1": (["verify", "--samples", "40", "--seed", "1"], 0,
                     "27ac1a1879ed068a24a0f97ae9f6bb546a5d66bec9059d6368558342944f3861",
                     "bf4dab112447711194bd2ffd3e3ad10c18fc4f1f23e81d7e67c970cff4bfab74"),
    "verify-seed2": (["verify", "--samples", "40", "--seed", "2"], 0,
                     "6e50b5b8a8e4a111026eb4d1eb7a620b5638583cb5eda0e6e17efa6931e38964",
                     "3160cbe79a3329f3b92c775757aa92174298d1cd3ab650d23b3a0358dc2190a9"),
    "verify-seed3": (["verify", "--samples", "40", "--seed", "3"], 0,
                     "3a4642184e9ed4bba09360a7ca06c070df233acbe3460dd869b8e0f5b3ba8d0f",
                     "591a1a8315fb1bd0f144debf39373f73b225cd4447444156419340d585072e56"),
    "verify-corrupt": (["verify", "--samples", "40", "--corrupt-gamma", "2,1,3"], 1,
                       "52f163e6aba7bb34672664a73d5c3084c67097820f6f9b582b818561b0f629b1",
                       "253674e9aa37ef155dedafcc1b9d4b95c2bd74fd0a6d1ecf31efa1ff526b4a37"),
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


# --- process-level behavior ----------------------------------------------------------


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "frobnicate"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_overflowing_axis_reports_only_the_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "sample-field", "-m", "1", "--rapidity",
         "--grid", "3:-800:800", "--out", str(tmp_path / "field.ndjson")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: momentum coordinates must be finite\n"


def test_overflowing_lorentz_defect_reports_only_the_error():
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "lorentz", "1e150", "0", "0", "0", "0", "0", "1e-150", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == "error: metric-orthogonality defect inf exceeds 1e-08\n"


def test_overflowing_boost_reports_only_the_typed_error(tmp_path):
    # A subnormal mass: shell_point accepts the first node, its boost overflows.
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "sample-field", "-m", "1e-315",
         "--grid", "2:1e-7:3e-7", "--out", str(tmp_path / "field.ndjson")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "error: canonical boost of p = [1.7320508075688772e-07, 1e-07, 1e-07, 1e-07]"
        " at m = 1e-315 overflows\n"
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "twospinors", "gamma", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["relation_residual"] <= 1e-13
