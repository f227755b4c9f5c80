"""Command-line surface: emit matrices, verify identities, solve, sample fields.

Commands
    gamma            print the four gamma matrices, the metric, and the
                     anticommutation residual table
    lorentz          print the Lorentz matrix covered by a given 2x2 matrix
    verify           run the identity sweeps; nonzero exit on failure
    solve            fiber basis of the momentum-space equation at a point
    planewave-check  finite-difference residual of the position-space form
    sample-field     write one record per fiber-basis vector per grid node

All numeric output is decimal with 17 significant digits; files are UTF-8
with LF line endings, one record object per line, header line first.  Exit
codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
precondition failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict

import numpy as np

from .bitensor import ETA, lorentz_defect, lorentz_of
from .bundle import (
    AssociatedClassRep,
    fiber_basis,
    fiber_bound,
    fiber_residual,
    fiber_residuals,
    rest_fiber_basis,
    rest_transport,
    split_conjugate_pair,
)
from .clifford import gamma, gamma_relation_residuals
from .errors import NumericalDrift
from .momentum import accepted_boosts, boost_matrices, boost_rep, shell_momenta, shell_point
from .planewave import planewave_residual
from .spinor import SL2Element, spinor_norms
from .verify import CONVENTIONS, run_verification

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Deterministic serialization: every float is rendered with %.17g so that
# identical inputs produce byte-identical output.  JSON has no inf or nan, so
# a non-finite value is refused rather than written.

def _g17(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite number {x!r}")
    return "%.17g" % x


def _jdump(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{_jdump(k)}: {_jdump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jdump(v) for v in obj) + "]"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# One sample-field record, laid out exactly as _jdump lays out the dict that
# field_records yields, with the 21 floats, the basis index and the flag
# filled in by a single %-format.
_PAIR = "[%.17g, %.17g]"
_RECORD = (
    '{"record": "sample", "p": [%.17g, %.17g, %.17g, %.17g], "basis_index": %d, '
    '"psi": [' + ", ".join([_PAIR] * 4) + '], '
    '"s": [' + ", ".join([_PAIR] * 2) + '], '
    '"sbar": [' + ", ".join([_PAIR] * 2) + '], '
    '"residual": %.17g, "ok": %s}'
)


def _record_line(rec: dict) -> str:
    """_jdump(rec) for a sample-field record, by one fixed-schema format."""
    (a, b), (c, d), (e, f), (g, h) = rec["psi"]
    (s1, s2), (s3, s4) = rec["s"]
    (t1, t2), (t3, t4) = rec["sbar"]
    line = _RECORD % (
        *rec["p"], rec["basis_index"], a, b, c, d, e, f, g, h,
        s1, s2, s3, s4, t1, t2, t3, t4, rec["residual"],
        "true" if rec["ok"] else "false",
    )
    # The template's own text holds neither word, so either one is a
    # non-finite number that %.17g rendered.
    if "inf" in line or "nan" in line:
        raise ValueError(f"cannot write a record with a non-finite number: {line}")
    return line


def _pairs(z) -> list:
    """Complex scalar/vector/matrix to nested [re, im] pairs."""
    a = np.asarray(z, dtype=complex)
    if a.ndim == 0:
        return [float(a.real), float(a.imag)]
    return [_pairs(row) for row in a]


def _reals(a) -> list:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return float(a)
    return [_reals(row) for row in a]


def _header(seed=None, tol=None) -> dict:
    h = {"schema": SCHEMA_VERSION}
    h.update(CONVENTIONS)
    if seed is not None:
        h["seed"] = int(seed)
    if tol is not None:
        h["tol"] = float(tol)
    return h


def _emit(payload: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        sys.stdout.write(_jdump(payload) + "\n")
    else:
        text_renderer(payload)


def _print_matrix_c(name: str, m: np.ndarray) -> None:
    print(f"{name} =")
    for row in m:
        cells = "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row)
        print(f"    [{cells}]")


def _print_matrix_r(name: str, m: np.ndarray) -> None:
    print(f"{name} =")
    for row in m:
        print("    [" + "  ".join(f"{x:+.12g}" for x in row) + "]")


# ---------------------------------------------------------------------------
# Commands


def _cmd_gamma(args) -> int:
    gammas = [gamma(mu) for mu in range(4)]
    table = gamma_relation_residuals(gammas)
    payload = {
        "header": _header(),
        **{f"gamma{mu}": _pairs(gammas[mu]) for mu in range(4)},
        "eta": _reals(ETA),
        "relation_residuals": _reals(table),
        "relation_residual": float(np.max(table)),
    }

    def render(p):
        print("conventions:", p["header"]["clifford_anticommutator"])
        for mu in range(4):
            _print_matrix_c(f"gamma{mu}", gammas[mu])
        _print_matrix_r("eta", ETA)
        print(f"max anticommutation residual: {_g17(p['relation_residual'])}")

    _emit(payload, args.format, render)
    return 0


def _cmd_lorentz(args) -> int:
    e = args.entries
    mat = [[complex(e[0], e[1]), complex(e[2], e[3])], [complex(e[4], e[5]), complex(e[6], e[7])]]
    A = SL2Element(mat)
    lam = lorentz_of(A).mat
    payload = {
        "header": _header(),
        "sl2": _pairs(np.asarray(mat)),
        "lorentz": _reals(lam),
        "eta_defect": lorentz_defect(lam),
        "det_defect": float(abs(np.linalg.det(lam) - 1.0)),
    }

    def render(p):
        _print_matrix_r("lorentz", lam)
        print(f"eta defect: {_g17(p['eta_defect'])}   det defect: {_g17(p['det_defect'])}")

    _emit(payload, args.format, render)
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(
        seed=args.seed, samples=args.samples, corrupt_gamma=args.corrupt_gamma
    )
    payload = {
        "header": _header(seed=args.seed),
        "samples": report.samples,
        "checks": [asdict(c) for c in report.checks],
        "passed": report.passed,
    }

    def render(p):
        print("conventions in force:")
        for key in ("clifford_anticommutator", "planewave_phase", "basis_order", "epsilon_normalization"):
            print(f"    {key} = {CONVENTIONS[key]}")
        for c in report.checks:
            flag = "PASS" if c.passed else "FAIL"
            line = (
                f"[{flag}] {c.name:<45} samples={c.samples:<6}"
                f" max_defect={c.max_defect:.3e} tol={c.tol:.0e}"
            )
            if c.detail:
                line += f"  ({c.detail})"
            print(line)
        print("overall:", "PASS" if report.passed else "FAIL")

    _emit(payload, args.format, render)
    return 0 if report.passed else 1


def _solve_payload(m: float, p1: float, p2: float, p3: float, tol: float) -> dict:
    q = shell_point(m, p1, p2, p3)
    A = boost_rep(q)
    solutions = []
    for psi in fiber_basis(q):
        residual = fiber_residual(q, psi)
        solutions.append(
            {
                "psi": _pairs(psi.vec),
                "residual": residual,
                "ok": residual <= fiber_bound(tol, m, psi.norm()),
            }
        )
    return {
        "header": _header(tol=tol),
        "mass": float(m),
        "momentum": _reals(q.p.coords),
        "boost": _pairs(A.mat),
        "solutions": solutions,
    }


def _cmd_solve(args) -> int:
    payload = _solve_payload(args.mass, *args.p, tol=args.tol)

    def render(p):
        print("momentum:", " ".join(_g17(x) for x in p["momentum"]))
        for k, sol in enumerate(p["solutions"]):
            flat = ", ".join(f"{re:+.12g}{im:+.12g}j" for re, im in sol["psi"])
            print(f"solution {k}: [{flat}]  residual={_g17(sol['residual'])}")

    _emit(payload, args.format, render)
    return 0


def _cmd_planewave_check(args) -> int:
    q = shell_point(args.mass, *args.p)
    psi = fiber_basis(q)[args.branch]
    residual = planewave_residual(q, psi, args.point, args.step, analytic=args.analytic)
    payload = {
        "header": _header(tol=args.tol),
        "mass": float(args.mass),
        "momentum": _reals(q.p.coords),
        "point": _reals(np.asarray(args.point, dtype=float)),
        "step": float(args.step),
        "mode": "analytic" if args.analytic else "central-difference",
        "branch": args.branch,
        "residual": residual,
    }

    def render(p):
        print(
            f"mode={p['mode']} step={_g17(p['step'])} residual={_g17(p['residual'])}"
        )

    _emit(payload, args.format, render)
    return 0


def field_records(m: float, grid: tuple[int, float, float], seed: int, tol: float,
                  rapidity: bool = False):
    """Header dict plus one record dict per fiber-basis vector per node.

    Nodes are the Cartesian cube of the axis values (C order); with
    rapidity=True the axis values are mapped through m*sinh before use so
    the grid is uniform in rapidity instead of momentum.

    Records are built one plane of nodes (one p1 value) at a time on stacked
    arrays, with the same arithmetic as shell_point, boost_rep, tau and
    fiber_residual, so memory stays O(n^2).  At the first node those
    functions would reject, the records before it have been yielded and the
    scalar path is run on that node to raise its typed error.  The two
    records of a node share their "p" list and all records share the "s" and
    "sbar" lists; treat records as read-only.
    """
    n, lo, hi = grid
    axis = np.linspace(lo, hi, n)
    if rapidity:
        # An axis value that overflows is refused at its first node.
        with np.errstate(all="ignore"):
            axis = m * np.sinh(axis)
    header = _header(seed=seed, tol=tol)
    header.update(
        {
            "record": "header",
            "mass": float(m),
            "grid": {
                "kind": "rapidity" if rapidity else "cartesian",
                "nodes_per_axis": n,
                "lo": float(lo),
                "hi": float(hi),
            },
        }
    )

    def records():
        basis = rest_fiber_basis()
        # The split of a class (A, v) depends only on v, so the rest class
        # (Id, v) gives every node's s and sbar.
        pairs = [split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), v, m)) for v in basis]
        split = [(_pairs(pair.s.vec), _pairs(pair.sbar.vec)) for pair in pairs]
        p2, p3 = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
        for p1 in axis:
            # Rejected nodes may overflow; they never reach a record.
            with np.errstate(all="ignore"):
                p = shell_momenta(m, p1, p2, p3)
                A = boost_matrices(p, m)
                accepted = accepted_boosts(p, m, A)
                psi = rest_transport(A)
                residual = fiber_residuals(p[:, None], psi, m)
                ok = residual <= fiber_bound(tol, m, spinor_norms(psi))
            good = len(p) if accepted.all() else int(np.argmin(accepted))
            rows = zip(
                p[:good].tolist(),
                np.stack([psi.real, psi.imag], axis=-1)[:good].tolist(),
                residual[:good].tolist(),
                ok[:good].tolist(),
            )
            for coords, node_psi, node_residual, node_ok in rows:
                for k, (s, sbar) in enumerate(split):
                    yield {
                        "record": "sample",
                        "p": coords,
                        "basis_index": k,
                        "psi": node_psi[k],
                        "s": s,
                        "sbar": sbar,
                        "residual": node_residual[k],
                        "ok": node_ok[k],
                    }
            if good < len(p):
                boost_rep(shell_point(m, float(p1), float(p2[good]), float(p3[good])))
                raise NumericalDrift(
                    f"stacked checks rejected the node p = {p[good].tolist()} "
                    "that the scalar path accepts"
                )

    return header, records()


def _cmd_sample_field(args) -> int:
    header, records = field_records(
        args.mass, args.grid, seed=args.seed, tol=args.tol, rapidity=args.rapidity
    )
    first_line = _jdump(header) + "\n"
    try:
        out = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot open output file {args.out!r}: {exc}", file=sys.stderr)
        return 2
    count = 0
    flagged = 0
    with out:
        out.write(first_line)
        for rec in records:
            out.write(_record_line(rec) + "\n")
            count += 1
            flagged += 0 if rec["ok"] else 1
    summary = {
        "header": _header(seed=args.seed, tol=args.tol),
        "out": args.out,
        "records": count,
        "flagged": flagged,
    }

    def render(p):
        print(f"wrote {count} records to {args.out} ({flagged} flagged)")

    _emit(summary, args.format, render)
    return 0


# ---------------------------------------------------------------------------
# Parser: a malformed or non-finite argument is a usage error (exit 2); a
# finite one outside a command's domain reaches the command (exit 3).


def _finite_float(text: str) -> float:
    """argparse type of a finite number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _gamma_entry(text: str) -> tuple[int, int, int]:
    """argparse type of --corrupt-gamma MU,I,J: three indices in 0..3."""
    try:
        entry = tuple(int(x) for x in text.split(","))
    except ValueError:
        entry = ()
    if len(entry) != 3 or not all(0 <= k <= 3 for k in entry):
        raise argparse.ArgumentTypeError(f"expected MU,I,J with each index in 0..3, got {text!r}")
    return entry


def _parse_grid(text: str) -> tuple[int, float, float]:
    """argparse type of --grid N:LO:HI: N >= 1 nodes per axis over the finite
    range LO..HI."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected N:LO:HI, got {text!r}")
    try:
        n = int(parts[0])
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected at least one node per axis, got {parts[0]!r}")
    return n, _finite_float(parts[1]), _finite_float(parts[2])


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    # Only the commands that read a seed or a tolerance take the option.
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    tolerant = argparse.ArgumentParser(add_help=False)
    tolerant.add_argument("--tol", type=_finite_float, default=1e-9,
                          help="fiber-residual tolerance (default: 1e-9)")

    parser = argparse.ArgumentParser(
        prog="twospinors",
        description="2-spinor algebra kernel: gamma matrices, the Lorentz "
        "covering, momentum-space Dirac solutions, and spinor-field sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", parents=[common],
                       help="emit the gamma matrices and their relation table")
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("lorentz", parents=[common],
                       help="emit the Lorentz matrix covered by a 2x2 matrix")
    p.add_argument("entries", type=_finite_float, nargs=8,
                   metavar="E",
                   help="a11re a11im a12re a12im a21re a21im a22re a22im")
    p.set_defaults(func=_cmd_lorentz)

    p = sub.add_parser("verify", parents=[common, seeded],
                       help="run the verification sweeps")
    p.add_argument("--samples", type=int, default=1000,
                   help="samples per sweep (default: 1000)")
    p.add_argument("--corrupt-gamma", type=_gamma_entry, default=None, metavar="MU,I,J",
                   help=argparse.SUPPRESS)  # negative-control test hook
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve", parents=[common, tolerant],
                       help="fiber basis of the momentum-space equation")
    p.add_argument("-m", "--mass", type=_finite_float, required=True)
    p.add_argument("p", type=_finite_float, nargs=3, metavar="P",
                   help="spatial momentum p1 p2 p3")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("planewave-check", parents=[common, tolerant],
                       help="position-space residual by central differences")
    p.add_argument("-m", "--mass", type=_finite_float, required=True)
    p.add_argument("p", type=_finite_float, nargs=3, metavar="P",
                   help="spatial momentum p1 p2 p3")
    p.add_argument("--point", type=_finite_float, nargs=4, default=(0.0, 0.0, 0.0, 0.0),
                   metavar="X", help="evaluation point x0 x1 x2 x3")
    p.add_argument("--step", type=_finite_float, default=1e-3, help="difference step")
    p.add_argument("--branch", type=int, choices=(0, 1), default=0,
                   help="which fiber-basis vector to propagate")
    p.add_argument("--analytic", action="store_true",
                   help="differentiate the phase exactly instead")
    p.set_defaults(func=_cmd_planewave_check)

    p = sub.add_parser("sample-field", parents=[common, seeded, tolerant],
                       help="sample the conjugate spinor fields over a momentum grid")
    p.add_argument("-m", "--mass", type=_finite_float, required=True)
    p.add_argument("--grid", type=_parse_grid, default="5:-1:1", metavar="N:LO:HI",
                   help="nodes per axis and axis range (default: 5:-1:1)")
    p.add_argument("--rapidity", action="store_true",
                   help="axis values are rapidities, mapped through m*sinh")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=_cmd_sample_field)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every typed numeric error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
