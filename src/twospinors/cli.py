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
precondition failure.  The argument parser is built once per process, on
the first call of main, and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from .bitensor import ETA, _lorentz_test, lorentz_of
from .bundle import (
    AssociatedClassRep,
    fiber_basis,
    fiber_test,
    rest_fiber_basis,
    rest_transport,
    split_conjugate_pair,
)
from .clifford import gamma, gamma_relation_residuals
from .errors import NumericalDrift
from .momentum import boost_rep, canonical_boosts, shell_point
from .planewave import planewave_residual
from .spinor import SL2Element
from .verify import CONVENTIONS, run_verification

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Deterministic serialization: every float is rendered with %.17g so that
# identical inputs produce byte-identical output.  JSON has no inf or nan, so
# a non-finite value is refused rather than written.  A string is escaped
# as RFC 8259 asks (the stdlib encoder, with non-ASCII text left as is).

def _g17(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot write the non-finite number {x!r}")
    return "%.17g" % x


_jstr = json.JSONEncoder(ensure_ascii=False).encode


def _jdump(obj) -> str:
    if isinstance(obj, dict):
        items = ", ".join(f"{_jdump(k)}: {_jdump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_jdump(v) for v in obj) + "]"
    if isinstance(obj, str):
        return _jstr(obj)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _g17(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _pairs(z) -> list:
    """Complex scalar/vector/matrix to nested [re, im] pairs."""
    a = np.asarray(z, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _reals(a) -> list:
    """Real scalar/vector/matrix to a float or nested lists of floats."""
    return np.asarray(a, dtype=float).tolist()


def _header(seed=None, tol=None) -> dict:
    h = {"schema": SCHEMA_VERSION}
    h.update(CONVENTIONS)
    if seed is not None:
        h["seed"] = int(seed)
    if tol is not None:
        h["tol"] = float(tol)
    return h


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
    if args.format == "json":
        print(_jdump({
            "header": _header(),
            **{f"gamma{mu}": _pairs(gammas[mu]) for mu in range(4)},
            "eta": _reals(ETA),
            "relation_residuals": _reals(table),
            "relation_residual": float(np.max(table)),
        }))
    else:
        print("conventions:", CONVENTIONS["clifford_anticommutator"])
        for mu in range(4):
            _print_matrix_c(f"gamma{mu}", gammas[mu])
        _print_matrix_r("eta", ETA)
        print(f"max anticommutation residual: {_g17(np.max(table))}")
    return 0


def _cmd_lorentz(args) -> int:
    e = args.entries
    A = SL2Element([[complex(e[0], e[1]), complex(e[2], e[3])], [complex(e[4], e[5]), complex(e[6], e[7])]])
    lam = lorentz_of(A).mat
    eta_defect, det, _ = _lorentz_test(lam)
    det_defect = float(abs(det - 1.0))
    if args.format == "json":
        print(_jdump({
            "header": _header(),
            "sl2": _pairs(A.mat),
            "lorentz": _reals(lam),
            "eta_defect": eta_defect,
            "det_defect": det_defect,
        }))
    else:
        _print_matrix_r("lorentz", lam)
        print(f"eta defect: {_g17(eta_defect)}   det defect: {_g17(det_defect)}")
    return 0


# verify's JSON line is _jdump of its payload, from two templates: the header
# text is made once, with only the seed left to fill, and one CheckResult
# fills _CHECK in its field order.
_VERIFY = ('{"header": ' + _jdump(_header())[:-1]
           + ', "seed": %d}, "samples": %d, "checks": [%s], "passed": %s}\n')
_CHECK = ('{"name": %s, "samples": %d, "max_defect": %s, "tol": %s, "passed": %s, '
          '"detail": %s}')


def _cmd_verify(args) -> int:
    report = run_verification(
        seed=args.seed, samples=args.samples, corrupt_gamma=args.corrupt_gamma
    )
    if args.format == "json":
        checks = ", ".join(_CHECK % (_jstr(c.name), c.samples, _g17(c.max_defect), _g17(c.tol),
                                     "true" if c.passed else "false", _jstr(c.detail))
                           for c in report.checks)
        passed = "true" if report.passed else "false"
        sys.stdout.write(_VERIFY % (args.seed, report.samples, checks, passed))
    else:
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
    return 0 if report.passed else 1


def _cmd_solve(args) -> int:
    q = shell_point(args.mass, *args.p)
    A = boost_rep(q)
    basis = rest_transport(A.mat)  # fiber_basis(q), from the boost in hand
    residuals, _, ok = fiber_test(q.p, basis, q.m, args.tol)
    if args.format == "json":
        print(_jdump({
            "header": _header(tol=args.tol),
            "mass": float(args.mass),
            "momentum": _reals(q.p.coords),
            "boost": _pairs(A.mat),
            "solutions": [{"psi": _pairs(psi), "residual": r, "ok": k}
                          for psi, r, k in zip(basis, residuals.tolist(), ok.tolist())],
        }))
    else:
        print("momentum:", " ".join(map(_g17, q.p.coords.tolist())))
        for k, (psi, r) in enumerate(zip(basis.tolist(), residuals.tolist())):
            flat = ", ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in psi)
            print(f"solution {k}: [{flat}]  residual={_g17(r)}")
    return 0


def _cmd_planewave_check(args) -> int:
    q = shell_point(args.mass, *args.p)
    psi = fiber_basis(q)[args.branch]
    residual = planewave_residual(q, psi, args.point, args.step, analytic=args.analytic)
    mode = "analytic" if args.analytic else "central-difference"
    if args.format == "json":
        print(_jdump({
            "header": _header(tol=args.tol),
            "mass": float(args.mass),
            "momentum": _reals(q.p.coords),
            "point": _reals(np.asarray(args.point, dtype=float)),
            "step": float(args.step),
            "mode": mode,
            "branch": args.branch,
            "residual": residual,
        }))
    else:
        print(f"mode={mode} step={_g17(args.step)} residual={_g17(residual)}")
    return 0


def _rest_split(m) -> list:
    """The (s, sbar) pair lists of each rest basis vector: every node's, since
    the split of a class (A, v) depends only on v.  Refuses a bad mass."""
    pairs = [split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), v, m))
             for v in rest_fiber_basis()]
    return [(_pairs(pair.s.vec), _pairs(pair.sbar.vec)) for pair in pairs]


def _field_planes(m, grid, tol, rapidity):
    """sample-field's nodes, one plane (one p1 value) at a time, on stacked
    arrays by canonical_boosts (shell_point and boost_rep), tau and fiber_test,
    so memory stays O(n^2).  Yields each plane's accepted prefix: the 13
    numbers of each record (k, 2, 13), in the order its line holds them (p,
    the psi parts (re, im) and the residual), and the oks (k, 2).  The scalar
    path is then run on a rejected node to raise its typed error; a bad mass
    fails every node, so it is refused at the first."""
    n, lo, hi = grid
    # An axis value that overflows, or a span that does, is refused at its
    # first node.
    with np.errstate(all="ignore"):
        axis = np.linspace(lo, hi, n)
        if rapidity:
            axis = m * np.sinh(axis)
    p2, p3 = (c.ravel() for c in np.meshgrid(axis, axis, indexing="ij"))
    for p1 in axis:
        p, A, accepted = canonical_boosts(m, p1, p2, p3)
        # Rejected nodes may overflow; they never reach a record.
        with np.errstate(all="ignore"):
            psi = rest_transport(A)
            residual, _, ok = fiber_test(p[:, None], psi, m, tol)
        numbers = np.concatenate([np.broadcast_to(p[:, None], psi.shape), psi.view(float),
                                  residual[..., None]], axis=-1)
        good = len(p) if accepted.all() else int(np.argmin(accepted))
        yield numbers[:good], ok[:good]
        if good < len(p):
            boost_rep(shell_point(m, float(p1), float(p2[good]), float(p3[good])))
            raise NumericalDrift(f"stacked checks rejected the node p = {p[good].tolist()} "
                                 "that the scalar path accepts")


def _field_header(m, grid, seed, tol, rapidity) -> dict:
    """The header record of a sample-field file."""
    n, lo, hi = grid
    kind = "rapidity" if rapidity else "cartesian"
    return {**_header(seed=seed, tol=tol), "record": "header", "mass": float(m),
            "grid": {"kind": kind, "nodes_per_axis": n, "lo": float(lo), "hi": float(hi)}}


def field_records(m: float, grid: tuple[int, float, float], seed: int, tol: float,
                  rapidity: bool = False):
    """Header dict plus one record dict per fiber-basis vector per node.

    Nodes are the Cartesian cube of the axis values (C order); with
    rapidity=True the axis values are mapped through m*sinh before use so
    the grid is uniform in rapidity instead of momentum.

    The records are the dict view of the planes sample-field writes
    (_field_planes), built lazily: at the first node the stacked checks
    reject, the records before it have been yielded and the scalar path
    raises its typed error; a bad mass is refused at the first record.  All
    records share the "s" and "sbar" lists; treat records as read-only.
    """

    def records():
        split = _rest_split(m)
        for numbers, ok in _field_planes(m, grid, tol, rapidity):
            for node, node_ok in zip(numbers.tolist(), ok.tolist()):
                for k, ((s, sbar), row, flag) in enumerate(zip(split, node, node_ok)):
                    yield {
                        "record": "sample",
                        "p": row[:4],
                        "basis_index": k,
                        "psi": [row[4:6], row[6:8], row[8:10], row[10:12]],
                        "s": s,
                        "sbar": sbar,
                        "residual": row[12],
                        "ok": flag,
                    }

    return _field_header(m, grid, seed, tol, rapidity), records()


def _g17_texts(x) -> list:
    """'%.17g' % v for each number v of x, in C order, with each distinct
    magnitude formatted once: the numbers of a sample-field plane are signed
    copies of a few values."""
    # Ravelled first: the shape of unique's inverse differs between numpy 2
    # releases.
    x = np.asarray(x, dtype=np.float64).ravel()
    magnitudes, inverse = np.unique(np.abs(x).view(np.int64), return_inverse=True)
    texts = np.array([*map("%.17g".__mod__, magnitudes.view(np.float64).tolist())],
                     dtype=object)[inverse]
    # '%.17g' % -0.0 is '-0', but a nan's sign is dropped.
    negative = np.signbit(x) & ~np.isnan(x)
    texts[negative] = "-" + texts[negative]
    return texts.tolist()


# A sample-field line is _jdump of its field_records dict, written straight
# from the plane arrays: the text of "basis_index", "s", "sbar" and "ok" is
# baked into one template per basis index and flag, and the texts of the
# record's 13 numbers ("p", the psi parts and the residual), each distinct
# number of a plane formatted once, fill its %s fields.
_LINE = ('{"record": "sample", "p": [%%s, %%s, %%s, %%s], "basis_index": %d, '
         '"psi": [[%%s, %%s], [%%s, %%s], [%%s, %%s], [%%s, %%s]], "s": %s, '
         '"sbar": %s, "residual": %%s, "ok": %s}\n')


def _cmd_sample_field(args) -> int:
    m, grid = args.mass, args.grid
    first_line = _jdump(_field_header(m, grid, args.seed, args.tol, args.rapidity)) + "\n"
    try:
        out = open(args.out, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot open output file {args.out!r}: {exc}", file=sys.stderr)
        return 2
    count = flagged = 0
    with out:
        write = out.write
        write(first_line)
        templates = [_LINE % (k, _jdump(s), _jdump(sbar), word)
                     for k, (s, sbar) in enumerate(_rest_split(m)) for word in ("false", "true")]
        for numbers, ok in _field_planes(m, grid, args.tol, args.rapidity):
            # %.17g renders a non-finite number as inf or nan, which JSON
            # lacks: the first record holding one is refused, once the
            # records before it are written.
            finite = np.isfinite(numbers).all(axis=-1).ravel()
            rows = zip(*[iter(_g17_texts(numbers))] * 13)
            kinds = (ok + [0, 2]).ravel().tolist()  # 2 * basis index + ok
            lines = map(str.__mod__, map(templates.__getitem__, kinds), rows)
            good = len(finite) if finite.all() else int(np.argmin(finite))
            for line in itertools.islice(lines, good):
                write(line)
            if good < len(finite):
                raise ValueError(f"cannot write a record with a non-finite number: {next(lines)[:-1]}")
            count += ok.size
            flagged += ok.size - int(ok.sum())
    if args.format == "json":
        print(_jdump({
            "header": _header(seed=args.seed, tol=args.tol),
            "out": args.out,
            "records": count,
            "flagged": flagged,
        }))
    else:
        print(f"wrote {count} records to {args.out} ({flagged} flagged)")
    return 0


# ---------------------------------------------------------------------------
# Parser: a malformed or non-finite argument is a usage error (exit 2); a
# finite one outside a command's domain reaches the command (exit 3).


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative number as a value, in
    exponent form (-1e0, -1.5E-3) and -inf or -nan too, where argparse reads
    only -1 and -1.5 forms and takes the others for an unknown option.  Its
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$",
                                                   re.IGNORECASE)


def _finite_float(text: str) -> float:
    """argparse type of a finite number."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return x


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number >= 0."""
    x = _finite_float(text)
    if x < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative number, got {text!r}")
    return x


def _positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0, as numpy's generators take."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


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
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="text",
                        help="output format (default: text)")
    # Only the commands that read a seed or a tolerance take the option.
    seeded = _Parser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=0, help="random seed")
    tolerant = _Parser(add_help=False)
    tolerant.add_argument("--tol", type=_tolerance, default=1e-9,
                          help="fiber-residual tolerance (default: 1e-9)")

    parser = _Parser(
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
    p.add_argument("--samples", type=_positive_int, default=1000,
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of main, built on its first call: one per process.  A parse
    fills a fresh namespace, so no call sees another's arguments."""
    return _build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # every typed numeric error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 3

