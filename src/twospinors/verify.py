"""Seeded verification sweeps for every algebraic identity the kernel builds on.

Each check draws its own samples from deterministic streams, records the
worst defect seen against a pinned tolerance, and the report passes only if
every check passes.  The conventions in force (basis order, metric, the
factor-2 anticommutation normalization, the plane-wave phase) are embedded
in the report so downstream artifacts are self-describing.

Stream k of a seed is default_rng(seed)'s PCG64 advanced by k * 2**96
draws; stream 0 is default_rng(seed) itself.  The sampled check of index i
draws each kind of number a sample takes (normals; uniforms: the disc, the
masses or the slash check's values) from stream 2i + j, j counting the
kinds in the order a sample first takes them.  So a check run alone gives
its entry of the whole run.

Every sample takes a fixed count of numbers of each kind: random_sl2's try
is eight of the check's normals, replaced rather than redrawn when it fails
its tests (sampling._sl2_matrices), and a disc coefficient is one pair of
uniforms, with no rejection.  A sampled check runs in blocks of samples,
each in two phases.  Phase one draws the block as one (n, k) array per
stream, building no value object: the values and each stream's final state
are those of drawing one sample at a time, since numpy's Generator draws k
calls of normal(0, 1, w) as one call of (k, w), and normal(0, s) is
0.0 + s * normal(0, 1) bit for bit.  Phase two computes all the block's
defects as one (n, k) array on the kernels under the scalar API (eps,
h_form, act_momentum, beta, ... each calls its kernel on one value), so
each row is what the scalar API gives for that sample, bit for bit.  Every
invariant a value constructor would check is checked by that constructor's
own test, on the stack.  The first row that the first failing mask rejects
is handed to its scalar constructor, which raises its typed error; a row
the constructor accepts is a NumericalDrift that names its sample.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bitensor import (
    ETA,
    Momentum,
    _covering,
    _dyads,
    _involution,
    _lorentz_test,
    _polar,
    _transport,
    lorentz_of,
    q_form,
    world_basis,
)
from .bundle import (
    FIBER_TOL,
    AssociatedClassRep,
    FiberElement,
    _beta,
    _in_rest_eigenspace,
    _phases,
    _split,
    _to_rest,
    beta,
    fiber_projector,
    fiber_test,
    rest_fiber_basis,
    spin_characters,
)
from .clifford import (
    FourSpinor,
    _anticommutators,
    _equivariance,
    _tau_act,
    gamma,
    gamma_relation_residuals,
    slash,
)
from .errors import NumericalDrift
from .momentum import (
    MassShellPoint,
    _act_momenta,
    _shell_test,
    act_momentum,
    boost_rep,
    canonical_boosts,
    shell_point,
)
from .sampling import _complexes, _rest_spinors, _sl2_matrices, _su2_matrices
from .spinor import SL2Element, _act, _cabs, _cmul, _cyclic, _eps, _hypot_norm, _max1, _unimodular, spinor_norms

__all__ = ["CheckResult", "VerifyReport", "CONVENTIONS", "run_verification"]

# Convention ledger embedded in reports and emitted artifacts.
CONVENTIONS = {
    "conventions_version": 1,
    "basis_order": "e1, e2, e1bar, e2bar",
    "epsilon_normalization": "eps(e1, e2) = 1",
    "metric_signature": "+---",
    "clifford_anticommutator": "phi(X) phi(Y) + phi(Y) phi(X) = 2 h(X, Y) Id",
    "planewave_phase": "psi(x) = exp(-i*(p0*x0 + p1*x1 + p2*x2 + p3*x3)) * psi_p",
}


@dataclass
class CheckResult:
    name: str
    samples: int
    max_defect: float
    tol: float
    passed: bool
    detail: str = ""


@dataclass
class VerifyReport:
    seed: int
    samples: int
    conventions: dict
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


# Samples per block of a sampled check: the draws and stacks of one block
# are all a check holds, so its memory does not grow with the sample count.
_BLOCK = 1024


class _Rejected(Exception):
    """A stacked mask rejected row r (the one argument) of its stack, which
    the scalar constructor of that row's value accepts.  A stack of n samples
    holds one or more copies of n rows (A B, A and B, say), so r is a row of
    sample r % n."""


def _require(ok: np.ndarray, build) -> None:
    """Hand the first row that the stacked mask ok rejects to build, the
    scalar constructor of that row's value, which raises its typed error;
    if build accepts the row, raise _Rejected."""
    if not ok.all():
        row = int(np.argmin(ok))
        build(row)
        raise _Rejected(row)


class _Streams:
    """The streams of one seed: take(k, count) makes Generators at streams
    k, ..., k + count - 1.  It is their PCG64s' seed sequence, which hands
    each the words of SeedSequence(seed), hashed once."""

    def __init__(self, seed):
        # Registered here, not at import, so that importing verify does not
        # import numpy.random.
        np.random.bit_generator.ISeedSequence.register(_Streams)
        self.words = np.random.SeedSequence(seed).generate_state(4, np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for the four uint64 words it seeds from, and only them.
        return self.words

    def take(self, k: int, count: int) -> list[np.random.Generator]:
        return [np.random.Generator(np.random.PCG64(self).advance(j << 96)) for j in range(k, k + count)]


def _fixed(name: str, samples: int, defects: np.ndarray, tol: float, worst_entry: str = "") -> CheckResult:
    """A check of constants the construction builds, with no draws: the worst
    of its defects (nan if any is nan) against tol.  A failure's detail is
    worst_entry formatted with the index of the worst defect."""
    worst = float(np.max(defects))
    ok = worst <= tol
    detail = "" if ok else worst_entry.format(*np.unravel_index(np.argmax(defects), defects.shape))
    return CheckResult(name, samples, worst, tol, ok, detail)


def _sweep(name: str, tol: float, index: int):
    """Turn a function of (*streams, n), which draws n samples from its
    streams and returns their defects as an (n, k) array (or (n,) for one
    defect each), into a check of n samples against tol, run in blocks of at
    most _BLOCK samples.  The check of index i takes as many streams as the
    function has, from stream 2i on, once before its first block.  The fold
    keeps the worst finite defect, from +0.0, so that no -0.0 is reported; a
    non-finite defect fails the check, and detail names the first sample
    whose row has one."""

    def wrap(defects):
        count = defects.__code__.co_argcount - 1

        def check(streams: _Streams, n: int) -> CheckResult:
            gens = streams.take(2 * index, count)
            worst, bad = 0.0, None
            for offset in range(0, n, _BLOCK):
                k = min(_BLOCK, n - offset)
                # A stacked kernel is as silent on overflow as its one-value
                # path (Python's complex arithmetic), here and in every mask;
                # the fold reports the non-finite defect.
                with np.errstate(all="ignore"):
                    try:
                        d = np.asarray(defects(*gens, k), dtype=float).reshape(k, -1)
                    except _Rejected as rejected:
                        sample = offset + rejected.args[0] % k
                        raise NumericalDrift(f"stacked check rejected sample {sample}, which the scalar path accepts")
                finite = np.isfinite(d)
                worst = max(worst, float(np.max(d, where=finite, initial=0.0)))
                if bad is None and not finite.all():
                    bad = offset + int(np.argmin(finite.all(axis=1)))
            detail = "" if bad is None else f"non-finite defect at sample {bad}"
            return CheckResult(name, n, worst, tol, bad is None and worst <= tol, detail)

        check.index = index
        return check

    return wrap


# ---------------------------------------------------------------------------
# Phase one: the draws, in the scalar API's order.

def _uniform_spinors(uniforms, n: int) -> np.ndarray:
    """The coefficients of three spinors per sample, each uniform in the disc
    of radius 10, from one random() pair (u, v) each: cmath.rect(r, t), which
    is r cos t + i r sin t by math, with r = 10 sqrt(u) and t = 2 pi v.
    (n, 12), six (re, im) pairs in drawing order."""
    u = uniforms.random((6 * n, 2))
    r, t = (10.0 * np.sqrt(u[:, 0])).tolist(), (2.0 * math.pi * u[:, 1]).tolist()
    return np.fromiter(map(cmath.rect, r, t), complex, 6 * n).view(float).reshape(n, 12)


def _bitensors(g: np.ndarray) -> np.ndarray:
    """(n, 8) Gaussian draws as (n, 2, 2) complex coefficient matrices, real
    parts drawn first: re + 1j * im, the scalar draw's own arithmetic."""
    return g[:, :4].reshape(-1, 2, 2) + 1j * g[:, 4:].reshape(-1, 2, 2)


# ---------------------------------------------------------------------------
# Phase two: the defects on the kernels under the scalar API, each value
# checked by the stacked mask of its constructor.

def _norms2(v: np.ndarray) -> np.ndarray:
    """Spinor2.norm of each (n, 2) row, in Python, since np.hypot rounds
    math.hypot differently."""
    return np.array(list(map(_hypot_norm, v.tolist())))


def _sl2(a: np.ndarray) -> np.ndarray:
    """Stacked (n, 2, 2) matrices, checked as SL2Element checks one."""
    _require(_unimodular(a)[1], lambda i: SL2Element(a[i]))
    return a


def _lorentz(a: np.ndarray):
    """The (n, 4, 4) Lorentz matrices covered by stacked a, the kernel under
    lorentz_of, checked as lorentz_of checks each, and their metric defects."""
    L, real, _ = _covering(a)
    # Finite real columns, then LorentzMatrix's test.
    defect, _, (metric, unit, forward) = _lorentz_test(L)
    _require(real.all(axis=-1) & metric & unit & forward, lambda i: lorentz_of(SL2Element(a[i])))
    return L, defect


def _moved(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """act_momentum of each row, checked as act_momentum checks it."""
    moved, ok = _act_momenta(a, p)
    _require(ok, lambda i: act_momentum(SL2Element(a[i]), Momentum.from_coords(p[i])))
    return moved


def _class_reps(a: np.ndarray, phi: np.ndarray, m: np.ndarray) -> None:
    """Check stacked class representatives as AssociatedClassRep checks one."""
    _require(_in_rest_eigenspace(phi)[2],
             lambda i: AssociatedClassRep(SL2Element(a[i]), FourSpinor.from_vec(phi[i]), m[i]))


def _betas(a: np.ndarray, phi: np.ndarray, m: np.ndarray):
    """beta of stacked classes (a, phi, m), by its kernel: the momenta, the
    4-spinors and their fiber residuals and norms, checked as beta checks its
    result (act_momentum, MassShellPoint and FiberElement)."""
    p, ok, psi = _beta(a, phi, m)
    r, norms, in_fiber = fiber_test(p, psi, m, FIBER_TOL)
    _require(ok & np.all(_shell_test(p, m)[1], axis=0) & in_fiber,
             lambda i: beta(AssociatedClassRep(SL2Element(a[i]), FourSpinor.from_vec(phi[i]), m[i])))
    return p, psi, r, norms


def _fiber_elements(m: np.ndarray, z: np.ndarray):
    """The random_fiber_element of each mass in m, uniform(0.5, 2.0) draws,
    and (n, 11) row of normal(0, 1) draws z: mass, momentum, 4-spinor, its
    norm and canonical boost, each checked as its constructor checks one."""
    p3 = 0.0 + (2.0 * m)[:, None] * z[:, :3]  # normal(0, 2m, 3), bit for bit
    p, boost, ok = canonical_boosts(m, *p3.T)
    _require(ok, lambda i: boost_rep(shell_point(float(m[i]), *p3[i].tolist())))
    a = _sl2(boost @ _sl2(_su2_matrices(z[:, 3:7])))
    psi = _tau_act(a, _rest_spinors(z[:, 7:]))
    # canonical_boosts has checked the shell points.
    _, norms, in_fiber = fiber_test(p, psi, m, FIBER_TOL)
    _require(in_fiber, lambda i: FiberElement(
        MassShellPoint(Momentum.from_coords(p[i]), m[i]), FourSpinor.from_vec(psi[i])))
    return m, p, psi, norms, boost


# ---------------------------------------------------------------------------
# The checks, in the order run_verification runs them.

@_sweep("cyclic identity", 1e-12, 0)
def _check_cyclic(disc, n):
    g = _uniform_spinors(disc, n)
    return _norms2(_cyclic(*_complexes(g).reshape(n, 3, 2).swapaxes(0, 1)))


@_sweep("symplectic form identities", 1e-12, 1)
def _check_symplectic(normals, n):
    g = normals.normal(0.0, 1.0, (n, 14))
    x, y, z = _complexes(g[:, :12]).reshape(n, 3, 2).swapaxes(0, 1)
    al, be = g[:, 12], g[:, 13]
    combination = _cmul(x, al[:, None]) + _cmul(y, be[:, None])  # al * x + be * y
    return np.stack([
        _cabs(_eps(x, y) + _eps(y, x)),
        _cabs(_eps(combination, z) - _cmul(al, _eps(x, z)) - _cmul(be, _eps(y, z))),
        _cabs(_eps(np.conj(x), np.conj(y)) - np.conj(_eps(x, y))),
    ], axis=1)


def _check_signature(streams, n: int) -> CheckResult:
    # The Gram matrix h(u_i, u_j), one stacked _polar (h_form's kernel).
    # Within 1e-14 of ETA entrywise, its eigenvalues are within 4e-14 of
    # +-1 (Weyl's inequality), so the entrywise bound decides the signs too.
    t = np.array([u.t for u in world_basis()])
    gram = _polar(t[:, None], t[None, :])
    return _fixed("world-basis signature", 1, np.abs(gram - ETA), 1e-14, "worst entry: u({}), u({})")


@_sweep("polarized form vs dyadic definition", 1e-12, 2)
def _check_h_polarization(normals, n):
    a, c, b, d = _complexes(normals.normal(0.0, 1.0, (n, 16))).reshape(n, 4, 2).swapaxes(0, 1)
    bbar, dbar = np.conj(b), np.conj(d)
    return _cabs(_polar(_dyads(a, bbar), _dyads(c, dbar)) - _cmul(_eps(a, c), _eps(bbar, dbar)))


def _check_gamma_relations(gammas, n: int) -> CheckResult:
    return _fixed("gamma anticommutation table", 16, gamma_relation_residuals(gammas), 1e-13,
                  "worst relation: gamma({}), gamma({})")


@_sweep("clifford anticommutation (dyadic sweep)", 1e-11, 3)
def _check_anticommutator(normals, n):
    s = _complexes(normals.normal(0.0, 1.0, (n, 16))).reshape(n, 4, 2)
    X, Y = _dyads(s[:, 0], np.conj(s[:, 1])), _dyads(s[:, 2], np.conj(s[:, 3]))
    return np.max(np.abs(_anticommutators(X, Y)), axis=(1, 2))


@_sweep("slash square equals quadratic form", 1e-11, 4)
def _check_slash_square(uniforms, n):
    p = uniforms.uniform(-10.0, 10.0, (n, 4))
    s = slash(p)
    return np.max(np.abs(s @ s - q_form(p)[:, None, None] * np.eye(4)), axis=(1, 2))


@_sweep("momentum duality preserves the form", 1e-10, 5)
def _check_duality(normals, n):
    # The duality is the identity on coordinates (world vectors and momenta
    # are one type), so what is left to check is that the action preserves
    # the form.
    g = normals.normal(0.0, 1.0, (n, 12))
    p = 0.0 + 3.0 * g[:, :4]  # normal(0, 3, 4), bit for bit
    moved = _moved(_sl2(_sl2_matrices(g[:, 4:])), p)
    scale = np.fmax(_max1(np.sum(p**2, axis=-1)), np.sum(moved**2, axis=-1))
    return np.abs(q_form(moved) - q_form(p)) / scale


@_sweep("clifford-map equivariance", 1e-9, 6)
def _check_equivariance(normals, n):
    g = normals.normal(0.0, 1.0, (n, 16))
    a = _sl2(_sl2_matrices(g[:, :8], 10.0))
    return np.max(np.abs(_equivariance(a, _bitensors(g[:, 8:]))), axis=(1, 2))


@_sweep("bitensor action commutes with reality involution", 1e-13, 7)
def _check_pi_commutes_J(normals, n):
    g = normals.normal(0.0, 1.0, (n, 16))
    a, t = _sl2(_sl2_matrices(g[:, :8])), _bitensors(g[:, 8:])
    return np.max(np.abs(_transport(a, _involution(t)) - _involution(_transport(a, t))), axis=(1, 2))


@_sweep("covering homomorphism", 1e-10, 8)
def _check_covering_hom(normals, n):
    # A from columns 0:8 of a sample's row, B from 8:16: rows 0::2 and 1::2.
    ab = _sl2_matrices(normals.normal(0.0, 1.0, (n, 16)).reshape(2 * n, 8))
    a, b = _sl2(ab[0::2]), _sl2(ab[1::2])
    # One stacked covering of A B, A and B.
    L, _ = _lorentz(np.concatenate([_sl2(a @ b), a, b]))
    return np.max(np.abs(L[:n] - L[n:2 * n] @ L[2 * n:]), axis=(1, 2))


@_sweep("covering is two-to-one (sign kernel)", 0.0, 9)
def _check_covering_two_to_one(normals, n):
    a = _sl2(_sl2_matrices(normals.normal(0.0, 1.0, (n, 8))))
    L, _ = _lorentz(np.concatenate([a, -a]))
    # Equal images give 0, which the fold cannot tell from no defect.
    return np.max(np.abs(L[:n] - L[n:]), axis=(1, 2))


@_sweep("lorentz metric orthogonality", 1e-10, 10)
def _check_eta_orthogonality(normals, n):
    return _lorentz(_sl2(_sl2_matrices(normals.normal(0.0, 1.0, (n, 8)))))[1]


def _check_rest_fiber(streams, n: int) -> CheckResult:
    # gamma(0) is +1 on the fiber basis (rows 0 and 1) and -1 on its
    # complement (rows 2 and 3); the rest projector is the orthogonal
    # projector onto the fiber basis.
    basis = np.array([*(v.vec for v in rest_fiber_basis()), [1, 0, 0, 1], [0, 1, -1, 0]], dtype=complex)
    p_plus = fiber_projector(shell_point(1.0, 0.0, 0.0, 0.0))
    residuals = np.concatenate([_act(gamma(0), basis) - np.array([[1.0], [1.0], [-1.0], [-1.0]]) * basis,
                                p_plus - basis[:2].T @ basis[:2] / 2.0])
    return _fixed("rest fiber eigenspace", 1, np.abs(residuals), 1e-12)


@_sweep("bundle map well-defined on classes", 1e-10, 11)
def _check_beta_well_defined(normals, n):
    g = normals.normal(0.0, 1.0, (n, 16))
    a, psi, m = _sl2(_sl2_matrices(g[:, :8])), _rest_spinors(g[:, 8:12]), np.ones(n)
    _class_reps(a, psi, m)
    t = _sl2(_su2_matrices(g[:, 12:]))
    at, moved = _sl2(a @ t), _to_rest(t, psi)
    _class_reps(at, moved, m)
    # One stacked beta of both representatives of each class.
    p, f, _, norms = _betas(np.concatenate([a, at]), np.concatenate([psi, moved]), np.ones(2 * n))
    return np.stack([
        np.max(np.abs(p[:n] - p[n:]), axis=-1),
        spinor_norms(f[:n] - f[n:]) / _max1(norms[:n]),
    ], axis=1)


@_sweep("bundle map round trip", 1e-9, 12)
def _check_beta_round_trip(masses, normals, n):
    m, p, psi, norms, boost = _fiber_elements(masses.uniform(0.5, 2.0, n), normals.normal(0.0, 1.0, (n, 11)))
    # beta_inv takes the canonical boost of the same point: boost again.
    phi = _to_rest(boost, psi)
    _class_reps(boost, phi, m)
    p2, psi2, _, _ = _betas(boost, phi, m)
    return np.stack([
        np.max(np.abs(p - p2), axis=-1) / _max1(p[:, 0]),
        spinor_norms(psi - psi2) / _max1(norms),
    ], axis=1)


@_sweep("bundle map lands in the fiber", 1e-9, 13)
def _check_beta_fiber_membership(normals, masses, n):
    g = normals.normal(0.0, 1.0, (n, 12))
    a, psi = _sl2(_sl2_matrices(g[:, :8])), _rest_spinors(g[:, 8:])
    m = masses.uniform(0.5, 2.0, n)
    _class_reps(a, psi, m)
    _, _, r, norms = _betas(a, psi, m)
    return r / (_max1(m) * _max1(norms))


@_sweep("conjugate-pair split equivariance", 1e-11, 15)
def _check_split_equivariance(normals, n):
    g = normals.normal(0.0, 1.0, (n, 8))
    t, psi = _sl2(_su2_matrices(g[:, :4])), _rest_spinors(g[:, 4:])
    ident = np.broadcast_to(np.eye(2), (n, 2, 2))
    _class_reps(ident, psi, np.ones(n))
    moved = _tau_act(t, psi)
    _class_reps(ident, moved, np.ones(n))
    return _norms2(_split(moved) - _act(t, _split(psi)))


def _check_spin_character(streams, n: int) -> CheckResult:
    ts = np.linspace(0.0, 2.0 * math.pi, 100)
    cos, _ = _phases(ts)
    return _fixed("spin-1/2 character", len(ts), _cabs(spin_characters(ts) - 2.0 * cos), 1e-13)


@_sweep("group action preserves fibers", 1e-9, 14)
def _check_bundle_equivariance(masses, normals, n):
    g = normals.normal(0.0, 1.0, (n, 19))
    m, p, psi, _, _ = _fiber_elements(masses.uniform(0.5, 2.0, n), g[:, :11])
    a = _sl2(_sl2_matrices(g[:, 11:]))
    p_moved = _moved(a, p)
    psi_moved = _tau_act(a, psi)
    _require(np.all(_shell_test(p_moved, m)[1], axis=0),
             lambda i: MassShellPoint(Momentum.from_coords(p_moved[i]), m[i]))
    r, norms, _ = fiber_test(p_moved, psi_moved, m, FIBER_TOL)
    return r / (_max1(m) * _max1(norms) * _max1(p_moved[:, 0] / m))


def run_verification(seed: int = 0, samples: int = 1000, corrupt_gamma=None) -> VerifyReport:
    """Run every sweep with a deterministic seed.

    corrupt_gamma, if given as (mu, i, j), perturbs one entry of the gamma
    table used by the relation check; this is a negative-control hook for
    exercising the failure path.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    streams = _Streams(seed)
    gammas = [gamma(mu).copy() for mu in range(4)]
    if corrupt_gamma is not None:
        # Three integer indices: a negative one would wrap around.
        if len(corrupt_gamma) != 3 or not all(
                isinstance(k, (int, np.integer)) and 0 <= k <= 3 for k in corrupt_gamma):
            raise ValueError(f"corrupt_gamma indices must be in 0..3, got {corrupt_gamma}")
        mu, i, j = corrupt_gamma
        gammas[mu][i, j] += 1e-3

    n = samples
    checks = [
        _check_cyclic(streams, n),
        _check_symplectic(streams, n),
        _check_signature(streams, n),
        _check_h_polarization(streams, n),
        _check_gamma_relations(gammas, n),
        _check_anticommutator(streams, n),
        _check_slash_square(streams, n),
        _check_duality(streams, n),
        _check_equivariance(streams, n),
        _check_pi_commutes_J(streams, n),
        _check_covering_hom(streams, n),
        _check_covering_two_to_one(streams, n),
        _check_eta_orthogonality(streams, n),
        _check_rest_fiber(streams, n),
        _check_beta_well_defined(streams, n),
        _check_beta_round_trip(streams, n),
        _check_beta_fiber_membership(streams, n),
        _check_bundle_equivariance(streams, n),
        _check_split_equivariance(streams, n),
        _check_spin_character(streams, n),
    ]
    return VerifyReport(seed=seed, samples=samples, conventions=dict(CONVENTIONS), checks=checks)
