"""The sampled verify checks on the scalar API, one value object at a time.

The reference for twospinors.verify, kept as the checks and generators were
before they were stacked: each check here draws the same samples, in the
same order, from the same streams as the stacked check of the same name,
one sample at a time, and folds the defects the scalar API computes.  Each
sample takes one fixed-width row of each stream: random_sl2 is one try of
eight normals, replaced when it fails its tests, and a disc coefficient one
pair of uniforms.  The streams are made here from their definition: stream
k of a seed is default_rng(seed) advanced by k * 2**96 draws, and the check
of index i takes streams 2i and 2i + 1, one per argument of its sample.
The equality tests in test_verify.py compare the two.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from twospinors.bitensor import (
    BiTensor,
    Momentum,
    elementary,
    h_form,
    involution_J,
    lorentz_defect,
    lorentz_of,
    pi_act,
    q_form,
)
from twospinors.bundle import (
    AssociatedClassRep,
    FiberElement,
    beta,
    beta_inv,
    fiber_residual,
    rest_fiber_basis,
    split_conjugate_pair,
)
from twospinors.clifford import FourSpinor, anticommutator_defect, equivariance_defect, slash, tau
from twospinors.momentum import MassShellPoint, act_momentum, boost_rep, shell_point
from twospinors.spinor import SL2Element, Spinor2, _det2, act, conjugate, cyclic_defect, eps, eps_bar
from twospinors.verify import CheckResult


def _complex(rng) -> complex:
    return complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))


def random_spinor(rng) -> Spinor2:
    return Spinor2(_complex(rng), _complex(rng))


def random_bitensor(rng) -> BiTensor:
    return BiTensor(rng.normal(0.0, 1.0, (2, 2)) + 1j * rng.normal(0.0, 1.0, (2, 2)))


def su2(v) -> SL2Element:
    """The unitary unimodular matrix of four Gaussian draws v, through the
    unit quaternion v / |v|."""
    v = v / np.linalg.norm(v)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    return SL2Element([[a, -b.conjugate()], [b, a.conjugate()]])


def random_su2(rng) -> SL2Element:
    """Haar-uniform unitary unimodular matrix via a unit quaternion."""
    return su2(rng.normal(0.0, 1.0, 4))


def random_sl2(rng, max_norm: float = 4.0) -> SL2Element:
    """One try of eight normals, divided by the root of its determinant; a
    near-singular try, or one whose Frobenius norm passes max_norm, gives
    su2 of its first four normals instead."""
    re = rng.normal(0.0, 1.0, (2, 2))
    m = re + 1j * rng.normal(0.0, 1.0, (2, 2))
    d = _det2(m)
    if abs(d) >= 0.25:
        m = m / cmath.sqrt(d)
        if np.linalg.norm(m) <= max_norm:
            return SL2Element(m)
    return su2(re.ravel())


def random_shell_point(rng, masses=None) -> MassShellPoint:
    """Forward-shell point of mass uniform in [0.5, 2], drawn from masses
    (rng if None), spatial momentum Gaussian of width 2m."""
    m = float((rng if masses is None else masses).uniform(0.5, 2.0))
    sigma = 2.0 * m
    return shell_point(m, rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma))


def random_rest_spinor(rng) -> FourSpinor:
    """Random vector of the rest eigenspace: complex Gaussian coefficients on
    the rest fiber basis."""
    v1, v2 = rest_fiber_basis()
    return _complex(rng) * v1 + _complex(rng) * v2


def random_fiber_element(rng, masses=None) -> FiberElement:
    """Random bundle element: a random point of the fiber over a random
    shell point, reached through a generic (boost times unitary) action on
    a random rest eigenvector; its mass drawn from masses (rng if None)."""
    q = random_shell_point(rng, masses)
    A = boost_rep(q) @ random_su2(rng)
    psi = FourSpinor.from_vec(tau(A) @ random_rest_spinor(rng).vec)
    return FiberElement(q, psi)


def disc_coefficient(u: float, v: float) -> complex:
    """The coefficient of a random() pair (u, v), uniform in the disc of
    radius 10: radius 10 sqrt(u), angle 2 pi v."""
    r, t = 10.0 * math.sqrt(u), 2.0 * math.pi * v
    return complex(r * math.cos(t), r * math.sin(t))


def stream(seed, k: int) -> np.random.Generator:
    """Stream k of seed: default_rng(seed) advanced by k * 2**96 draws."""
    rng = np.random.default_rng(seed)
    rng.bit_generator.advance(k * 2**96)
    return rng


def _sweep(name: str, tol: float, index: int):
    """Turn a one-sample generator, which draws its inputs from its streams
    and yields its defects, into a check of n samples of a seed against tol:
    check(seed, n) gives the CheckResult and the streams, in their final
    state.  Finite defects are folded as they come with
    worst = max(worst, d); a non-finite defect fails the check, and detail
    names the first sample that gave one."""

    def wrap(sample):
        def check(seed, n: int) -> tuple[CheckResult, list[np.random.Generator]]:
            streams = [stream(seed, 2 * index + j) for j in range(sample.__code__.co_argcount)]
            worst = 0.0
            bad = None
            for i in range(n):
                for d in sample(*streams):
                    if math.isfinite(d):
                        worst = max(worst, d)
                    elif bad is None:
                        bad = i
            detail = "" if bad is None else f"non-finite defect at sample {bad}"
            return CheckResult(name, n, worst, tol, bad is None and worst <= tol, detail), streams

        return check

    return wrap


@_sweep("cyclic identity", 1e-12, 0)
def _check_cyclic(disc):
    z = [disc_coefficient(*disc.random(2).tolist()) for _ in range(6)]
    a, b, c = Spinor2(z[0], z[1]), Spinor2(z[2], z[3]), Spinor2(z[4], z[5])
    yield cyclic_defect(a, b, c).norm()


@_sweep("symplectic form identities", 1e-12, 1)
def _check_symplectic(normals):
    x, y, z = (random_spinor(normals) for _ in range(3))
    al, be = normals.normal(), normals.normal()
    yield abs(eps(x, y) + eps(y, x))
    yield abs(eps(al * x + be * y, z) - al * eps(x, z) - be * eps(y, z))
    yield abs(eps_bar(conjugate(x), conjugate(y)) - eps(x, y).conjugate())


@_sweep("polarized form vs dyadic definition", 1e-12, 2)
def _check_h_polarization(normals):
    a, c = random_spinor(normals), random_spinor(normals)
    b, d = random_spinor(normals), random_spinor(normals)
    bbar, dbar = conjugate(b), conjugate(d)
    lhs = h_form(elementary(a, bbar), elementary(c, dbar))
    yield abs(lhs - eps(a, c) * eps_bar(bbar, dbar))


@_sweep("clifford anticommutation (dyadic sweep)", 1e-11, 3)
def _check_anticommutator(normals):
    X = elementary(random_spinor(normals), conjugate(random_spinor(normals)))
    Y = elementary(random_spinor(normals), conjugate(random_spinor(normals)))
    yield float(np.max(np.abs(anticommutator_defect(X, Y))))


@_sweep("slash square equals quadratic form", 1e-11, 4)
def _check_slash_square(uniforms):
    p = Momentum.from_coords(uniforms.uniform(-10.0, 10.0, 4))
    yield float(np.max(np.abs(slash(p) @ slash(p) - q_form(p) * np.eye(4))))


@_sweep("momentum duality preserves the form", 1e-10, 5)
def _check_duality(normals):
    # The duality is the identity on coordinates (world vectors and momenta
    # are one type), so what is left to check is that the action preserves
    # the form.
    p = Momentum.from_coords(normals.normal(0.0, 3.0, 4))
    A = random_sl2(normals)
    moved = act_momentum(A, p)
    scale = max(1.0, float(np.sum(p.coords**2)), float(np.sum(moved.coords**2)))
    yield abs(q_form(moved) - q_form(p)) / scale


@_sweep("clifford-map equivariance", 1e-9, 6)
def _check_equivariance(normals):
    A = random_sl2(normals, max_norm=10.0)
    X = random_bitensor(normals)
    yield float(np.max(np.abs(equivariance_defect(A, X))))


@_sweep("bitensor action commutes with reality involution", 1e-13, 7)
def _check_pi_commutes_J(normals):
    A = random_sl2(normals)
    T = random_bitensor(normals)
    defect = pi_act(A, involution_J(T)).t - involution_J(pi_act(A, T)).t
    yield float(np.max(np.abs(defect)))


@_sweep("covering homomorphism", 1e-10, 8)
def _check_covering_hom(normals):
    A, B = random_sl2(normals), random_sl2(normals)
    lhs = lorentz_of(A @ B).mat
    rhs = lorentz_of(A).mat @ lorentz_of(B).mat
    yield float(np.max(np.abs(lhs - rhs)))


@_sweep("covering is two-to-one (sign kernel)", 0.0, 9)
def _check_covering_two_to_one(normals):
    A = random_sl2(normals)
    if not np.array_equal(lorentz_of(A).mat, lorentz_of(-A).mat):
        yield float(np.max(np.abs(lorentz_of(A).mat - lorentz_of(-A).mat)))


@_sweep("lorentz metric orthogonality", 1e-10, 10)
def _check_eta_orthogonality(normals):
    yield lorentz_defect(lorentz_of(random_sl2(normals)).mat)


@_sweep("bundle map well-defined on classes", 1e-10, 11)
def _check_beta_well_defined(normals):
    A = random_sl2(normals)
    psi = random_rest_spinor(normals)
    rep = AssociatedClassRep(A, psi, 1.0)
    T = random_su2(normals)
    moved = AssociatedClassRep(A @ T, FourSpinor.from_vec(tau(T.inverse()) @ psi.vec), 1.0)
    f1, f2 = beta(rep), beta(moved)
    scale = max(1.0, f1.psi.norm())
    yield float(np.max(np.abs(f1.q.p.coords - f2.q.p.coords)))
    yield float(np.linalg.norm(f1.psi.vec - f2.psi.vec)) / scale


@_sweep("bundle map round trip", 1e-9, 12)
def _check_beta_round_trip(masses, normals):
    f = random_fiber_element(normals, masses)
    g = beta(beta_inv(f))
    scale = max(1.0, f.psi.norm())
    yield float(np.max(np.abs(f.q.p.coords - g.q.p.coords))) / max(1.0, f.q.p.p0)
    yield float(np.linalg.norm(f.psi.vec - g.psi.vec)) / scale


@_sweep("bundle map lands in the fiber", 1e-9, 13)
def _check_beta_fiber_membership(normals, masses):
    A = random_sl2(normals)
    psi = random_rest_spinor(normals)
    m = float(masses.uniform(0.5, 2.0))
    f = beta(AssociatedClassRep(A, psi, m))
    scale = max(1.0, m) * max(1.0, f.psi.norm())
    yield fiber_residual(f.q, f.psi) / scale


@_sweep("conjugate-pair split equivariance", 1e-11, 15)
def _check_split_equivariance(normals):
    T = random_su2(normals)
    psi = random_rest_spinor(normals)
    pair = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), psi, 1.0))
    moved_psi = FourSpinor.from_vec(tau(T) @ psi.vec)
    moved_pair = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), moved_psi, 1.0))
    yield (moved_pair.s - act(T, pair.s)).norm()


@_sweep("group action preserves fibers", 1e-9, 14)
def _check_bundle_equivariance(masses, normals):
    f = random_fiber_element(normals, masses)
    A = random_sl2(normals)
    p_moved = act_momentum(A, f.q.p)
    psi_moved = FourSpinor.from_vec(tau(A) @ f.psi.vec)
    scale = max(1.0, f.q.m) * max(1.0, psi_moved.norm()) * max(1.0, p_moved.p0 / f.q.m)
    yield fiber_residual(MassShellPoint(p_moved, f.q.m), psi_moved) / scale


# The sampled checks in the order run_verification runs them.
CHECKS = {
    "cyclic": _check_cyclic,
    "symplectic": _check_symplectic,
    "h_polarization": _check_h_polarization,
    "anticommutator": _check_anticommutator,
    "slash_square": _check_slash_square,
    "duality": _check_duality,
    "equivariance": _check_equivariance,
    "pi_commutes_J": _check_pi_commutes_J,
    "covering_hom": _check_covering_hom,
    "covering_two_to_one": _check_covering_two_to_one,
    "eta_orthogonality": _check_eta_orthogonality,
    "beta_well_defined": _check_beta_well_defined,
    "beta_round_trip": _check_beta_round_trip,
    "beta_fiber_membership": _check_beta_fiber_membership,
    "bundle_equivariance": _check_bundle_equivariance,
    "split_equivariance": _check_split_equivariance,
}
