"""Seeded verification sweeps for every algebraic identity the kernel builds on.

Each check draws its own samples from a deterministic generator, records the
worst defect seen against a pinned tolerance, and the report passes only if
every check passes.  The conventions in force (basis order, metric, the
factor-2 anticommutation normalization, the plane-wave phase) are embedded
in the report so downstream artifacts are self-describing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitensor import (
    ETA,
    Momentum,
    elementary,
    h_form,
    involution_J,
    lorentz_defect,
    lorentz_of,
    pi_act,
    q_form,
    world_basis,
)
from .bundle import (
    AssociatedClassRep,
    beta,
    beta_inv,
    fiber_projector,
    fiber_residual,
    rest_fiber_basis,
    spin_characters,
    split_conjugate_pair,
)
from .clifford import (
    FourSpinor,
    anticommutator_defect,
    equivariance_defect,
    gamma,
    gamma_relation_residuals,
    slash,
    tau,
)
from .momentum import MassShellPoint, act_momentum, shell_point
from .spinor import SL2Element, Spinor2, act, conjugate, cyclic_defect, eps, eps_bar
from .sampling import (
    random_bitensor,
    random_fiber_element,
    random_rest_spinor,
    random_sl2,
    random_spinor,
    random_su2,
)

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


def _uniform_spinor(rng, bound: float) -> Spinor2:
    # Components uniform in [-bound, bound] with coefficient magnitude
    # capped at bound (rejection), matching the sweep's stated coefficient range.
    def coeff() -> complex:
        while True:
            re, im = rng.uniform(-bound, bound, 2)
            if re * re + im * im <= bound * bound:
                return complex(re, im)

    return Spinor2(coeff(), coeff())


def _sweep(name: str, tol: float):
    """Turn a one-sample generator, which draws its inputs from rng and yields
    its defects, into a check of n samples against tol.  Finite defects are
    folded as they come with worst = max(worst, d); a non-finite defect fails
    the check, and detail names the first sample that gave one."""

    def wrap(sample):
        def check(rng, n: int) -> CheckResult:
            worst = 0.0
            bad = None
            for i in range(n):
                for d in sample(rng):
                    if math.isfinite(d):
                        worst = max(worst, d)
                    elif bad is None:
                        bad = i
            detail = "" if bad is None else f"non-finite defect at sample {bad}"
            return CheckResult(name, n, worst, tol, bad is None and worst <= tol, detail)

        return check

    return wrap


@_sweep("cyclic identity", 1e-12)
def _check_cyclic(rng):
    a, b, c = (_uniform_spinor(rng, 10.0) for _ in range(3))
    yield cyclic_defect(a, b, c).norm()


@_sweep("symplectic form identities", 1e-12)
def _check_symplectic(rng):
    x, y, z = (random_spinor(rng) for _ in range(3))
    al, be = rng.normal(), rng.normal()
    yield abs(eps(x, y) + eps(y, x))
    yield abs(eps(al * x + be * y, z) - al * eps(x, z) - be * eps(y, z))
    yield abs(eps_bar(conjugate(x), conjugate(y)) - eps(x, y).conjugate())


def _check_signature(rng, n: int) -> CheckResult:
    u = world_basis()
    gram = np.array([[h_form(u[i], u[j]) for j in range(4)] for i in range(4)])
    worst = float(np.max(np.abs(gram - ETA)))
    signs = np.sign(np.linalg.eigvalsh(gram.real))
    sign_ok = sorted(signs) == [-1.0, -1.0, -1.0, 1.0]
    ok = worst <= 1e-14 and sign_ok
    detail = "" if ok else "eigenvalue signs wrong" if not sign_ok else ""
    return CheckResult("world-basis signature", 1, worst, 1e-14, ok, detail)


@_sweep("polarized form vs dyadic definition", 1e-12)
def _check_h_polarization(rng):
    a, c = random_spinor(rng), random_spinor(rng)
    b, d = random_spinor(rng), random_spinor(rng)
    bbar, dbar = conjugate(b), conjugate(d)
    lhs = h_form(elementary(a, bbar), elementary(c, dbar))
    yield abs(lhs - eps(a, c) * eps_bar(bbar, dbar))


def _check_gamma_relations(gammas, n: int) -> CheckResult:
    table = gamma_relation_residuals(gammas)
    worst = float(np.max(table))
    mu, nu = divmod(int(np.argmax(table)), 4)
    ok = worst <= 1e-13
    detail = "" if ok else f"worst relation: gamma({mu}), gamma({nu})"
    return CheckResult("gamma anticommutation table", 16, worst, 1e-13, ok, detail)


@_sweep("clifford anticommutation (dyadic sweep)", 1e-11)
def _check_anticommutator(rng):
    X = elementary(random_spinor(rng), conjugate(random_spinor(rng)))
    Y = elementary(random_spinor(rng), conjugate(random_spinor(rng)))
    yield float(np.max(np.abs(anticommutator_defect(X, Y))))


@_sweep("slash square equals quadratic form", 1e-11)
def _check_slash_square(rng):
    p = Momentum.from_coords(rng.uniform(-10.0, 10.0, 4))
    yield float(np.max(np.abs(slash(p) @ slash(p) - q_form(p) * np.eye(4))))


@_sweep("momentum duality preserves the form", 1e-10)
def _check_duality(rng):
    # The duality is the identity on coordinates (world vectors and momenta
    # are one type), so what is left to check is that the action preserves
    # the form.
    p = Momentum.from_coords(rng.normal(0.0, 3.0, 4))
    A = random_sl2(rng)
    moved = act_momentum(A, p)
    scale = max(1.0, float(np.sum(p.coords**2)), float(np.sum(moved.coords**2)))
    yield abs(q_form(moved) - q_form(p)) / scale


@_sweep("clifford-map equivariance", 1e-9)
def _check_equivariance(rng):
    A = random_sl2(rng, max_norm=10.0)
    X = random_bitensor(rng)
    yield float(np.max(np.abs(equivariance_defect(A, X))))


@_sweep("bitensor action commutes with reality involution", 1e-13)
def _check_pi_commutes_J(rng):
    A = random_sl2(rng)
    T = random_bitensor(rng)
    defect = pi_act(A, involution_J(T)).t - involution_J(pi_act(A, T)).t
    yield float(np.max(np.abs(defect)))


@_sweep("covering homomorphism", 1e-10)
def _check_covering_hom(rng):
    A, B = random_sl2(rng), random_sl2(rng)
    lhs = lorentz_of(A @ B).mat
    rhs = lorentz_of(A).mat @ lorentz_of(B).mat
    yield float(np.max(np.abs(lhs - rhs)))


@_sweep("covering is two-to-one (sign kernel)", 0.0)
def _check_covering_two_to_one(rng):
    A = random_sl2(rng)
    if not np.array_equal(lorentz_of(A).mat, lorentz_of(-A).mat):
        yield float(np.max(np.abs(lorentz_of(A).mat - lorentz_of(-A).mat)))


@_sweep("lorentz metric orthogonality", 1e-10)
def _check_eta_orthogonality(rng):
    yield lorentz_defect(lorentz_of(random_sl2(rng)).mat)


def _check_rest_fiber(rng, n: int) -> CheckResult:
    g0 = gamma(0)
    # The four rest evaluations: +1 on the fiber basis, -1 on its complement.
    v_plus = [v.vec for v in rest_fiber_basis()]
    v_minus = [np.array([1, 0, 0, 1]), np.array([0, 1, -1, 0])]
    # Projector image equals the stated span (orthogonal projector form).
    p_plus = fiber_projector(shell_point(1.0, 0.0, 0.0, 0.0))
    span = sum(np.outer(v, v) / 2.0 for v in v_plus)
    residuals = [g0 @ v - v for v in v_plus] + [g0 @ v + v for v in v_minus] + [p_plus - span]
    worst = max(float(np.max(np.abs(r))) for r in residuals)
    return CheckResult("rest fiber eigenspace", 1, worst, 1e-12, worst <= 1e-12)


@_sweep("bundle map well-defined on classes", 1e-10)
def _check_beta_well_defined(rng):
    A = random_sl2(rng)
    psi = random_rest_spinor(rng)
    rep = AssociatedClassRep(A, psi, 1.0)
    T = random_su2(rng)
    moved = AssociatedClassRep(A @ T, FourSpinor.from_vec(tau(T.inverse()) @ psi.vec), 1.0)
    f1, f2 = beta(rep), beta(moved)
    scale = max(1.0, f1.psi.norm())
    yield float(np.max(np.abs(f1.q.p.coords - f2.q.p.coords)))
    yield float(np.linalg.norm(f1.psi.vec - f2.psi.vec)) / scale


@_sweep("bundle map round trip", 1e-9)
def _check_beta_round_trip(rng):
    f = random_fiber_element(rng)
    g = beta(beta_inv(f))
    scale = max(1.0, f.psi.norm())
    yield float(np.max(np.abs(f.q.p.coords - g.q.p.coords))) / max(1.0, f.q.p.p0)
    yield float(np.linalg.norm(f.psi.vec - g.psi.vec)) / scale


@_sweep("bundle map lands in the fiber", 1e-9)
def _check_beta_fiber_membership(rng):
    A = random_sl2(rng)
    psi = random_rest_spinor(rng)
    m = float(rng.uniform(0.5, 2.0))
    f = beta(AssociatedClassRep(A, psi, m))
    scale = max(1.0, m) * max(1.0, f.psi.norm())
    yield fiber_residual(f.q, f.psi) / scale


@_sweep("conjugate-pair split equivariance", 1e-11)
def _check_split_equivariance(rng):
    T = random_su2(rng)
    psi = random_rest_spinor(rng)
    pair = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), psi, 1.0))
    moved_psi = FourSpinor.from_vec(tau(T) @ psi.vec)
    moved_pair = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), moved_psi, 1.0))
    yield (moved_pair.s - act(T, pair.s)).norm()


def _check_spin_character(rng, n: int) -> CheckResult:
    ts = np.linspace(0.0, 2.0 * math.pi, 100)
    chars = spin_characters(ts).tolist()
    worst = max(abs(c - 2.0 * math.cos(t)) for c, t in zip(chars, ts))
    return CheckResult("spin-1/2 character", len(ts), worst, 1e-13, worst <= 1e-13)


@_sweep("group action preserves fibers", 1e-9)
def _check_bundle_equivariance(rng):
    f = random_fiber_element(rng)
    A = random_sl2(rng)
    p_moved = act_momentum(A, f.q.p)
    psi_moved = FourSpinor.from_vec(tau(A) @ f.psi.vec)
    scale = max(1.0, f.q.m) * max(1.0, psi_moved.norm()) * max(1.0, p_moved.p0 / f.q.m)
    yield fiber_residual(MassShellPoint(p_moved, f.q.m), psi_moved) / scale


def run_verification(seed: int = 0, samples: int = 1000, corrupt_gamma=None) -> VerifyReport:
    """Run every sweep with a deterministic seed.

    corrupt_gamma, if given as (mu, i, j), perturbs one entry of the gamma
    table used by the relation check; this is a negative-control hook for
    exercising the failure path.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    gammas = [gamma(mu).copy() for mu in range(4)]
    if corrupt_gamma is not None:
        if not all(0 <= k <= 3 for k in corrupt_gamma):
            raise ValueError(f"corrupt_gamma indices must be in 0..3, got {corrupt_gamma}")
        mu, i, j = corrupt_gamma
        gammas[mu][i, j] += 1e-3

    n = samples
    checks = [
        _check_cyclic(rng, n),
        _check_symplectic(rng, n),
        _check_signature(rng, n),
        _check_h_polarization(rng, n),
        _check_gamma_relations(gammas, n),
        _check_anticommutator(rng, n),
        _check_slash_square(rng, n),
        _check_duality(rng, n),
        _check_equivariance(rng, n),
        _check_pi_commutes_J(rng, n),
        _check_covering_hom(rng, n),
        _check_covering_two_to_one(rng, n),
        _check_eta_orthogonality(rng, n),
        _check_rest_fiber(rng, n),
        _check_beta_well_defined(rng, n),
        _check_beta_round_trip(rng, n),
        _check_beta_fiber_membership(rng, n),
        _check_bundle_equivariance(rng, n),
        _check_split_equivariance(rng, n),
        _check_spin_character(rng, n),
    ]
    return VerifyReport(seed=seed, samples=samples, conventions=dict(CONVENTIONS), checks=checks)
