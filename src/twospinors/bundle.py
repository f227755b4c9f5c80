"""The Dirac bundle over the mass shell and its associated-bundle description.

The fiber over a shell point q is the +m eigenspace of slash(q.p) inside the
4-spinors; over the rest point it is the +1 eigenspace of gamma(0), spanned
by e1 - e2bar and e2 + e1bar.  Each fiber element is reachable as
tau(A) applied to a rest eigenvector, and the class map

    (A, psi_plus)  ->  (A acting on the rest momentum, tau(A) psi_plus)

is a bijection onto the bundle once representatives are normalized by the
canonical boost section.  Splitting a class representative through the fixed
rest-eigenspace isomorphism yields a conjugate pair of 2-spinors.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .bitensor import Momentum
from .clifford import FourSpinor, gamma, slash, tau, tau_matrices
from .errors import InvalidClassRep, NotInFiber
from .momentum import MassShellPoint, _require_mass, _require_on_shell, act_momentum, boost_rep
from .spinor import CoSpinor2, SL2Element, Spinor2, conjugate, spinor_norms

__all__ = [
    "FiberElement",
    "AssociatedClassRep",
    "ConjugatePair",
    "FIBER_TOL",
    "SPLUS_TOL",
    "fiber_residual",
    "fiber_residuals",
    "fiber_bound",
    "fiber_projector",
    "rest_fiber_basis",
    "rest_transport",
    "fiber_basis",
    "beta",
    "beta_inv",
    "split_conjugate_pair",
    "spin_character",
    "spin_characters",
]

# Fiber membership tolerance, scaled by mass and spinor norm so the
# invariant stays meaningful under large boosts.
FIBER_TOL = 1e-9

# Rest-eigenspace membership tolerance for class representatives.
SPLUS_TOL = 1e-10

# The rest-eigenspace basis (e1 - e2bar, e2 + e1bar), one flattened row each.
_REST = np.array([[1, 0, 0, -1], [0, 1, 1, 0]], dtype=complex)
_REST.setflags(write=False)


def fiber_residuals(p, psi, m: float) -> np.ndarray:
    """Norms of slash(p) psi - m psi for stacked (..., 4) momentum coordinates
    and (..., 4) 4-spinor coefficients; the kernel under fiber_residual.

    Each row equals np.linalg.norm(slash(p) @ psi - m * psi) bit for bit.
    """
    psi = np.asarray(psi, dtype=complex)
    return spinor_norms(np.matvec(slash(p), psi) - m * psi)


def fiber_residual(q: MassShellPoint, psi: FourSpinor) -> float:
    """Norm of slash(q.p) psi - m psi, the defining equation of the bundle."""
    return float(fiber_residuals(q.p, psi.vec, q.m))


def fiber_bound(tol: float, m: float, psi_norm):
    """Largest accepted fiber residual of a spinor of norm psi_norm over the
    shell of mass m: tol * max(1, m) * psi_norm, so the test stays meaningful
    under large boosts."""
    return tol * max(1.0, m) * psi_norm


def _require_in_fiber(f: FiberElement) -> None:
    """Raise NotInFiber unless f.psi solves slash(p) psi = m psi at f.q: the
    constructor's check, re-run in case f was altered."""
    r = fiber_residual(f.q, f.psi)
    bound = fiber_bound(FIBER_TOL, f.q.m, f.psi.norm())
    if r > bound:
        raise NotInFiber(f"fiber residual {r:.3e} exceeds {bound:.3e}")


def _require_class_rep(rep: AssociatedClassRep) -> None:
    """Raise InvalidClassRep unless rep.phi_plus is in the +1 eigenspace of
    gamma(0): the constructor's check, re-run in case rep was altered."""
    v = rep.phi_plus.vec
    d = float(np.linalg.norm(gamma(0) @ v - v))
    bound = SPLUS_TOL * max(1.0, rep.phi_plus.norm())
    if d > bound:
        raise InvalidClassRep(f"rest-eigenspace defect {d:.3e} exceeds {bound:.3e}")


@dataclass(frozen=True)
class FiberElement:
    """A shell point q together with a 4-spinor in its fiber."""

    q: MassShellPoint
    psi: FourSpinor

    def __post_init__(self):
        _require_in_fiber(self)


@dataclass(frozen=True)
class AssociatedClassRep:
    """Representative (A, psi_plus) of an equivalence class, psi_plus in the
    rest eigenspace; m fixes which shell the class lives over."""

    A: SL2Element
    phi_plus: FourSpinor
    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _require_mass(self.m))
        _require_class_rep(self)


@dataclass(frozen=True)
class ConjugatePair:
    """A 2-spinor and its conjugate partner, stored independently and
    checked for exact coefficient-level consistency."""

    s: Spinor2
    sbar: CoSpinor2

    def __post_init__(self):
        if self.sbar != conjugate(self.s):
            raise ValueError("sbar does not equal the conjugate of s")


def fiber_projector(q: MassShellPoint) -> np.ndarray:
    """Projector onto the fiber at q: (slash(q.p)/m + Id)/2.

    Idempotent of rank 2; commutes with slash(q.p).
    """
    _require_on_shell(q)
    return (slash(q.p) / q.m + np.eye(4)) / 2.0


def rest_fiber_basis() -> tuple[FourSpinor, FourSpinor]:
    """The rest-eigenspace basis (e1 - e2bar, e2 + e1bar), flattened to
    (1, 0, 0, -1) and (0, 1, 1, 0)."""
    return (FourSpinor.from_vec(_REST[0]), FourSpinor.from_vec(_REST[1]))


def rest_transport(a) -> np.ndarray:
    """The rest fiber basis moved by tau of stacked (..., 2, 2) matrices a:
    (..., 2, 4) coefficients, one row per basis vector; the kernel under
    fiber_basis and sample-field."""
    return np.matvec(tau_matrices(a)[..., None, :, :], _REST)


def fiber_basis(q: MassShellPoint) -> tuple[FourSpinor, FourSpinor]:
    """The canonical section's basis of the fiber at q: the rest basis
    transported by tau of the canonical boost."""
    v1, v2 = rest_transport(boost_rep(q).mat)
    return (FourSpinor.from_vec(v1), FourSpinor.from_vec(v2))


def beta(rep: AssociatedClassRep) -> FiberElement:
    """Class-to-fiber map: (A, psi) -> (A acting on rest momentum, tau(A) psi).

    Well-defined on classes: replacing (A, psi) by (A T, tau(T)^-1 psi) for
    unitary unimodular T gives the same output.
    """
    _require_class_rep(rep)
    p = act_momentum(rep.A, Momentum(rep.m, 0.0, 0.0, 0.0))
    psi = FourSpinor.from_vec(tau(rep.A) @ rep.phi_plus.vec)
    return FiberElement(MassShellPoint(p, rep.m), psi)


def beta_inv(f: FiberElement) -> AssociatedClassRep:
    """Fiber-to-class map using the canonical boost section.

    The choice of section makes the representative deterministic, so round
    trips are testable; any other valid representative differs by a right
    unitary factor.
    """
    _require_in_fiber(f)
    A = boost_rep(f.q)
    phi_plus = FourSpinor.from_vec(tau(A.inverse()) @ f.psi.vec)
    return AssociatedClassRep(A, phi_plus, f.q.m)


def split_conjugate_pair(rep: AssociatedClassRep) -> ConjugatePair:
    """Extract the conjugate 2-spinor pair of a class representative.

    Uses the fixed unitary-module isomorphism of the rest eigenspace with
    the spinor space: e1 - e2bar -> e1 and e2 + e1bar -> e2, so the spinor
    coefficients are the first two coefficients of the representative; the
    conjugate partner is its coefficient conjugation.
    """
    _require_class_rep(rep)
    s = rep.phi_plus.s
    return ConjugatePair(s, conjugate(s))


def spin_characters(ts) -> np.ndarray:
    """spin_character at every angle of ts, as one stacked trace on the rest
    eigenspace of tau; each entry equals spin_character of that angle."""
    a = np.array([[[cmath.exp(1j * t), 0.0], [0.0, cmath.exp(-1j * t)]] for t in ts], dtype=complex)
    p_plus = (gamma(0) + np.eye(4)) / 2.0
    return np.trace(p_plus @ tau_matrices(a), axis1=-2, axis2=-1)


def spin_character(t: float) -> complex:
    """Trace on the rest eigenspace of the diagonal-phase action;
    equals 2*cos(t)."""
    return complex(spin_characters([t])[0])
