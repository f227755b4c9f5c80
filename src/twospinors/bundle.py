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

import math
from dataclasses import dataclass

import numpy as np

from .bitensor import Momentum
from .clifford import FourSpinor, _slash, _tau_act, gamma, tau_matrices
from .errors import InvalidClassRep, NotInFiber
from .momentum import MassShellPoint, _act_momenta, _refuse_act, _require_mass, boost_rep
from .spinor import (
    CoSpinor2,
    SL2Element,
    Spinor2,
    _act,
    _adjugate,
    _max1,
    _scaled,
    _sealed,
    _unscaled,
    conjugate,
    spinor_norms,
)

__all__ = [
    "FiberElement",
    "AssociatedClassRep",
    "ConjugatePair",
    "FIBER_TOL",
    "SPLUS_TOL",
    "fiber_residual",
    "fiber_bound",
    "fiber_test",
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
_REST = _sealed(np.array([[1, 0, 0, -1], [0, 1, 1, 0]], dtype=complex))


def fiber_test(p, psi, m, tol: float):
    """The residuals |slash(p) psi - m psi| and norms |psi| of one 4-spinor or a
    (..., 4) stack at (..., 4) coordinates p and mass m (one, or one per row),
    and whether each residual is within fiber_bound(tol, m, |psi|): the one
    fiber test.  Each spinor is scaled by a power of two (_scaled) and compared
    on the scaled values, which its scale cannot overflow; each residual and
    norm, scaled back by _unscaled (Python floats for one spinor), is
    np.linalg.norm's bits, or inf, silently."""
    with np.errstate(all="ignore"):
        return _fiber_test(_slash(p), psi, m, tol)


def _fiber_test(s, psi, m, tol: float):
    """fiber_test with slash(p) given as s, inside its caller's np.errstate:
    its kernel, which the tests at one point run on the point's kept slash
    (_slash_at)."""
    w, e = _scaled(np.ascontiguousarray(psi, dtype=complex))
    mw = m[..., None] * w if isinstance(m, np.ndarray) else m * w
    rn = spinor_norms([_act(s, w) - mw, w])
    return *_unscaled(rn, e), rn[0] <= fiber_bound(tol, m, rn[1])


def _slash_at(q: MassShellPoint) -> np.ndarray:
    """slash(q.p), sealed and kept on q (MassShellPoint._kept), inside its
    caller's np.errstate: the matrix of every fiber test at q."""
    return q._kept("_slash", lambda q: _sealed(_slash(q.p)))


def fiber_residual(q: MassShellPoint, psi: FourSpinor) -> float:
    """Norm of slash(q.p) psi - m psi, the defining equation of the bundle:
    fiber_test's residual, which the scale of psi cannot overflow."""
    with np.errstate(all="ignore"):
        return _fiber_test(_slash_at(q), psi.vec, q.m, FIBER_TOL)[0]


def fiber_bound(tol: float, m, psi_norm):
    """Largest accepted fiber residual of a spinor of norm psi_norm over the
    shell of mass m: tol * max(1, m) * psi_norm, so the test stays meaningful
    under large boosts."""
    return tol * _max1(m) * psi_norm


@dataclass(frozen=True)
class FiberElement:
    """A shell point q together with a 4-spinor in its fiber."""

    q: MassShellPoint
    psi: FourSpinor

    def __post_init__(self):
        with np.errstate(all="ignore"):
            r, n, ok = _fiber_test(_slash_at(self.q), self.psi.vec, self.q.m, FIBER_TOL)
        if not ok:
            raise NotInFiber(f"fiber residual {r:.3e} exceeds {fiber_bound(FIBER_TOL, self.q.m, n):.3e}")


@dataclass(frozen=True)
class AssociatedClassRep:
    """Representative (A, psi_plus) of an equivalence class, psi_plus in the
    rest eigenspace; m fixes which shell the class lives over."""

    A: SL2Element
    phi_plus: FourSpinor
    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _require_mass(self.m))
        d, bound, ok = _in_rest_eigenspace(self.phi_plus.vec)
        if not ok:
            raise InvalidClassRep(f"rest-eigenspace defect {d:.3e} exceeds {bound:.3e}")


def _in_rest_eigenspace(phi):
    """AssociatedClassRep's test of one 4-spinor or a (..., 4) stack: the
    defect |gamma(0) psi - psi| and the bound SPLUS_TOL * max(1, |psi|), each
    taken on psi scaled by a power of two (_scaled) and scaled back exactly
    (inf past the float range, silently), and whether the defect is finite
    and within the bound."""
    w, e = _scaled(phi)
    d, n = _unscaled(spinor_norms([_act(gamma(0), w) - w, w]), e)
    bound = SPLUS_TOL * _max1(n)
    return d, bound, (d <= bound) & (d < math.inf)


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

    Idempotent of rank 2; commutes with slash(q.p).  Entries past the float
    range are inf, without a warning.
    """
    with np.errstate(all="ignore"):
        return (_slash_at(q) / q.m + np.eye(4)) / 2.0


def rest_fiber_basis() -> tuple[FourSpinor, FourSpinor]:
    """The rest-eigenspace basis (e1 - e2bar, e2 + e1bar), flattened to
    (1, 0, 0, -1) and (0, 1, 1, 0)."""
    return (FourSpinor.from_vec(_REST[0]), FourSpinor.from_vec(_REST[1]))


def rest_transport(a) -> np.ndarray:
    """The rest fiber basis moved by tau of stacked (..., 2, 2) matrices a:
    (..., 2, 4) coefficients, one row per basis vector; the kernel under
    fiber_basis, solve and sample-field."""
    return _tau_act(a[..., None, :, :], _REST)


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
    p, ok, psi = _beta(rep.A.mat, rep.phi_plus.vec, rep.m)
    if not ok:  # act_momentum's typed error
        _refuse_act(rep.A, Momentum(rep.m, 0.0, 0.0, 0.0))
    return FiberElement(MassShellPoint(Momentum.from_coords(p), rep.m), FourSpinor.from_vec(psi))


def _beta(a, phi, m):
    """beta of one class (a, phi, m), or of each row of stacked (..., 2, 2)
    matrices, (..., 4) rest spinors and (...) masses: the momentum
    coordinates, the mask of the ones act_momentum accepts, and the
    4-spinors, each equal to beta's bit for bit.  The kernel under beta."""
    rest = np.zeros(np.shape(m) + (4,))
    rest[..., 0] = m
    with np.errstate(all="ignore"):  # FourSpinor refuses a spinor past the float range
        return (*_act_momenta(a, rest), _tau_act(a, phi))


def beta_inv(f: FiberElement) -> AssociatedClassRep:
    """Fiber-to-class map using the canonical boost section.

    The choice of section makes the representative deterministic, so round
    trips are testable; any other valid representative differs by a right
    unitary factor.
    """
    A = boost_rep(f.q)
    return AssociatedClassRep(A, FourSpinor.from_vec(_to_rest(A.mat, f.psi.vec)), f.q.m)


def _to_rest(a, psi) -> np.ndarray:
    """tau(a)^-1 psi for unimodular a, the inverse the adjugate, for one matrix
    and 4-spinor or row by row for stacks: the kernel under beta_inv."""
    return _tau_act(_adjugate(a), psi)


def split_conjugate_pair(rep: AssociatedClassRep) -> ConjugatePair:
    """Extract the conjugate 2-spinor pair of a class representative.

    Uses the fixed unitary-module isomorphism of the rest eigenspace with
    the spinor space: e1 - e2bar -> e1 and e2 + e1bar -> e2, so the spinor
    coefficients are the first two coefficients of the representative; the
    conjugate partner is its coefficient conjugation.
    """
    s = Spinor2.from_vec(_split(rep.phi_plus.vec))
    return ConjugatePair(s, conjugate(s))


def _split(phi) -> np.ndarray:
    """The spinor coefficients of rest spinors (one, or a (..., 4) stack): the
    first two, by the isomorphism of split_conjugate_pair."""
    return phi[..., :2]


def _phases(ts) -> tuple[np.ndarray, np.ndarray]:
    """cos t and sin t of each angle of ts, by math: exactly the parts of
    cmath.exp(1j * t), which are exp(0) * cos t and exp(0) * sin t.  A
    non-finite angle gives nan parts, as cmath.exp does (math.cos raises on
    inf)."""
    t = np.asarray(ts, dtype=float)
    t = np.where(np.isinf(t), np.nan, t).tolist()
    return np.array(list(map(math.cos, t))), np.array(list(map(math.sin, t)))


def spin_characters(ts) -> np.ndarray:
    """spin_character at every angle of ts, as one stacked trace on the rest
    eigenspace of tau; each entry equals spin_character of that angle."""
    cos, sin = _phases(ts)
    # The diagonal phases exp(it) and exp(-it), parts stored exactly.
    a = np.zeros(cos.shape + (2, 2), dtype=complex)
    a.real[:, 0, 0] = a.real[:, 1, 1] = cos
    a.imag[:, 0, 0], a.imag[:, 1, 1] = sin, -sin
    p_plus = (gamma(0) + np.eye(4)) / 2.0
    return np.trace(p_plus @ tau_matrices(a), axis1=-2, axis2=-1)


def spin_character(t: float) -> complex:
    """Trace on the rest eigenspace of the diagonal-phase action;
    equals 2*cos(t)."""
    return complex(spin_characters([t])[0])
