"""Momentum space and the mass shell.

Momentum coordinates are stored in the dual basis, chosen so the duality
with world vectors is the identity on coordinate tuples; momenta and world
vectors therefore share one type, bitensor.Momentum.  The forward mass shell
for mass m is the orbit of (m, 0, 0, 0) under the unimodular action; every
shell point has a unique positive-definite Hermitian boost representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitensor import (
    _SQRT2,
    _WORLD_STACK,
    Momentum,
    _coords,
    _expand,
    _q_form,
    _transport,
    _world_coords,
    from_minkowski,
    pi_act,
    to_minkowski,
)
from .errors import BadMass, Degenerate, NotOnShell, NumericalDrift
from .spinor import SL2Element, _max1, _sealed, _unimodular

__all__ = [
    "MassShellPoint",
    "SHELL_TOL",
    "shell_point",
    "boost_rep",
    "boost_matrices",
    "canonical_boosts",
    "act_momentum",
]


# Relative dispersion tolerance for membership of the mass shell.
SHELL_TOL = 1e-9

_ID2 = _sealed(np.eye(2))


def _require_mass(m) -> float:
    """m as a float, or BadMass unless it is finite and positive."""
    m = float(m)
    if not (math.isfinite(m) and m > 0):
        raise BadMass(f"mass must be positive, got {m}")
    return m


def _shell_test(p, m):
    """MassShellPoint's test of one four-vector's coordinates or a (..., 4)
    stack, at one mass or one per row: the defect |q_form(p) - m^2| and the
    verdicts (on the shell: finite and within SHELL_TOL * max(1, m^2), so a
    non-finite p fails; forward: p0 > 0), silently."""
    with np.errstate(all="ignore"):
        defect = abs(_q_form(p) - m * m)
        on_shell = (defect <= SHELL_TOL * _max1(m * m)) & (defect < math.inf)
    # One vector's p0 as a numpy scalar: cheaper than a 0-d comparison.
    return defect, (on_shell, (p[0] if p.ndim == 1 else p[..., 0]) > 0)


@dataclass(frozen=True)
class MassShellPoint:
    """A momentum on the forward shell of mass m: q_form(p) = m^2, p0 > 0
    (a nan or overflowing defect is not).

    A point keeps what is computed from it alone (its canonical boost, the
    sealed slash(p) of its fiber tests) on first use, by _kept; only p and m
    reach ==, hash, repr, copies and pickles."""

    p: Momentum
    m: float

    def __post_init__(self):
        m = _require_mass(self.m)
        object.__setattr__(self, "m", m)
        defect, (on_shell, forward) = _shell_test(self.p.coords, m)
        if not on_shell:
            raise NotOnShell(f"dispersion defect {defect:.3e} exceeds tolerance for m={m}")
        if not forward:
            raise NotOnShell(f"p0 = {self.p.p0} is not on the forward shell")

    def __reduce__(self):
        # Rebuilt from p and m: a pickled kept array would load writable.
        return (MassShellPoint, (self.p, self.m))

    def _kept(self, name: str, make):
        """make(self), computed on the first call and kept under name: every
        later call returns the kept object.  A raised refusal keeps nothing.
        Two threads filling it at once compute the same value, and
        dict.setdefault hands both the one that was stored first."""
        kept = vars(self).get(name)
        return vars(self).setdefault(name, make(self)) if kept is None else kept


def shell_point(m: float, p1: float, p2: float, p3: float) -> MassShellPoint:
    """Forward-shell point with spatial momentum (p1, p2, p3) and mass m.

    The energy is fixed by the dispersion relation p0 = sqrt(m^2 + |p|^2).
    """
    m = _require_mass(m)
    p0 = math.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
    if not math.isfinite(p0):  # the energy passes the float range
        raise NotOnShell("momentum coordinates must be finite")
    return MassShellPoint(Momentum(p0, p1, p2, p3), m)


def boost_matrices(p, m) -> np.ndarray:
    """Canonical boosts of stacked momenta at one mass or an (..., 1, 1) array
    of them, silently: the kernel under boost_rep.

    Maps (..., 4) coordinates to the (..., 2, 2) matrices (H + Id) / sqrt(tr H + 2),
    where H = sqrt(2) * (p0 u0 + p1 u1 + p2 u2 + p3 u3) / m is the world-basis
    expansion of from_minkowski (bitensor._expand), so every row equals the
    scalar result bit for bit.  Rows are not validated.  For p0 > 0 the
    diagonal of H holds the rounded images of p0 + p3 and p0 - p3, so by
    monotone rounding tr H >= 0 (or nan on overflow): the square root never
    degenerates.
    """
    with np.errstate(all="ignore"):
        H = _SQRT2 * _expand(_coords(p), _WORLD_STACK) / m
        tr = (H[..., 0, 0] + H[..., 1, 1]).real
        return (H + _ID2) / np.sqrt(tr + 2.0)[..., None, None]


def canonical_boosts(m, p1, p2, p3):
    """boost_rep(shell_point(m, p1, p2, p3)) on broadcast stacks, at one mass
    or one per row, silently: the (..., 4) coordinates (p0 summed as in
    shell_point), their boost_matrices, and the mask of the rows both accept,
    a finite positive mass with the _shell_test and _unimodular verdicts."""
    with np.errstate(all="ignore"):
        p0 = np.sqrt(((m * m + p1 * p1) + p2 * p2) + p3 * p3)
        p = np.stack(np.broadcast_arrays(p0, p1, p2, p3), axis=-1)
        A = boost_matrices(p, np.asarray(m)[..., None, None])
        _, (on_shell, forward) = _shell_test(p, m)
        return p, A, np.isfinite(m) & (m > 0) & on_shell & forward & _unimodular(A)[1]


def boost_rep(q: MassShellPoint) -> SL2Element:
    """Canonical boost: the unique positive Hermitian unimodular matrix
    carrying the rest momentum (m, 0, 0, 0) to q.p.

    With H the Hermitian world matrix of q.p divided by m (so det H = 1 and
    H is positive definite on the forward shell), the principal square root
    has the closed form (H + Id) / sqrt(tr H + 2); the result A satisfies
    A @ A = H exactly by the 2x2 Cayley-Hamilton identity.

    Computed once per point: every call on q returns q's one SL2Element.
    Raises Degenerate, on every call, when the closed form overflows, which
    happens on the shell for p/m beyond the double range (e.g. m = 1e-300,
    |p| = 1e10).
    """
    return q._kept("_boost", _boost)


def _boost(q: MassShellPoint) -> SL2Element:
    """boost_rep's computation, which q keeps."""
    a = boost_matrices(q.p.coords, q.m)
    if not np.isfinite(a).all():
        raise Degenerate(f"canonical boost of p = {q.p.coords.tolist()} at m = {q.m} overflows")
    return SL2Element(a)


def act_momentum(A: SL2Element, q: Momentum) -> Momentum:
    """Unimodular action on momenta, through the bitensor representation.

    Preserves the quadratic form, and preserves the forward cone p0 > 0.
    """
    coords, ok = _act_momenta(A.mat, q.coords)
    if not ok:
        _refuse_act(A, q)
    return Momentum.from_coords(coords)


def _refuse_act(A: SL2Element, q: Momentum) -> None:
    """Raise the typed error of the values' own checks of A acting on q, or
    NumericalDrift if they accept it: act_momentum's refusal."""
    to_minkowski(pi_act(A, from_minkowski(q)))
    raise NumericalDrift(f"the kernel rejected the action on p = {q.coords.tolist()}, which the scalar path accepts")


def _act_momenta(a, p):
    """act_momentum of one matrix and momentum, or row by row of (..., 2, 2)
    matrices and (..., 4) coordinates, broadcast: the world coordinates of
    a T a* for T the expansion of p (each equal to act_momentum's bit for
    bit), and the mask of the rows act_momentum accepts: real (to_minkowski's
    test, which a non-finite transport entry fails) and finite coordinates
    (Momentum's check, which a finite Hermitian transport can still fail by
    overflow).  Silent on overflow; the kernel under act_momentum."""
    with np.errstate(all="ignore"):
        coords, _, real = _world_coords(_transport(a, _expand(p, _WORLD_STACK)))
    return coords, real & np.isfinite(coords).all(axis=-1)
