"""Momentum space, the duality with world vectors, and the mass shell.

Momentum coordinates are stored in the dual basis, chosen so the duality
map is the identity on coordinate tuples; the type distinction keeps
position-like and momentum-like vectors separate.  The forward mass shell
for mass m is the orbit of (m, 0, 0, 0) under the unimodular action; every
shell point has a unique positive-definite Hermitian boost representative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bitensor import from_minkowski, pi_act, q_form, to_minkowski, world_basis, MinkowskiVec
from .errors import BadMass, Degenerate, NotOnShell
from .spinor import SL2_DET_TOL, SL2Element

__all__ = [
    "Momentum",
    "MassShellPoint",
    "SHELL_TOL",
    "dualize",
    "undualize",
    "shell_point",
    "shell_momenta",
    "boost_rep",
    "boost_matrices",
    "accepted_boosts",
    "act_momentum",
]

_SQRT2 = math.sqrt(2.0)

# Relative dispersion tolerance for membership of the mass shell.
SHELL_TOL = 1e-9

_ID2 = np.eye(2)
_ID2.setflags(write=False)


@dataclass(frozen=True)
class Momentum:
    """Real momentum coordinates in the dual basis (natural units)."""

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        for name in ("p0", "p1", "p2", "p3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("momentum coordinates must be finite")
            object.__setattr__(self, name, v)

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.p0, self.p1, self.p2, self.p3])

    @classmethod
    def from_coords(cls, c) -> "Momentum":
        c = np.asarray(c, dtype=float)
        return cls(c[0], c[1], c[2], c[3])


def _require_mass(m) -> float:
    """m as a float, or BadMass unless it is finite and positive."""
    m = float(m)
    if not (math.isfinite(m) and m > 0):
        raise BadMass(f"mass must be positive, got {m}")
    return m


def _shell_bound(m: float) -> float:
    """Largest accepted dispersion defect |q_form(p) - m^2| on the shell of mass m."""
    return SHELL_TOL * max(1.0, m * m)


def _require_on_shell(q: MassShellPoint) -> None:
    """Raise NotOnShell unless q.p is on the forward shell of mass q.m (a nan
    defect is not): the constructor's check, re-run in case q was altered."""
    defect = abs(q_form(q.p) - q.m * q.m)
    if not (defect <= _shell_bound(q.m)):
        raise NotOnShell(
            f"dispersion defect {defect:.3e} exceeds tolerance for m={q.m}"
        )
    if q.p.p0 <= 0:
        raise NotOnShell(f"p0 = {q.p.p0} is not on the forward shell")


@dataclass(frozen=True)
class MassShellPoint:
    """A momentum on the forward shell of mass m: q_form(p) = m^2, p0 > 0."""

    p: Momentum
    m: float

    def __post_init__(self):
        object.__setattr__(self, "m", _require_mass(self.m))
        _require_on_shell(self)


def dualize(x: MinkowskiVec) -> Momentum:
    """World vector to momentum; the identity on coordinate tuples."""
    return Momentum(x.x0, x.x1, x.x2, x.x3)


def undualize(p: Momentum) -> MinkowskiVec:
    """Momentum to world vector; the identity on coordinate tuples."""
    return MinkowskiVec(p.p0, p.p1, p.p2, p.p3)


def shell_point(m: float, p1: float, p2: float, p3: float) -> MassShellPoint:
    """Forward-shell point with spatial momentum (p1, p2, p3) and mass m.

    The energy is fixed by the dispersion relation p0 = sqrt(m^2 + |p|^2).
    """
    m = _require_mass(m)
    p0 = math.sqrt(m * m + p1 * p1 + p2 * p2 + p3 * p3)
    return MassShellPoint(Momentum(p0, p1, p2, p3), m)


def shell_momenta(m: float, p1, p2, p3) -> np.ndarray:
    """Stacked shell_point coordinates: broadcast spatial momenta to (..., 4)
    rows (p0, p1, p2, p3), with p0 summed in the same order as shell_point.

    Rows are not validated; accepted_boosts marks the ones shell_point accepts.
    """
    p0 = np.sqrt(((m * m + p1 * p1) + p2 * p2) + p3 * p3)
    return np.stack(np.broadcast_arrays(p0, p1, p2, p3), axis=-1)


def boost_matrices(p, m: float) -> np.ndarray:
    """Canonical boosts of stacked momenta, the kernel under boost_rep.

    Maps (..., 4) coordinates to the (..., 2, 2) matrices (H + Id) / sqrt(tr H + 2),
    where H = sqrt(2) * (p0 u0 + p1 u1 + p2 u2 + p3 u3) / m is summed in the
    order from_minkowski uses, so every row equals the scalar result bit for
    bit.  Rows are not validated.  For p0 > 0 the diagonal of H holds the
    rounded images of p0 + p3 and p0 - p3, so by monotone rounding tr H >= 0
    (or nan on overflow): the square root never degenerates.
    """
    x = np.asarray(p, dtype=float)
    if x.ndim > 1:
        x = np.moveaxis(x, -1, 0)[..., None, None]
    u = world_basis()
    H = _SQRT2 * (x[0] * u[0].t + x[1] * u[1].t + x[2] * u[2].t + x[3] * u[3].t) / m
    tr = (H[..., 0, 0] + H[..., 1, 1]).real
    return (H + _ID2) / np.sqrt(tr + 2.0)[..., None, None]


def accepted_boosts(p: np.ndarray, m: float, A: np.ndarray) -> np.ndarray:
    """Mask of the rows of shell_momenta / boost_matrices output on which
    shell_point and boost_rep succeed.

    Repeats their checks (finite momentum, forward shell, finite unimodular
    result) on whole arrays, so that a rejected row can be handed to the
    scalar path for its typed error.  The shell and determinant defects are
    evaluated as the scalar checks evaluate them on numpy scalars: squares by
    pow, and complex products in real arithmetic without fused multiply-adds,
    which numpy's array loops may use.
    """
    if not (math.isfinite(m) and m > 0):
        return np.zeros(p.shape[:-1], dtype=bool)
    sq = np.float_power(p, 2)
    shell = np.abs((((sq[..., 0] - sq[..., 1]) - sq[..., 2]) - sq[..., 3]) - m * m)
    a, b, c, d = A[..., 0, 0], A[..., 1, 1], A[..., 0, 1], A[..., 1, 0]
    det_re = (a.real * b.real - a.imag * b.imag) - (c.real * d.real - c.imag * d.imag)
    det_im = (a.real * b.imag + a.imag * b.real) - (c.real * d.imag + c.imag * d.real)
    return (
        np.isfinite(p).all(axis=-1)
        & (shell <= _shell_bound(m))
        & (p[..., 0] > 0)
        & np.isfinite(A).all(axis=(-2, -1))
        & (np.hypot(det_re - 1.0, det_im) <= SL2_DET_TOL)
    )


def boost_rep(q: MassShellPoint) -> SL2Element:
    """Canonical boost: the unique positive Hermitian unimodular matrix
    carrying the rest momentum (m, 0, 0, 0) to q.p.

    With H the Hermitian world matrix of q.p divided by m (so det H = 1 and
    H is positive definite on the forward shell), the principal square root
    has the closed form (H + Id) / sqrt(tr H + 2); the result A satisfies
    A @ A = H exactly by the 2x2 Cayley-Hamilton identity.

    Raises Degenerate when the closed form overflows, which happens on the
    shell for p/m beyond the double range (e.g. m = 1e-300, |p| = 1e10).
    """
    _require_on_shell(q)
    with np.errstate(all="ignore"):
        a = boost_matrices(q.p.coords, q.m)
    if not np.isfinite(a).all():
        raise Degenerate(f"canonical boost of p = {q.p.coords.tolist()} at m = {q.m} overflows")
    return SL2Element(a)


def act_momentum(A: SL2Element, q: Momentum) -> Momentum:
    """Unimodular action on momenta, through the bitensor representation.

    Preserves the quadratic form, and preserves the forward cone p0 > 0.
    """
    return dualize(to_minkowski(pi_act(A, from_minkowski(undualize(q)))))
