"""Position-space residual check for momentum-space Dirac solutions.

A fiber element (q, psi) induces the plane wave

    Psi(x) = exp(-i * (p0*x0 + p1*x1 + p2*x2 + p3*x3)) * psi

with the plain (unsigned) coordinate pairing in the phase; this is the sign
for which the position-space equation

    sum_r  i * gamma(r) * d/dx_r Psi  =  m * Psi

holds with the same gamma contraction used in momentum space.  The residual
is evaluated pointwise with central differences (second-order in the step)
or with the exact analytic derivative of the phase.
"""

from __future__ import annotations

import cmath

import numpy as np

from .clifford import FourSpinor, gamma
from .errors import BadStep, NumericalDrift
from .momentum import MassShellPoint

__all__ = ["plane_wave", "planewave_residual"]


def _wave(q: MassShellPoint, psi: FourSpinor, x: np.ndarray) -> np.ndarray:
    # plane_wave under its caller's np.errstate, which costs about as much
    # as the rest of the call: planewave_residual enters it once, not nine times.
    px = float(np.dot(q.p.coords, x))
    if not cmath.isfinite(px):
        raise NumericalDrift(f"plane-wave phase p.x = {px} at x = {x.tolist()} is not finite")
    return cmath.exp(-1j * px) * psi.vec


def plane_wave(q: MassShellPoint, psi: FourSpinor, x) -> np.ndarray:
    """Value at the position 4-tuple x of the plane wave carried by (q, psi);
    a phase p.x past the float range is refused, silently, as NumericalDrift."""
    with np.errstate(all="ignore"):
        return _wave(q, psi, np.asarray(x, dtype=float))


def planewave_residual(
    q: MassShellPoint,
    psi: FourSpinor,
    x,
    h: float,
    analytic: bool = False,
) -> float:
    """Norm of the position-space equation residual at x, refused, silently, as NumericalDrift if not finite.

    Central differences of step h give a residual of order h^2 times the
    cube of the momentum scale; halving h divides it by about 4.  With
    analytic=True the phase is differentiated exactly and the residual
    reduces to the momentum-space one (zero up to rounding).
    """
    if not (h > 0):
        raise BadStep(f"step must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):
        value = _wave(q, psi, x)
        acc = np.zeros(4, dtype=complex)
        for r in range(4):
            if analytic:
                deriv = -1j * q.p.coords[r] * value
            else:
                step = np.zeros(4)
                step[r] = h
                deriv = (_wave(q, psi, x + step) - _wave(q, psi, x - step)) / (2.0 * h)
            acc = acc + 1j * (gamma(r) @ deriv)
        residual = float(np.linalg.norm(acc - q.m * value))
        if not cmath.isfinite(residual):  # a subnormal step, say
            raise NumericalDrift(f"plane-wave residual {residual} at step {h} is not finite")
        return residual
