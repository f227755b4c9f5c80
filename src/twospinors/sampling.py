"""Seeded random generators for sweep-style verification of the identities."""

from __future__ import annotations

import cmath

import numpy as np

from .bitensor import BiTensor
from .bundle import FiberElement, rest_fiber_basis
from .clifford import FourSpinor, tau
from .momentum import MassShellPoint, boost_rep, shell_point
from .spinor import SL2Element, Spinor2, _det2

__all__ = [
    "random_spinor",
    "random_bitensor",
    "random_sl2",
    "random_su2",
    "random_shell_point",
    "random_rest_spinor",
    "random_fiber_element",
]


def _complex(rng) -> complex:
    return complex(rng.normal(0.0, 1.0), rng.normal(0.0, 1.0))


def random_spinor(rng) -> Spinor2:
    return Spinor2(_complex(rng), _complex(rng))


def random_bitensor(rng) -> BiTensor:
    return BiTensor(rng.normal(0.0, 1.0, (2, 2)) + 1j * rng.normal(0.0, 1.0, (2, 2)))


def random_sl2(rng, max_norm: float = 4.0) -> SL2Element:
    """Determinant-normalized complex Gaussian matrix with bounded Frobenius
    norm; near-singular draws are rejected to keep the bound effective."""
    while True:
        m = rng.normal(0.0, 1.0, (2, 2)) + 1j * rng.normal(0.0, 1.0, (2, 2))
        d = _det2(m)
        if abs(d) < 0.25:
            continue
        m = m / cmath.sqrt(d)
        if np.linalg.norm(m) <= max_norm:
            return SL2Element(m)


def random_su2(rng) -> SL2Element:
    """Haar-uniform unitary unimodular matrix via a unit quaternion."""
    v = rng.normal(0.0, 1.0, 4)
    v = v / np.linalg.norm(v)
    a = complex(v[0], v[1])
    b = complex(v[2], v[3])
    return SL2Element([[a, -b.conjugate()], [b, a.conjugate()]])


def random_shell_point(rng) -> MassShellPoint:
    """Forward-shell point of mass uniform in [0.5, 2], spatial momentum Gaussian of width 2m."""
    m = float(rng.uniform(0.5, 2.0))
    sigma = 2.0 * m
    return shell_point(m, rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma))


def random_rest_spinor(rng) -> FourSpinor:
    """Random vector of the rest eigenspace: complex Gaussian coefficients on
    the rest fiber basis."""
    v1, v2 = rest_fiber_basis()
    return _complex(rng) * v1 + _complex(rng) * v2


def random_fiber_element(rng) -> FiberElement:
    """Random bundle element: a random point of the fiber over a random
    shell point, reached through a generic (boost times unitary) action on
    a random rest eigenvector."""
    q = random_shell_point(rng)
    A = boost_rep(q) @ random_su2(rng)
    psi = FourSpinor.from_vec(tau(A) @ random_rest_spinor(rng).vec)
    return FiberElement(q, psi)
