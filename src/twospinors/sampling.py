"""Seeded random generators for sweep-style verification of the identities.

Each generator is split in two: a draw, which takes raw numbers from the
generator and builds no value object, and a build from those numbers, which
works on one draw or on a stack of them.  Every draw takes a fixed count of
numbers: random_sl2 takes one try of eight normals, and a try that fails its
tests is replaced, not drawn again, so that a stack of n draws
(_sl2_matrices) is n fixed-width rows, each bit for bit random_sl2's matrix.
random_fiber_element draws its mass, a uniform, between normals on one
stream; verify's checks draw each kind from a stream of its own.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .bundle import _REST, FiberElement
from .clifford import FourSpinor, _tau_act
from .momentum import boost_rep, shell_point
from .spinor import SL2Element, _cabs, _cmul, _det2, spinor_norms

__all__ = [
    "random_sl2",
    "random_su2",
    "random_fiber_element",
]


# The least max_norm: the least float at or above every norm spinor_norms
# can give a replaced try, _su2_matrices of four normals, whose exact norm is
# sqrt(2).  With u = 2**-53 and gamma_k = k u / (1 - k u) (Higham, Accuracy
# and Stability of Numerical Algorithms, 2nd ed., ch. 3), the normalization's
# 4-term dot, root and division make each squared part at most
# (1 + u)**2 / ((1 - gamma_4) (1 - u)**2) times its exact value, the norm's
# sum of the eight squared parts, in any order, adds a factor 1 + gamma_8,
# and its root (1 + u)**2 on the square.  With U = 2**53 the squared norm is
# at most 2 (U+1)**4 (U-4) / (U (U-8)**2 (U-1)**2), so the floor is M 2**-52
# for the least integer M with M**2 >= that bound times 2**104, in integers,
# exactly: sqrt(2) plus 6 ulp.
_U = 2**53
_M2 = -(-(2 * (_U + 1) ** 4 * (_U - 4) << 104) // (_U * (_U - 8) ** 2 * (_U - 1) ** 2))
_NORM_FLOOR = math.ldexp(math.isqrt(_M2 - 1) + 1, -52)


def _sl2_matrices(g, max_norm: float = 4.0) -> np.ndarray:
    """random_sl2's matrix of each row of (n, 8) normals, one try per row:
    (n, 2, 2).  A try is divided by the root of its determinant; one with
    |det| < 0.25, or whose divided matrix has Frobenius norm above max_norm,
    is replaced by _su2_matrices of its first four normals (norm sqrt(2) up
    to rounding; nan for four zeros, which no Gaussian draw gives).  A
    max_norm below _NORM_FLOOR, which every replacement's norm keeps, is
    refused."""
    if not max_norm >= _NORM_FLOOR:
        raise ValueError(f"max_norm must be at least {_NORM_FLOOR!r}: sqrt(2), the least Frobenius norm of an "
                         f"SL2(C) matrix, plus the rounding of a replaced try's norm; got {max_norm!r}")
    # The four real parts, then the four imaginary parts, stored exactly
    # (re + 1j * im would multiply).
    m = np.empty((len(g), 2, 2), dtype=complex)
    m.real = g[:, :4].reshape(-1, 2, 2)
    m.imag = g[:, 4:].reshape(-1, 2, 2)
    d = _det2(m)
    # _cabs is Python's abs and cmath.sqrt is taken per row, as on one try.
    # A near-singular try is divided by 1, so that no root of a zero
    # determinant is taken.
    regular = ~(_cabs(d) < 0.25)
    m = m / np.array(list(map(cmath.sqrt, np.where(regular, d, 1.0).tolist())), dtype=complex)[:, None, None]
    replaced = ~(regular & (spinor_norms(m.reshape(-1, 4)) <= max_norm))
    if replaced.any():
        m[replaced] = _su2_matrices(g[replaced, :4])
    return m


def random_sl2(rng, max_norm: float = 4.0) -> SL2Element:
    """Determinant-normalized complex Gaussian matrix of Frobenius norm at
    most max_norm, from one try of eight normals (see _sl2_matrices)."""
    return SL2Element(_sl2_matrices(rng.normal(0.0, 1.0, (1, 8)), max_norm)[0])


def _su2_matrices(v) -> np.ndarray:
    """The unitary unimodular matrices [[a, -conj(b)], [b, conj(a)]] of (..., 4)
    Gaussian draws v, normalized to unit quaternions a = v0 + i v1,
    b = v2 + i v3: (..., 2, 2), each row as one draw gives it."""
    # np.vecdot is the dot kernel of np.linalg.norm (see spinor.spinor_norms),
    # here on a fresh copy, whose rows are contiguous and 16-byte aligned as
    # one draw's are: an SSE ddot (OpenBLAS's Prescott core) sums a vector
    # that is not 16-byte aligned in another order.
    v = np.array(v, dtype=float)
    u = v / np.sqrt(np.vecdot(v, v))[..., None]
    # Real and imaginary parts of a, -conj(b), b, conj(a), stored exactly.
    out = np.empty(u.shape[:-1] + (2, 2), dtype=complex)
    out.real = (u[..., [0, 2, 2, 0]] * [1.0, -1.0, 1.0, 1.0]).reshape(out.shape)
    out.imag = (u[..., [1, 3, 3, 1]] * [1.0, 1.0, 1.0, -1.0]).reshape(out.shape)
    return out


def random_su2(rng) -> SL2Element:
    """Haar-uniform unitary unimodular matrix via a unit quaternion."""
    return SL2Element(_su2_matrices(rng.normal(0.0, 1.0, 4)))


def _complexes(g) -> np.ndarray:
    """Consecutive pairs of draws (re, im) as complex numbers, exactly."""
    return np.ascontiguousarray(g, dtype=float).view(complex)


def _rest_spinors(z) -> np.ndarray:
    """Vectors of the rest eigenspace from (..., 4) Gaussian draws z: the
    complex coefficients z0 + i z1 and z2 + i z3 on the rest fiber basis,
    multiplied and summed as Python's complex arithmetic does: (..., 4)."""
    c = _complexes(z)[..., None]
    return _cmul(_REST[0], c[..., 0, :]) + _cmul(_REST[1], c[..., 1, :])


def random_fiber_element(rng) -> FiberElement:
    """Random bundle element: a random point of the fiber over a random
    shell point, reached through a generic (boost times unitary) action on
    a random rest eigenvector.  The draws, in order: a mass uniform in
    [0.5, 2], a spatial momentum Gaussian of width 2m, then the four
    Gaussians of a unitary (_su2_matrices) and the four of a rest
    eigenvector (_rest_spinors)."""
    m = float(rng.uniform(0.5, 2.0))
    p = rng.normal(0.0, 2.0 * m, 3)
    g = rng.normal(0.0, 1.0, 8)
    q = shell_point(m, *p.tolist())
    A = boost_rep(q) @ SL2Element(_su2_matrices(g[:4]))
    psi = FourSpinor.from_vec(_tau_act(A.mat, _rest_spinors(g[4:])))
    return FiberElement(q, psi)
