"""Seeded random generators for sweep-style verification of the identities.

Each generator is split in two: a draw, which takes raw numbers from the
generator and builds no value object, and a build from those numbers, which
works on one draw or on a stack of them.  random_sl2's rejection test also
runs on a stack of tries (_sl2_matrices), with _sl2_matrix's verdict and
matrix bit for bit, so that verify can test a speculative block of tries at
once.  random_fiber_element draws its mass, a uniform, between normals on
one stream; verify's checks draw each kind from a stream of its own.
"""

from __future__ import annotations

import cmath

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


def _sl2_matrix(rng, max_norm: float = 4.0) -> np.ndarray:
    """The matrix of random_sl2: a determinant-normalized complex Gaussian 2x2
    array with bounded Frobenius norm; near-singular draws are rejected to
    keep the bound effective."""
    while True:
        # One generator call per try: the four real parts, then the four
        # imaginary parts, stored exactly (re + 1j * im would multiply).
        g = rng.normal(0.0, 1.0, 8)
        m = np.empty((2, 2), dtype=complex)
        m.real = g[:4].reshape(2, 2)
        m.imag = g[4:].reshape(2, 2)
        d = _det2(m)
        if abs(d) < 0.25:
            continue
        m = m / cmath.sqrt(d)
        if np.linalg.norm(m) <= max_norm:
            return m


def _sl2_matrices(g, max_norm: float):
    """_sl2_matrix's test on each row of (n, 8) normals, each row one try:
    the tries divided by the root of their determinants, (n, 2, 2), and the
    verdicts, (n,), both bit for bit.  A row the determinant test rejects is
    divided by 1, so that no root of a zero determinant is taken."""
    m = np.empty((len(g), 2, 2), dtype=complex)
    m.real = g[:, :4].reshape(-1, 2, 2)
    m.imag = g[:, 4:].reshape(-1, 2, 2)
    d = _det2(m)
    # _cabs is Python's abs; cmath.sqrt per row is _sl2_matrix's root, and
    # spinor_norms its np.linalg.norm.
    regular = ~(_cabs(d) < 0.25)
    m = m / np.array(list(map(cmath.sqrt, np.where(regular, d, 1.0).tolist())), dtype=complex)[:, None, None]
    return m, regular & (spinor_norms(m.reshape(-1, 4)) <= max_norm)


def random_sl2(rng, max_norm: float = 4.0) -> SL2Element:
    """Determinant-normalized complex Gaussian matrix with bounded Frobenius
    norm; near-singular draws are rejected to keep the bound effective."""
    return SL2Element(_sl2_matrix(rng, max_norm))


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
