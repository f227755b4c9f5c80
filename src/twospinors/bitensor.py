"""Bitensors, the reality involution, Minkowski space, and the Lorentz covering.

A bitensor is an element of S tensor S-conjugate, stored as the 2x2 complex
matrix of coefficients over the dyadic basis tensors.  The fixed points of
the conjugate-transpose involution are the Hermitian matrices; they form the
real 4-dimensional subspace carrying the Lorentz quadratic form, spanned by
the world basis u0..u3 (rescaled Pauli-type matrices).  Conjugation of a
2x2 unimodular matrix A on both tensor slots acts as T -> A T A*, which
covers the proper orthochronous Lorentz group two-to-one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NotReal, NumericalDrift
from .spinor import CoSpinor2, SL2Element, Spinor2, _det2, conjugate, spinor_norms

__all__ = [
    "BiTensor",
    "MinkowskiVec",
    "LorentzMatrix",
    "ETA",
    "lorentz_defect",
    "elementary",
    "involution_J",
    "reality_defect",
    "project_real",
    "world_basis",
    "to_minkowski",
    "from_minkowski",
    "h_form",
    "q_form",
    "pi_act",
    "lorentz_of",
]

_SQRT2 = math.sqrt(2.0)

# Minkowski metric in the world basis, signature (+,-,-,-).
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)

REALITY_TOL = 1e-10
LORENTZ_TOL = 1e-10
DRIFT_TOL = 1e-8


class BiTensor:
    """Coefficient matrix t, with t[i, j] multiplying the basis tensor (i, j)."""

    __slots__ = ("t",)

    def __init__(self, t):
        m = np.array(t, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 coefficient matrix, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("bitensor entries must be finite")
        m.setflags(write=False)
        self.t = m

    def __add__(self, other: "BiTensor") -> "BiTensor":
        return BiTensor(self.t + other.t)

    def __sub__(self, other: "BiTensor") -> "BiTensor":
        return BiTensor(self.t - other.t)

    def __mul__(self, scalar) -> "BiTensor":
        return BiTensor(self.t * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "BiTensor":
        return BiTensor(-self.t)

    def __repr__(self) -> str:
        return f"BiTensor({self.t.tolist()!r})"


@dataclass(frozen=True)
class MinkowskiVec:
    """Real coordinates in the world basis; x0 is the timelike component."""

    x0: float
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        for name in ("x0", "x1", "x2", "x3"):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError("coordinates must be finite")
            object.__setattr__(self, name, v)

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.x0, self.x1, self.x2, self.x3])

    @classmethod
    def from_coords(cls, c) -> "MinkowskiVec":
        c = np.asarray(c, dtype=float)
        return cls(c[0], c[1], c[2], c[3])


def lorentz_defect(m: np.ndarray) -> float:
    """Metric-orthogonality defect max|m^T eta m - eta| of a 4x4 matrix;
    zero exactly for Lorentz matrices."""
    return float(np.max(np.abs(m.T @ ETA @ m - ETA)))


class LorentzMatrix:
    """Proper orthochronous Lorentz matrix; invariants checked at construction."""

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        defect = lorentz_defect(m)
        if defect > LORENTZ_TOL:
            raise ValueError(f"metric-orthogonality defect {defect:.3e} exceeds {LORENTZ_TOL}")
        det = np.linalg.det(m)
        if abs(det - 1.0) > LORENTZ_TOL:
            raise ValueError(f"determinant {det} is not 1 to within {LORENTZ_TOL}")
        if m[0, 0] < 1.0 - LORENTZ_TOL:
            raise ValueError(f"time-time entry {m[0, 0]} violates orthochronicity")
        m.setflags(write=False)
        self.mat = m

    def __matmul__(self, other: "LorentzMatrix") -> "LorentzMatrix":
        return LorentzMatrix(self.mat @ other.mat)

    def apply(self, x: MinkowskiVec) -> MinkowskiVec:
        return MinkowskiVec.from_coords(self.mat @ x.coords)

    def __repr__(self) -> str:
        return f"LorentzMatrix({self.mat.tolist()!r})"


def elementary(x: Spinor2, ybar: CoSpinor2) -> BiTensor:
    """Dyadic tensor of a spinor and a conjugate spinor.

    The coefficient matrix is the outer product of the stored tuples, which
    realizes the balancing rule: scaling x by a equals scaling ybar by
    conj(a) before conjugate storage.
    """
    return BiTensor(np.outer(x.vec, ybar.vec))


def involution_J(T: BiTensor) -> BiTensor:
    """Reality involution: swap tensor slots, i.e. conjugate-transpose."""
    return BiTensor(T.t.conj().T)


def _reality_defects(t: np.ndarray) -> np.ndarray:
    """Frobenius distances of stacked (..., 2, 2) matrices from their
    conjugate transposes, each equal to np.linalg.norm of one row's T - T*."""
    d = t - np.conj(np.swapaxes(t, -1, -2))
    return spinor_norms(d.reshape(d.shape[:-2] + (4,)))


def reality_defect(T: BiTensor) -> float:
    """Frobenius distance of T from its involution image (0 iff Hermitian)."""
    return float(_reality_defects(T.t))


def project_real(T: BiTensor) -> BiTensor:
    """Average with the involution image: the Hermitian part of T."""
    return BiTensor((T.t + T.t.conj().T) / 2.0)


@lru_cache(maxsize=1)
def world_basis() -> tuple[BiTensor, BiTensor, BiTensor, BiTensor]:
    """Orthogonal basis u0..u3 of the Hermitian subspace, each of unit |form|.

    Built from the dyadic tensors; every sum is divided by sqrt(2), which is
    the normalization that makes the induced quadratic form take the values
    (+1, -1, -1, -1) on (u0, u1, u2, u3).
    """
    e = (Spinor2(1, 0), Spinor2(0, 1))

    def dyad(i, j):
        return elementary(e[i], conjugate(e[j]))

    u0 = (dyad(0, 0) + dyad(1, 1)) * (1.0 / _SQRT2)
    u1 = (dyad(0, 1) + dyad(1, 0)) * (1.0 / _SQRT2)
    u2 = (dyad(0, 1) - dyad(1, 0)) * (1j / _SQRT2)
    u3 = (dyad(0, 0) - dyad(1, 1)) * (1.0 / _SQRT2)
    return (u0, u1, u2, u3)


def from_minkowski(x: MinkowskiVec) -> BiTensor:
    """Expand world coordinates in the world basis.

    Closed form: (1/sqrt(2)) * [[x0+x3, x1+i*x2], [x1-i*x2, x0-x3]].
    """
    u = world_basis()
    return BiTensor(x.x0 * u[0].t + x.x1 * u[1].t + x.x2 * u[2].t + x.x3 * u[3].t)


@lru_cache(maxsize=1)
def _world_stack() -> np.ndarray:
    """The world basis u0..u3 as one read-only (4, 2, 2) array."""
    u = np.stack([uj.t for uj in world_basis()])
    u.setflags(write=False)
    return u


def _transport(a: np.ndarray, t) -> np.ndarray:
    """The move T -> a T a* of stacked (..., 2, 2) bitensor matrices by one
    2x2 matrix a; the kernel under pi_act and lorentz_of.

    Multiplies left to right, as A @ T @ A* does, so each row equals the
    unstacked product bit for bit.  Overflow gives non-finite rows without a
    warning; every caller checks its rows.
    """
    with np.errstate(all="ignore"):
        return (a @ t) @ a.conj().T


def _world_coords(t) -> tuple[np.ndarray, np.ndarray]:
    """World coordinates (..., 4) and reality defects (...) of stacked
    (..., 2, 2) bitensor matrices; the kernel under to_minkowski.

    Coordinate i is tr(u_i T), which recovers the coefficient of u_i because
    the u_i are trace-orthonormal: tr(u_i u_j) = delta_ij.  The stacked
    np.trace sums each diagonal as the unstacked one does (signed zeros
    included), so every row equals the scalar result bit for bit.  A row with
    a non-finite entry gets a non-finite defect.
    Overflow gives non-finite values without a warning.
    """
    t = np.asarray(t, dtype=complex)
    with np.errstate(all="ignore"):
        coords = np.trace(_world_stack() @ t[..., None, :, :], axis1=-2, axis2=-1).real
        return coords, _reality_defects(t)


def to_minkowski(T: BiTensor) -> MinkowskiVec:
    """Coordinates of a Hermitian bitensor in the world basis.

    Raises NotReal rather than silently projecting when T fails the
    Hermitian check: a non-real input signals an upstream bug.
    """
    coords, defect = _world_coords(T.t)
    if defect > REALITY_TOL:
        raise NotReal(f"reality defect {defect:.3e} exceeds {REALITY_TOL}")
    return MinkowskiVec(*coords)


def h_form(X: BiTensor, Y: BiTensor) -> complex:
    """Symmetric bilinear form on bitensors, by determinant polarization.

    On dyadic tensors this equals eps(a, c) * eps_bar(bbar, dbar); the
    polarization det(X+Y) - det(X) - det(Y) is its bilinear extension,
    exact to rounding and O(1) per evaluation.
    """
    return _det2(X.t + Y.t) - _det2(X.t) - _det2(Y.t)


def q_form(v) -> float:
    """Lorentz quadratic form x0^2 - x1^2 - x2^2 - x3^2 of a coordinate vector.

    Accepts anything with a .coords attribute (world or momentum vectors) or
    a plain length-4 sequence.
    """
    c = v.coords if hasattr(v, "coords") else np.asarray(v, dtype=float)
    return float(c[0] ** 2 - c[1] ** 2 - c[2] ** 2 - c[3] ** 2)


def pi_act(A: SL2Element, T: BiTensor) -> BiTensor:
    """Representation on bitensors: T -> A T A*.

    Commutes with the reality involution and preserves the bilinear form,
    hence restricts to a Lorentz transformation of the Hermitian subspace.
    """
    return BiTensor(_transport(A.mat, T.t))


def lorentz_of(A: SL2Element) -> LorentzMatrix:
    """The 4x4 Lorentz matrix covered by A, column-by-column on the world basis.

    Raises NumericalDrift when the result fails the metric-orthogonality
    check at the drift tolerance; this signals a badly conditioned A (e.g.
    an extreme boost) rather than a logic error.

    All four columns come from one stacked transport of the world basis.  If
    any column fails the checks of pi_act and to_minkowski, the columns are
    redone one by one through those functions, which raise the first
    column's error.
    """
    cols, defects = _world_coords(_transport(A.mat, _world_stack()))
    # A non-finite entry fails the defect test, so this passes only rows
    # that pi_act and to_minkowski would accept.
    if (defects <= REALITY_TOL).all() and np.isfinite(cols).all():
        # C order, as column_stack gives, for the same products in lorentz_defect.
        m = np.ascontiguousarray(cols.T)
    else:
        try:
            m = np.column_stack([to_minkowski(pi_act(A, uj)).coords for uj in world_basis()])
        except NotReal as exc:
            raise NumericalDrift(f"transport of the world basis drifted: {exc}") from exc
    defect = lorentz_defect(m)
    if defect > DRIFT_TOL:
        raise NumericalDrift(
            f"metric-orthogonality defect {defect:.3e} exceeds {DRIFT_TOL}"
        )
    return LorentzMatrix(m)
