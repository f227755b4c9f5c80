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

import numpy as np

from .errors import NotReal, NumericalDrift
from .spinor import CoSpinor2, SL2Element, Spinor2, _det2, _Frozen, _sealed, conjugate, spinor_norms

__all__ = [
    "BiTensor",
    "Momentum",
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
ETA = _sealed(np.diag([1.0, -1.0, -1.0, -1.0]))

REALITY_TOL = 1e-10
LORENTZ_TOL = 1e-10


class BiTensor(_Frozen):
    """Coefficient matrix t, with t[i, j] multiplying the basis tensor (i, j)."""

    __slots__ = ("t",)

    def __init__(self, t):
        self._bind("t", t, complex, (2, 2), "a 2x2 coefficient matrix", "bitensor entries")

    def __reduce__(self):
        return (BiTensor, (self.t.tolist(),))

    # Arithmetic that overflows is refused, silently, by the constructor.
    def __add__(self, other: "BiTensor") -> "BiTensor":
        with np.errstate(all="ignore"):
            return BiTensor(self.t + other.t)

    def __sub__(self, other: "BiTensor") -> "BiTensor":
        with np.errstate(all="ignore"):
            return BiTensor(self.t - other.t)

    def __mul__(self, scalar) -> "BiTensor":
        with np.errstate(all="ignore"):
            return BiTensor(self.t * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "BiTensor":
        return BiTensor(-self.t)


class Momentum(_Frozen):
    """Real four-vector coordinates, p0 timelike, stored once and read-only: a
    world vector in the world basis, or a momentum in the dual basis, which
    makes the duality the identity on coordinates (the pairing of the
    plane-wave phase).  Equality is exact and the hash agrees with it."""

    __slots__ = ("coords",)

    def __init__(self, p0, p1, p2, p3):
        self._bind("coords", (p0, p1, p2, p3), float, (4,), "4 coordinates", "momentum coordinates")

    def __reduce__(self):
        return (Momentum, tuple(self.coords.tolist()))

    @classmethod
    def from_coords(cls, c) -> "Momentum":
        """The four-vector with coordinates c (copied), by the same checks."""
        return cls(*_coords(c))

    @property
    def p0(self) -> float:
        return float(self.coords[0])

    def __eq__(self, other):
        return type(other) is type(self) and self.coords.tolist() == other.coords.tolist()

    def __hash__(self) -> int:
        return hash(tuple(self.coords.tolist()))


# World vectors and momenta share one type (see Momentum).
MinkowskiVec = Momentum


def lorentz_defect(m: np.ndarray):
    """Metric-orthogonality defect max|m^T eta m - eta| of a 4x4 matrix (a
    float) or of each matrix of a (..., 4, 4) stack (an array, each row equal
    to the one-matrix defect bit for bit); zero exactly for Lorentz matrices,
    inf or nan (without a warning) on overflow: _lorentz_test's defect."""
    return _lorentz_test(m)[0]


class LorentzMatrix(_Frozen):
    """Proper orthochronous Lorentz matrix; invariants checked at construction.

    The metric, determinant and orthochronicity checks are the only ones on
    the covering map's output; each refusal is a NumericalDrift.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        self._bind("mat", mat, float, (4, 4), "a 4x4 matrix", "matrix entries")
        defect, det, (metric, unit, forward) = _lorentz_test(self.mat)
        if not metric:
            raise NumericalDrift(f"metric-orthogonality defect {defect:.3e} exceeds {LORENTZ_TOL}")
        if not unit:
            raise NumericalDrift(f"determinant {det} is not 1 to within {LORENTZ_TOL}")
        if not forward:
            raise NumericalDrift(f"time-time entry {self.mat[0, 0]} violates orthochronicity")

    def __reduce__(self):
        return (LorentzMatrix, (self.mat.tolist(),))


def _lorentz_test(m: np.ndarray):
    """LorentzMatrix's test of one 4x4 matrix or a (..., 4, 4) stack: the
    metric defect (a float for one) and the determinant, and the verdicts
    (metric, det = 1, L00 >= 1), each within LORENTZ_TOL; nan fails each, as a
    non-finite entry fails metric, silently.  A stack's mask is these verdicts."""
    with np.errstate(all="ignore"):
        d = np.abs(m.swapaxes(-1, -2) @ ETA @ m - ETA)
        det = np.linalg.det(m)
    defect = float(np.max(d)) if m.ndim == 2 else np.max(d, axis=(-2, -1))
    # One matrix's L00 a numpy float: cheaper to compare than a 0-d array.
    l00 = m[0, 0] if m.ndim == 2 else m[..., 0, 0]
    return defect, det, (defect <= LORENTZ_TOL, abs(det - 1.0) <= LORENTZ_TOL, l00 >= 1.0 - LORENTZ_TOL)


def elementary(x: Spinor2, ybar: CoSpinor2) -> BiTensor:
    """Dyadic tensor of a spinor and a conjugate spinor.

    The coefficient matrix is the outer product of the stored tuples, which
    realizes the balancing rule: scaling x by a equals scaling ybar by
    conj(a) before conjugate storage.
    """
    with np.errstate(all="ignore"):  # an overflow is refused by BiTensor
        return BiTensor(_dyads(x.vec, ybar.vec))


def _dyads(x, ybar) -> np.ndarray:
    """Outer products of (..., 2) coefficient rows, broadcast, each equal to
    np.outer of its row pair bit for bit: the kernel under elementary."""
    return x[..., :, None] * ybar[..., None, :]


def involution_J(T: BiTensor) -> BiTensor:
    """Reality involution: swap tensor slots, i.e. conjugate-transpose."""
    return BiTensor(_involution(T.t))


def _involution(t) -> np.ndarray:
    """Conjugate transposes of stacked (..., 2, 2) matrices, in C order as a
    BiTensor stores them: the kernel under involution_J and _world_coords."""
    return np.ascontiguousarray(np.conj(t).swapaxes(-1, -2))


def reality_defect(T: BiTensor) -> float:
    """Frobenius distance of T from its involution image (0 iff Hermitian;
    inf, without a warning, when T - T* overflows): _world_coords' defect."""
    return float(_world_coords(T.t)[1])


def project_real(T: BiTensor) -> BiTensor:
    """Average with the involution image: the Hermitian part of T."""
    with np.errstate(all="ignore"):  # an overflow is refused by BiTensor
        return BiTensor((T.t + _involution(T.t)) / 2.0)


def _dyad(i: int, j: int) -> BiTensor:
    e = (Spinor2(1, 0), Spinor2(0, 1))
    return elementary(e[i], conjugate(e[j]))


# The world basis (see world_basis), built once at import, and the same four
# matrices as one (4, 2, 2) array.
_WORLD_BASIS = (
    (_dyad(0, 0) + _dyad(1, 1)) * (1.0 / _SQRT2),
    (_dyad(0, 1) + _dyad(1, 0)) * (1.0 / _SQRT2),
    (_dyad(0, 1) - _dyad(1, 0)) * (1j / _SQRT2),
    (_dyad(0, 0) - _dyad(1, 1)) * (1.0 / _SQRT2),
)
_WORLD_STACK = _sealed(np.stack([u.t for u in _WORLD_BASIS]))
# Its one nonzero magnitude, 1/sqrt(2) as stored: the factor of _world_coords.
_R = float(_WORLD_STACK[0, 0, 0].real)


def world_basis() -> tuple[BiTensor, BiTensor, BiTensor, BiTensor]:
    """Orthogonal basis u0..u3 of the Hermitian subspace, each of unit |form|.

    Built from the dyadic tensors; every sum is divided by sqrt(2), which is
    the normalization that makes the induced quadratic form take the values
    (+1, -1, -1, -1) on (u0, u1, u2, u3).
    """
    return _WORLD_BASIS


def _expand(c, basis) -> np.ndarray:
    """c0 b0 + c1 b1 + c2 b2 + c3 b3 over four basis matrices, for coordinates
    as _coords gives them (one vector or a (..., 4) stack); the kernel under
    from_minkowski, boost_matrices and slash.  Summed left to right, so every
    stacked row equals the expansion of its own coordinates bit for bit."""
    # One vector's coordinates as Python floats: the same products as numpy
    # scalars give, at a lower cost per call.
    c = np.moveaxis(c, -1, 0)[..., None, None] if c.ndim > 1 else c.tolist()
    return c[0] * basis[0] + c[1] * basis[1] + c[2] * basis[2] + c[3] * basis[3]


def from_minkowski(x: MinkowskiVec) -> BiTensor:
    """Expand world coordinates in the world basis.

    Closed form: (1/sqrt(2)) * [[p0+p3, p1+i*p2], [p1-i*p2, p0-p3]].
    Coordinates whose expansion overflows are refused by BiTensor.
    """
    with np.errstate(all="ignore"):
        return BiTensor(_expand(x.coords, _WORLD_STACK))


def _transport(a: np.ndarray, t) -> np.ndarray:
    """The move T -> a T a* of stacked (..., 2, 2) bitensor matrices by one
    2x2 matrix a or by a stack of them, broadcast; the kernel under pi_act and
    lorentz_of.

    Multiplies left to right, as A @ T @ A* does, so each row equals the
    unstacked product bit for bit.  Overflow gives non-finite rows without a
    warning; every caller checks its rows.
    """
    with np.errstate(all="ignore"):
        return (a @ t) @ a.conj().swapaxes(-1, -2)


def _world_coords(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World coordinates (..., 4) and reality defects (...) of stacked
    (..., 2, 2) bitensor matrices, and whether each defect is within
    REALITY_TOL: the reality test, and the kernel under to_minkowski.

    Coordinate i is Re tr(u_i T), the coefficient of u_i (tr(u_i u_j) =
    delta_ij), in real arithmetic with r = 1/sqrt(2) as the u_i store it:
    (0.0 + r t00) + r t11, (0.0 + r t10) + r t01, (0.0 - r t10.im) + r t01.im
    and (0.0 + r t00) - r t11, real parts unless marked.  That is the trace
    bit for bit, its other terms being exact zeros; the 0.0 starts the sum as
    the trace does, so that a zero coordinate is +0.0.  A non-finite entry
    fails real by its defect, and the row's coordinates are unspecified (every
    caller refuses it).  Overflow is silent."""
    t = np.asarray(t, dtype=complex)
    with np.errstate(all="ignore"):
        a, b = _R * t[..., 0, 0].real, _R * t[..., 1, 1].real
        coords = np.empty(t.shape[:-2] + (4,))
        coords[..., 0], coords[..., 3] = (0.0 + a) + b, (0.0 + a) - b
        coords[..., 1] = (0.0 + _R * t[..., 1, 0].real) + _R * t[..., 0, 1].real
        coords[..., 2] = (0.0 - _R * t[..., 1, 0].imag) + _R * t[..., 0, 1].imag
        # Each defect is np.linalg.norm of one row's T - T*.
        d = t - _involution(t)
        defects = spinor_norms(d.reshape(d.shape[:-2] + (4,)))
    return coords, defects, defects <= REALITY_TOL


def to_minkowski(T: BiTensor) -> MinkowskiVec:
    """Coordinates of a Hermitian bitensor in the world basis.

    Raises NotReal rather than silently projecting when T fails the
    Hermitian check: a non-real input signals an upstream bug.
    """
    coords, defect, real = _world_coords(T.t)
    if not real:
        raise NotReal(f"reality defect {defect:.3e} exceeds {REALITY_TOL}")
    return MinkowskiVec.from_coords(coords)


def h_form(X: BiTensor, Y: BiTensor) -> complex:
    """Symmetric bilinear form on bitensors, by determinant polarization.

    On dyadic tensors this equals eps(a, c) * eps_bar(bbar, dbar); the
    polarization det(X+Y) - det(X) - det(Y) is its bilinear extension,
    exact to rounding and O(1) per evaluation.
    """
    return _polar(X.t, Y.t)


def _polar(x, y):
    """det(x+y) - det(x) - det(y) of two 2x2 coefficient matrices (a Python
    complex) or of each pair of matrices of two (..., 2, 2) stacks, equal to
    it bit for bit (_det2): the kernel under h_form."""
    with np.errstate(all="ignore"):  # an overflowing entry sum gives a nan, silently
        s = x + y
    return _det2(s) - _det2(x) - _det2(y)


def _coords(p) -> np.ndarray:
    """The coordinates of a Momentum, a length-4 sequence or stacked (..., 4)
    coordinates, as a float array: the one four-vector accessor."""
    c = p.coords if isinstance(p, Momentum) else np.asarray(p, dtype=float)
    if c.shape[-1:] != (4,):
        raise ValueError(f"expected 4 coordinates, got shape {c.shape}")
    return c


def q_form(v):
    """Lorentz quadratic form p0^2 - p1^2 - p2^2 - p3^2 of a four-vector (a float)
    or of stacked (..., 4) coordinates (an array); inf or nan, silently, past the float range."""
    with np.errstate(all="ignore"):
        return _q_form(v)


def _q_form(v):
    """q_form inside its caller's np.errstate (_shell_test), the one shell-defect
    formula: squares by pow summed left to right, so a stacked row equals one vector's."""
    sq = np.float_power(_coords(v), 2)
    # One vector's squares as Python floats, as in _expand.
    c0, c1, c2, c3 = np.moveaxis(sq, -1, 0) if sq.ndim > 1 else sq.tolist()
    return ((c0 - c1) - c2) - c3


def pi_act(A: SL2Element, T: BiTensor) -> BiTensor:
    """Representation on bitensors: T -> A T A*.

    Commutes with the reality involution and preserves the bilinear form,
    hence restricts to a Lorentz transformation of the Hermitian subspace.
    """
    return BiTensor(_transport(A.mat, T.t))


def _covering(a: np.ndarray):
    """The (..., 4, 4) matrices covered by one 2x2 matrix a or a stack of them,
    column j the world coordinates of a u_j a*, from one stacked transport of
    the world basis; with the (..., 4) mask of the columns that are finite
    real vectors and their reality defects.  The kernel under lorentz_of."""
    cols, defects, real = _world_coords(_transport(a[..., None, :, :], _WORLD_STACK))
    # A non-finite entry fails real, but a finite Hermitian transport can
    # still overflow a coordinate (diag(1.7e308, 1.7e308) has u0's inf).
    real &= np.isfinite(cols).all(axis=-1)
    # C order, as column_stack gives, for the same products in lorentz_defect.
    return np.ascontiguousarray(cols.swapaxes(-1, -2)), real, defects


def lorentz_of(A: SL2Element) -> LorentzMatrix:
    """The 4x4 Lorentz matrix covered by A (see _covering).

    Raises NumericalDrift when a transported column is not a finite real
    vector, or when LorentzMatrix refuses the result; either signals a badly
    conditioned A (e.g. an extreme boost) rather than a logic error.
    """
    mat, real, defects = _covering(A.mat)
    if not real.all():
        j = int(np.argmin(real))
        raise NumericalDrift(
            f"transport of world basis vector u{j} is not a finite real vector "
            f"(reality defect {defects[j]:.3e}, bound {REALITY_TOL})"
        )
    return LorentzMatrix(mat)
