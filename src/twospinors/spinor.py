"""2-spinors, their conjugates, the symplectic form, and SL(2,C) actions.

Coefficients live in a fixed symplectic basis (dyad) {e1, e2}, normalized so
that eps(e1, e2) = 1.  A conjugate spinor stores the *conjugated* coefficient
tuple in the conjugate dyad {e1bar, e2bar}: conjugation is an actual data
transformation, and the conjugate symplectic form is then the same
determinant formula on the stored tuples.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

__all__ = [
    "Spinor2",
    "CoSpinor2",
    "SL2Element",
    "SL2_DET_TOL",
    "conjugate",
    "eps",
    "eps_bar",
    "cyclic_defect",
    "act",
    "act_bar",
    "spinor_norms",
]

# Determinant drift allowed at SL2Element construction.
SL2_DET_TOL = 1e-12


class _Coefficients:
    """A read-only vector of finite complex coefficients, the storage of
    Spinor2, CoSpinor2 and FourSpinor.  Arithmetic is Python complex
    arithmetic per entry, so an overflow is refused like a non-finite input;
    equality is exact and the hash agrees with it."""

    __slots__ = ("vec",)
    size = 2

    def __init__(self, c1, c2):
        self._store((c1, c2))

    def _store(self, coeffs) -> None:
        v = np.array(coeffs, dtype=complex)
        if v.shape != (self.size,):
            raise ValueError(f"expected {self.size} coefficients, got shape {v.shape}")
        if not all(map(cmath.isfinite, v.tolist())):
            raise ValueError(f"{type(self).__name__} components must be finite")
        v.setflags(write=False)
        self.vec = v

    @classmethod
    def from_vec(cls, v):
        """The element with coefficient vector v (copied)."""
        obj = cls.__new__(cls)
        obj._store(v)
        return obj

    @property
    def c1(self) -> complex:
        return complex(self.vec[0])

    @property
    def c2(self) -> complex:
        return complex(self.vec[1])

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_vec([a + b for a, b in zip(self.vec.tolist(), other.vec.tolist())])

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.from_vec([a - b for a, b in zip(self.vec.tolist(), other.vec.tolist())])

    def __mul__(self, scalar):
        return self.from_vec([c * scalar for c in self.vec.tolist()])

    __rmul__ = __mul__

    def __neg__(self):
        return self.from_vec(-self.vec)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.vec.tolist() == other.vec.tolist()

    def __hash__(self) -> int:
        return hash(tuple(self.vec.tolist()))

    def __repr__(self) -> str:
        return f"{type(self).__name__}.from_vec({self.vec.tolist()!r})"

    def norm(self) -> float:
        return math.hypot(*map(abs, self.vec.tolist()))


class Spinor2(_Coefficients):
    """Element of the 2-spinor space S, as coefficients of {e1, e2}."""

    __slots__ = ()


class CoSpinor2(_Coefficients):
    """Element of the conjugate space, as coefficients of {e1bar, e2bar}."""

    __slots__ = ()


def conjugate(s):
    """Conjugation map between the spinor space and its conjugate.

    The stored coefficients are complex-conjugated, so the map is an
    involution and is conjugate-linear: conjugate(a*s) == conj(a)*conjugate(s).
    """
    if isinstance(s, Spinor2):
        return CoSpinor2.from_vec(np.conj(s.vec))
    if isinstance(s, CoSpinor2):
        return Spinor2.from_vec(np.conj(s.vec))
    raise TypeError(f"cannot conjugate {type(s).__name__}")


def eps(x: Spinor2, y: Spinor2) -> complex:
    """Symplectic form on S: the determinant x1*y2 - x2*y1 of the pair."""
    (x1, x2), (y1, y2) = x.vec.tolist(), y.vec.tolist()
    return x1 * y2 - x2 * y1


def eps_bar(xbar: CoSpinor2, ybar: CoSpinor2) -> complex:
    """Symplectic form on the conjugate space, on the stored coefficients.

    Satisfies eps_bar(conjugate(x), conjugate(y)) == conj(eps(x, y)).
    """
    return eps(xbar, ybar)


def _det2(t) -> complex:
    """Determinant of a 2x2 complex matrix."""
    return t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]


def spinor_norms(v) -> np.ndarray:
    """Euclidean norms of stacked (..., n) complex coefficient vectors.

    Sums the squared real parts, then the squared imaginary parts, through
    the same dot-product kernel np.linalg.norm uses for one complex vector,
    so each row equals np.linalg.norm of that row bit for bit.
    """
    v = np.asarray(v, dtype=complex)
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def cyclic_defect(a: Spinor2, b: Spinor2, c: Spinor2) -> Spinor2:
    """Residual eps(b,c)*a + eps(c,a)*b + eps(a,b)*c.

    Any three vectors of a 2-dimensional space are linearly dependent with
    these symplectic coefficients, so the result is zero up to rounding.
    """
    kbc, kca, kab = eps(b, c), eps(c, a), eps(a, b)
    return Spinor2.from_vec([
        kbc * ai + kca * bi + kab * ci
        for ai, bi, ci in zip(a.vec.tolist(), b.vec.tolist(), c.vec.tolist())
    ])


class SL2Element:
    """A 2x2 complex matrix of determinant 1 (checked at construction).

    The coefficient matrix is stored read-only; instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        m = np.array(mat, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix entries must be finite")
        d = _det2(m)
        if abs(d - 1.0) > SL2_DET_TOL:
            raise ValueError(
                f"determinant {d} differs from 1 by more than {SL2_DET_TOL}; "
                "renormalize first"
            )
        m.setflags(write=False)
        self.mat = m

    @property
    def det(self) -> complex:
        return _det2(self.mat)

    @classmethod
    def identity(cls) -> "SL2Element":
        return cls(np.eye(2))

    @classmethod
    def renormalized(cls, mat) -> "SL2Element":
        """Divide by the principal square root of the determinant.

        Intended for long products whose determinant has drifted at the
        machine-epsilon scale.
        """
        m = np.array(mat, dtype=complex)
        d = _det2(m)
        if d == 0:
            raise ValueError("cannot renormalize a singular matrix")
        return cls(m / cmath.sqrt(d))

    def renormalize(self) -> "SL2Element":
        return SL2Element.renormalized(self.mat)

    def inverse(self) -> "SL2Element":
        # det == 1, so the inverse is the adjugate: exact entry swaps.
        m = self.mat
        return SL2Element([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])

    def conj(self) -> "SL2Element":
        """Entrywise conjugate; the matrix of the conjugate transformation."""
        return SL2Element(np.conj(self.mat))

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        return SL2Element(self.mat @ other.mat)

    def __neg__(self) -> "SL2Element":
        return SL2Element(-self.mat)

    def __repr__(self) -> str:
        return f"SL2Element({self.mat.tolist()!r})"


def act(A: SL2Element, s: Spinor2) -> Spinor2:
    """Apply a unimodular transformation to a spinor."""
    return Spinor2.from_vec(A.mat @ s.vec)


def act_bar(A: SL2Element, sbar: CoSpinor2) -> CoSpinor2:
    """Apply the conjugate transformation to a conjugate spinor.

    Intertwines with conjugation: act_bar(A, conjugate(s)) == conjugate(act(A, s)).
    """
    return CoSpinor2.from_vec(np.conj(A.mat) @ sbar.vec)
