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

from .errors import Degenerate, NumericalDrift

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


def _sealed(a: np.ndarray) -> np.ndarray:
    """A copy of a on an immutable bytes buffer, the package's one read-only
    array: no view of it, nor its .base, can be made writable."""
    return np.ndarray(a.shape, a.dtype, a.tobytes())


def _checked(values, dtype, shape: tuple, expected: str, entries: str) -> np.ndarray:
    """values as a sealed array of dtype and shape, the storage check of every
    value type: refuses a wrong shape as not <expected>, and non-finite <entries>."""
    a = np.asarray(values, dtype=dtype)
    if a.shape != shape:
        raise ValueError(f"expected {expected}, got shape {a.shape}")
    # Per entry in Python: faster than np.isfinite on arrays this small.
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise ValueError(f"{entries} must be finite")
    return _sealed(a)


class _Frozen:
    """Base of the array-backed value types: _bind stores the value's one
    array, from the constructor; assignment and deletion raise
    AttributeError.  Copy, deepcopy and pickle rebuild the value through its
    constructor (__reduce__), so a copy is checked like the original."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        rebuild, args = self.__reduce__()
        return f"{rebuild.__qualname__}({', '.join(map(repr, args))})"

    def _bind(self, slot: str, *check) -> None:
        """Store _checked(*check) in slot."""
        object.__setattr__(self, slot, _checked(*check))


class _Coefficients(_Frozen):
    """A read-only vector of finite complex coefficients, the storage of
    Spinor2, CoSpinor2 and FourSpinor.  Arithmetic is Python complex
    arithmetic per entry, so an overflow is refused like a non-finite input;
    equality is exact and the hash agrees with it."""

    __slots__ = ("vec",)
    size = 2

    def __init__(self, c1, c2):
        self._store((c1, c2))

    def _store(self, coeffs) -> None:
        self._bind("vec", coeffs, complex, (self.size,), f"{self.size} coefficients",
                   f"{type(self).__name__} components")

    def __reduce__(self):
        return (type(self), tuple(self.vec.tolist()))

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

    def norm(self) -> float:
        return _hypot_norm(self.vec.tolist())


def _hypot_norm(c) -> float:
    """math.hypot of the abs of the complexes c: the norm of a Spinor2 or a
    CoSpinor2, from its coefficient list; inf past the float range."""
    try:
        return math.hypot(*map(abs, c))
    except OverflowError:  # abs of a coefficient past the float range
        return math.inf


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
    return _eps(x.vec, y.vec)


def eps_bar(xbar: CoSpinor2, ybar: CoSpinor2) -> complex:
    """Symplectic form on the conjugate space, on the stored coefficients.

    Satisfies eps_bar(conjugate(x), conjugate(y)) == conj(eps(x, y)).
    """
    return eps(xbar, ybar)


def _cmul(x, y) -> np.ndarray:
    """Entrywise products of complex (or real) arrays x and y, broadcast, as
    Python's complex product rounds them: (ac - bd) + (ad + bc)i in real
    arithmetic, where numpy's complex array loops round differently.  A real
    operand is the complex number with imaginary part +0.0, as Python's
    complex * float is.  The parts are stored exactly: re + 1j * im would
    multiply."""
    re = x.real * y.real - x.imag * y.imag
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _det_of(a, b, c, d) -> np.ndarray:
    """a*d - b*c of complex arrays, broadcast, part by part: _cmul(a, d) -
    _cmul(b, c) bit for bit, with its warnings, but without its two arrays."""
    re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    out = np.empty(np.shape(re), dtype=complex)
    out.real = re
    out.imag = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return out


def _det2(t):
    """Determinant of a 2x2 array (a Python complex, silent on overflow) or of
    each matrix of a (..., 2, 2) stack, equal to it bit for bit."""
    # One matrix is a*d - b*c on the complexes of tolist(); a stack forms the
    # same roundings of Python's complex products part by part (_det_of).
    if t.ndim == 2:
        (a, b), (c, d) = t.tolist()
        return a * d - b * c
    return _det_of(t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1])


def _eps(x, y):
    """x1*y2 - x2*y1 of two coefficient vectors (a Python complex) or of each
    pair of rows of two (..., 2) stacks, equal to it bit for bit (as _det2);
    the kernel under eps."""
    if x.ndim == 1:
        (x1, x2), (y1, y2) = x.tolist(), y.tolist()
        return x1 * y2 - x2 * y1
    return _det_of(x[..., 0], x[..., 1], y[..., 0], y[..., 1])


def _max1(x):
    """max(1.0, x) of a float, or of each entry of an array (np.fmax, so that a
    nan entry gives 1.0, as max does): the floor of every scale and bound."""
    return np.fmax(1.0, x) if isinstance(x, np.ndarray) else max(1.0, x)


def spinor_norms(v) -> np.ndarray:
    """Euclidean norms of stacked (..., n) complex coefficient vectors.

    Sums the squared real parts, then the squared imaginary parts, through
    the same dot-product kernel np.linalg.norm uses for one complex vector,
    so each row equals np.linalg.norm of that row bit for bit.  It may warn:
    each caller runs it under its own np.errstate or on power-of-two-scaled
    values that cannot overflow (bundle._in_rest_eigenspace).
    """
    v = np.asarray(v, dtype=complex)
    re, im = v.real, v.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def _scaled(v: np.ndarray):
    """A complex vector v times 2**-e, and the int e, for e the binary exponent
    of its largest real or imaginary part (0 for zero); a (..., n) stack row by
    row, with e of shape (...).  Every scaled part is below 1 in magnitude, and
    a norm or residual of the scaled array, scaled back, has the unscaled bits
    wherever those neither overflow nor underflow: the scaling is exact."""
    x = v.view(float)
    if x.ndim == 1:  # Python's frexp, as in _det2: cheaper on one short vector
        e = math.frexp(max(map(abs, x.tolist())))[1]
        return np.ldexp(x, -e).view(complex), e
    e = np.frexp(np.abs(x).max(axis=-1))[1]
    return np.ldexp(x, -e[..., None]).view(complex), e


def _unscaled(x, e):
    """The array x times 2**e, the inverse of _scaled's factor, inf past the
    float range, silently: the one scale-back.  For one vector's e (an int), a
    list of Python floats, by math.ldexp as _scaled takes e by math.frexp."""
    if isinstance(e, int):
        try:
            return [math.ldexp(v, e) for v in x.tolist()]
        except OverflowError:  # past the float range: numpy's inf
            pass
    with np.errstate(all="ignore"):
        x = np.ldexp(x, e)
    return x.tolist() if isinstance(e, int) else x


def cyclic_defect(a: Spinor2, b: Spinor2, c: Spinor2) -> Spinor2:
    """Residual eps(b,c)*a + eps(c,a)*b + eps(a,b)*c.

    Any three vectors of a 2-dimensional space are linearly dependent with
    these symplectic coefficients, so the result is zero up to rounding.
    """
    return Spinor2.from_vec(_cyclic(a.vec, b.vec, c.vec))


def _cyclic(a, b, c):
    """The cyclic residual of three coefficient vectors (a list of Python
    complexes) or of each triple of rows of three (..., 2) stacks (an array,
    each row equal to it bit for bit); the kernel under cyclic_defect."""
    kbc, kca, kab = _eps(b, c), _eps(c, a), _eps(a, b)
    if a.ndim == 1:
        return [kbc * ai + kca * bi + kab * ci for ai, bi, ci in zip(a.tolist(), b.tolist(), c.tolist())]
    return _cmul(kbc[..., None], a) + _cmul(kca[..., None], b) + _cmul(kab[..., None], c)


def _cabs(z: np.ndarray) -> np.ndarray:
    """abs of each complex entry as Python's abs rounds it: np.hypot of the
    parts, both the C library's hypot (numpy's complex absolute differs)."""
    return np.hypot(z.real, z.imag)


def _exponent(z: complex) -> int:
    """The binary exponent of the larger part of z, as _scaled takes it."""
    return math.frexp(max(abs(z.real), abs(z.imag)))[1]


def _unimodular(a):
    """SL2Element's test: _det2 of one 2x2 matrix or of a (..., 2, 2) stack,
    and whether |det - 1| <= SL2_DET_TOL (the C library's hypot in both; nan
    fails, as a non-finite entry's does).  A stack's mask is this verdict."""
    d = _det2(a)
    if a.ndim == 2:
        # A real part off by more than 1 is refused before abs(d - 1) can raise
        # OverflowError past the float range.
        return d, abs(d.real - 1.0) <= 1.0 and abs(d - 1.0) <= SL2_DET_TOL
    return d, _cabs(d - 1.0) <= SL2_DET_TOL


def _adjugate(t):
    """Adjugate [[d, -b], [-c, a]] of a 2x2 array (nested lists of Python
    complexes) or of each matrix of a (..., 2, 2) stack (an array), by exact
    swaps and negations: the inverse of a unimodular matrix."""
    if t.ndim == 2:  # as in _det2: cheaper on one matrix
        (a, b), (c, d) = t.tolist()
        return [[d, -b], [-c, a]]
    adj = np.empty_like(t)
    adj[..., 0, 0] = t[..., 1, 1]
    adj[..., 0, 1] = -t[..., 0, 1]
    adj[..., 1, 0] = -t[..., 1, 0]
    adj[..., 1, 1] = t[..., 0, 0]
    return adj


# The storage check of an SL2Element, shared with renormalized.
_MAT2 = (complex, (2, 2), "a 2x2 matrix", "matrix entries")


class SL2Element(_Frozen):
    """A 2x2 complex matrix of determinant 1 (checked at construction).

    The coefficient matrix is stored read-only; instances are immutable and
    safe to share across threads.
    """

    __slots__ = ("mat",)

    # Kept in this class body: benchmarks/tracer.py traces
    # SL2Element.__dict__["__init__"].
    def __init__(self, mat):
        self._bind("mat", mat, *_MAT2)
        d, ok = _unimodular(self.mat)
        if not ok:
            raise NumericalDrift(
                f"determinant {d} differs from 1 by more than {SL2_DET_TOL}; "
                "renormalize first"
            )

    def __reduce__(self):
        return (SL2Element, (self.mat.tolist(),))

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
        machine-epsilon scale.  mat, checked as the constructor checks it, is
        scaled by 2**-k, for 2k the exponent of the larger of the terms a*d
        and b*c of its determinant, so that neither entries of far-apart
        magnitudes nor the determinant overflow or underflow; the result is
        the same for every scaling.  A singular matrix raises Degenerate.
        """
        m = _checked(mat, *_MAT2)
        (a, b), (c, d) = m.tolist()
        # Zero entries are left out; with no nonzero term the determinant is 0.
        k = max((_exponent(x) + _exponent(y) for x, y in ((a, d), (b, c)) if x and y), default=0) // 2
        # An entry scaled or divided past the float range is refused, silently,
        # by the constructor.
        with np.errstate(all="ignore"):
            m = np.ldexp(m.view(float), -k).view(complex)
            det = _det2(m)
            if det == 0:
                raise Degenerate("cannot renormalize a singular matrix")
            return cls(m / cmath.sqrt(det))

    def inverse(self) -> "SL2Element":
        # det == 1, so the inverse is the adjugate.
        return SL2Element(_adjugate(self.mat))

    def conj(self) -> "SL2Element":
        """Entrywise conjugate; the matrix of the conjugate transformation."""
        return SL2Element(np.conj(self.mat))

    def __matmul__(self, other: "SL2Element") -> "SL2Element":
        with np.errstate(all="ignore"):  # an overflow is refused by the constructor
            return SL2Element(self.mat @ other.mat)

    def __neg__(self) -> "SL2Element":
        return SL2Element(-self.mat)


def act(A: SL2Element, s: Spinor2) -> Spinor2:
    """Apply a unimodular transformation to a spinor."""
    with np.errstate(all="ignore"):  # an overflow is refused by Spinor2
        return Spinor2.from_vec(_act(A.mat, s.vec))


def _act(a, s) -> np.ndarray:
    """a s for one matrix and vector, or row by row for (..., n, n) matrices
    and (..., n) vectors, broadcast: np.matvec, equal to a @ s bit for bit on
    one pair.  The kernel under act and clifford's tau actions."""
    return np.matvec(a, s)


def act_bar(A: SL2Element, sbar: CoSpinor2) -> CoSpinor2:
    """Apply the conjugate transformation to a conjugate spinor.

    Intertwines with conjugation: act_bar(A, conjugate(s)) == conjugate(act(A, s)).
    """
    with np.errstate(all="ignore"):  # an overflow is refused by CoSpinor2
        return CoSpinor2.from_vec(_act(np.conj(A.mat), sbar.vec))
