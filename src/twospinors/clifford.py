"""4-spinors and the Clifford module map into their endomorphisms.

A 4-spinor is a direct sum of a spinor and a conjugate spinor, flattened to
four complex coefficients in the basis order (e1, e2, e1bar, e2bar).  The
module map phi sends a bitensor to a 4x4 endomorphism; on Hermitian inputs
the images satisfy the anticommutation relation

    phi(X) phi(Y) + phi(Y) phi(X) = 2 h(X, Y) Id

with the factor-2 normalization fixed so that gamma(0)**2 == Id.  The gamma
matrices are the images of the world basis and are computed from the module
map, never hard-coded.
"""

from __future__ import annotations

import numpy as np

from .bitensor import _SQRT2, ETA, BiTensor, _coords, _expand, _polar, _transport, pi_act, world_basis
from .spinor import (
    CoSpinor2,
    SL2Element,
    Spinor2,
    _act,
    _adjugate,
    _cmul,
    _Coefficients,
    _scaled,
    _sealed,
    _unscaled,
    eps,
    eps_bar,
    spinor_norms,
)

__all__ = [
    "FourSpinor",
    "phi",
    "phi_matrices",
    "gamma",
    "slash",
    "tau",
    "tau_matrices",
    "anticommutator_defect",
    "gamma_relation_residuals",
    "equivariance_defect",
]


class FourSpinor(_Coefficients):
    """Direct sum of a spinor and a conjugate spinor (a Dirac 4-spinor),
    stored as its coefficients in the basis order (e1, e2, e1bar, e2bar)."""

    __slots__ = ()
    size = 4

    def __init__(self, s: Spinor2, sbar: CoSpinor2):
        if not (isinstance(s, Spinor2) and isinstance(sbar, CoSpinor2)):
            raise TypeError(f"expected a Spinor2 and a CoSpinor2, got {type(s).__name__} "
                            f"and {type(sbar).__name__}")
        self._store(np.concatenate((s.vec, sbar.vec)))

    # Defined in this class body, not inherited, so that benchmarks/tracer.py
    # finds it in FourSpinor.__dict__ and can trace it.
    @classmethod
    def from_vec(cls, v) -> "FourSpinor":
        """The 4-spinor with coefficients v in the order (e1, e2, e1bar, e2bar)."""
        return super().from_vec(v)

    def __reduce__(self):
        return (FourSpinor, (self.s, self.sbar))

    @property
    def s(self) -> Spinor2:
        return Spinor2.from_vec(self.vec[:2])

    @property
    def sbar(self) -> CoSpinor2:
        return CoSpinor2.from_vec(self.vec[2:])

    def norm(self) -> float:
        """np.linalg.norm of the coefficients scaled by a power of two (see
        _scaled), scaled back by _unscaled: the same bits where that neither
        overflows nor underflows, and inf, silently, only past the float range."""
        w, e = _scaled(self.vec)
        return _unscaled(spinor_norms([w]), e)[0]


def _dyad_endomorphisms() -> np.ndarray:
    """Images of the four dyadic basis tensors under the module map.

    Each image is evaluated from the defining rule on a dyad (p, qbar)
    applied to a 4-spinor (a, bbar):

        sqrt(2) * [ eps_bar(bbar, qbar) * p  (+)  eps(p, a) * qbar ]

    and assembled column-by-column on the 4-spinor basis.  Shaped (2, 2, 4, 4).
    """
    e = [Spinor2.from_vec(row) for row in np.eye(2)]
    ebar = [CoSpinor2.from_vec(row) for row in np.eye(2)]
    four_basis = [FourSpinor.from_vec(row) for row in np.eye(4)]
    return np.array([[np.column_stack([
        FourSpinor(_SQRT2 * eps_bar(w.sbar, qbar) * p, _SQRT2 * eps(p, w.s) * qbar).vec for w in four_basis
    ]) for qbar in ebar] for p in e])


# Both tables are built once, at import, from the module map.
_DYAD_IMAGES = _sealed(_dyad_endomorphisms())


def phi_matrices(t) -> np.ndarray:
    """Stacked phi: (..., 2, 2) bitensor coefficient matrices to their (..., 4, 4)
    endomorphisms, each equal to phi of one matrix bit for bit."""
    return np.einsum("...ij,ijkl->...kl", t, _DYAD_IMAGES)


def phi(T: BiTensor) -> np.ndarray:
    """Clifford module map: the 4x4 endomorphism acting by T.

    Linear extension of the dyadic rule over the coefficient matrix of T.
    """
    return phi_matrices(T.t)


_GAMMAS = tuple(_sealed(phi(u)) for u in world_basis())


def gamma(mu: int) -> np.ndarray:
    """Gamma matrix with index mu in 0..3: the module image of the world basis.

    Satisfies gamma(0)**2 = Id, gamma(j)**2 = -Id for j > 0, and pairwise
    anticommutation.
    """
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be 0..3, got {mu}")
    return _GAMMAS[mu]


def slash(p) -> np.ndarray:
    """Contraction of a 4-vector with the gamma matrices:
    p0 gamma(0) + p1 gamma(1) + p2 gamma(2) + p3 gamma(3).

    Accepts a four-vector (Momentum), a plain length-4 sequence, or a stacked
    (..., 4) array of coordinates, giving (..., 4, 4) matrices.  Squares to
    q_form(p) times the identity; inf or nan past the float range, silently.
    """
    with np.errstate(all="ignore"):
        return _slash(p)


def _slash(p) -> np.ndarray:
    """slash inside its caller's np.errstate (fiber_test, and bundle._slash_at
    for the tests at one point): the shared basis expansion bitensor._expand."""
    return _expand(_coords(p), _GAMMAS)


def tau_matrices(a) -> np.ndarray:
    """Stacked tau: (..., 2, 2) matrices to the (..., 4, 4) block-diagonal
    actions with a on the spinor block and conj(a) on the conjugate block."""
    a = np.asarray(a)
    out = np.zeros(a.shape[:-2] + (4, 4), dtype=complex)
    out[..., :2, :2] = a
    out[..., 2:, 2:] = np.conj(a)
    return out


def tau(A: SL2Element) -> np.ndarray:
    """Block-diagonal action on 4-spinors: A on the spinor block, conj(A)
    on the conjugate block."""
    return tau_matrices(A.mat)


def _tau_act(a, psi) -> np.ndarray:
    """tau(a) psi for one 2x2 matrix and 4-spinor, or row by row for stacks,
    broadcast, each row equal to tau(A) @ psi bit for bit (spinor._act)."""
    return _act(tau_matrices(a), psi)


def anticommutator_defect(X: BiTensor, Y: BiTensor) -> np.ndarray:
    """phi(X) phi(Y) + phi(Y) phi(X) - 2 h(X, Y) Id; zero for all bitensors,
    non-finite, without a warning, where it overflows."""
    with np.errstate(all="ignore"):
        return _anticommutators(X.t, Y.t)


def _anticommutators(x, y) -> np.ndarray:
    """anticommutator_defect of two coefficient matrices, or of each pair of
    matrices of two (..., 2, 2) stacks (equal to it bit for bit); 2 h is
    Python's product 2.0 * h (spinor._cmul)."""
    px, py = phi_matrices(x), phi_matrices(y)
    return px @ py + py @ px - _cmul(2.0, _polar(x, y))[..., None, None] * np.eye(4)


def gamma_relation_residuals(gammas) -> np.ndarray:
    """4x4 table of max|g_mu g_nu + g_nu g_mu - 2 eta_mu_nu Id| over four
    candidate gamma matrices; zero for the gamma table, silent on overflow.
    One stacked product: entry (mu, nu) of g[:, None] @ g[None, :] is the
    product g_mu g_nu that the 4x4 matrix product gives."""
    g = np.asarray(gammas)
    with np.errstate(all="ignore"):
        products = g[:, None] @ g[None, :]
        return np.max(np.abs(products + products.swapaxes(0, 1) - 2.0 * ETA[..., None, None] * np.eye(4)),
                      axis=(2, 3))


def equivariance_defect(A: SL2Element, X: BiTensor) -> np.ndarray:
    """phi(pi_act(A, X)) - tau(A) phi(X) tau(A)^-1; zero for all inputs.

    The inverse of tau(A) is taken as tau of the adjugate inverse, which is
    exact for determinant-1 matrices.  The defect magnitude scales like
    norm(A)**4 times machine epsilon.
    """
    d = _equivariance(A.mat, X.t)
    if not np.isfinite(d).all():
        pi_act(A, X)  # refuses an A X A* past the float range
    return d


def _equivariance(a, x) -> np.ndarray:
    """equivariance_defect of one matrix and coefficient matrix, or of each
    pair of rows of (..., 2, 2) stacks (equal to it bit for bit), with the
    inverse the adjugate; non-finite, silently, where a x a* overflows."""
    t = tau_matrices(a)
    with np.errstate(all="ignore"):
        return phi_matrices(_transport(a, x)) - t @ phi_matrices(x) @ tau_matrices(_adjugate(a))

