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

import math
from functools import lru_cache

import numpy as np

from .bitensor import ETA, BiTensor, _expand, h_form, pi_act, world_basis
from .spinor import CoSpinor2, SL2Element, Spinor2, _Coefficients, eps, eps_bar

__all__ = [
    "FourSpinor",
    "phi",
    "gamma",
    "slash",
    "tau",
    "tau_matrices",
    "anticommutator_defect",
    "gamma_relation_residuals",
    "equivariance_defect",
]

_SQRT2 = math.sqrt(2.0)


class FourSpinor(_Coefficients):
    """Direct sum of a spinor and a conjugate spinor (a Dirac 4-spinor),
    stored as its coefficients in the basis order (e1, e2, e1bar, e2bar)."""

    __slots__ = ()
    size = 4

    def __init__(self, s: Spinor2, sbar: CoSpinor2):
        self._store(np.concatenate((s.vec, sbar.vec)))

    # Defined in this class body, not inherited, so that benchmarks/tracer.py
    # finds it in FourSpinor.__dict__ and can trace it.
    @classmethod
    def from_vec(cls, v) -> "FourSpinor":
        """The 4-spinor with coefficients v in the order (e1, e2, e1bar, e2bar)."""
        return super().from_vec(v)

    @property
    def s(self) -> Spinor2:
        return Spinor2.from_vec(self.vec[:2])

    @property
    def sbar(self) -> CoSpinor2:
        return CoSpinor2.from_vec(self.vec[2:])

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


@lru_cache(maxsize=1)
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
    out = np.zeros((2, 2, 4, 4), dtype=complex)
    for i, p in enumerate(e):
        for j, qbar in enumerate(ebar):
            out[i, j] = np.column_stack([
                FourSpinor(_SQRT2 * eps_bar(w.sbar, qbar) * p, _SQRT2 * eps(p, w.s) * qbar).vec
                for w in four_basis
            ])
    out.setflags(write=False)
    return out


def phi(T: BiTensor) -> np.ndarray:
    """Clifford module map: the 4x4 endomorphism acting by T.

    Linear extension of the dyadic rule over the coefficient matrix of T.
    """
    return np.einsum("ij,ijkl->kl", T.t, _dyad_endomorphisms())


@lru_cache(maxsize=1)
def _gamma_table() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # Computed once from the module map; safe under concurrent first use
    # (worst case the table is built twice with identical contents).
    table = tuple(phi(u) for u in world_basis())
    for g in table:
        g.setflags(write=False)
    return table


def gamma(mu: int) -> np.ndarray:
    """Gamma matrix with index mu in 0..3: the module image of the world basis.

    Satisfies gamma(0)**2 = Id, gamma(j)**2 = -Id for j > 0, and pairwise
    anticommutation.
    """
    if mu not in (0, 1, 2, 3):
        raise ValueError(f"gamma index must be 0..3, got {mu}")
    return _gamma_table()[mu]


def _coords4(p) -> np.ndarray:
    c = p.coords if hasattr(p, "coords") else np.asarray(p, dtype=float)
    if c.shape[-1:] != (4,):
        raise ValueError(f"expected 4 coordinates, got shape {c.shape}")
    return c


def slash(p) -> np.ndarray:
    """Contraction of a 4-vector with the gamma matrices:
    p0 gamma(0) + p1 gamma(1) + p2 gamma(2) + p3 gamma(3).

    Accepts a four-vector (Momentum), a plain length-4 sequence, or a stacked
    (..., 4) array of coordinates, giving (..., 4, 4) matrices; the sum is
    the shared basis expansion bitensor._expand.  Squares to q_form(p) times
    the identity.
    """
    return _expand(_coords4(p), _gamma_table())


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


def anticommutator_defect(X: BiTensor, Y: BiTensor) -> np.ndarray:
    """phi(X) phi(Y) + phi(Y) phi(X) - 2 h(X, Y) Id; zero for all bitensors."""
    px, py = phi(X), phi(Y)
    return px @ py + py @ px - 2.0 * h_form(X, Y) * np.eye(4)


def gamma_relation_residuals(gammas) -> np.ndarray:
    """4x4 table of max|g_mu g_nu + g_nu g_mu - 2 eta_mu_nu Id| over four
    candidate gamma matrices; zero for the gamma table."""
    eye = np.eye(4)
    table = np.zeros((4, 4))
    for mu in range(4):
        for nu in range(4):
            table[mu, nu] = np.max(
                np.abs(gammas[mu] @ gammas[nu] + gammas[nu] @ gammas[mu] - 2.0 * ETA[mu, nu] * eye)
            )
    return table


def equivariance_defect(A: SL2Element, X: BiTensor) -> np.ndarray:
    """phi(pi_act(A, X)) - tau(A) phi(X) tau(A)^-1; zero for all inputs.

    The inverse of tau(A) is taken as tau of the adjugate inverse, which is
    exact for determinant-1 matrices.  The defect magnitude scales like
    norm(A)**4 times machine epsilon.
    """
    t, t_inv = tau(A), tau(A.inverse())
    return phi(pi_act(A, X)) - t @ phi(X) @ t_inv

