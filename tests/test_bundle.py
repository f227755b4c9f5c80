"""The Dirac bundle, its class description, and the conjugate-pair split."""

import cmath
import math

import numpy as np
import pytest

from twospinors import (
    AssociatedClassRep,
    BadMass,
    ConjugatePair,
    CoSpinor2,
    FiberElement,
    FourSpinor,
    InvalidClassRep,
    MassShellPoint,
    Momentum,
    NotInFiber,
    NotOnShell,
    SL2Element,
    Spinor2,
    act,
    act_momentum,
    beta,
    beta_inv,
    boost_rep,
    conjugate,
    fiber_basis,
    fiber_projector,
    fiber_residual,
    gamma,
    rest_fiber_basis,
    shell_point,
    slash,
    spin_character,
    split_conjugate_pair,
    tau,
)
from twospinors.bundle import fiber_bound, fiber_residuals, spin_characters
from twospinors.verify import _check_spin_character
from twospinors.sampling import random_fiber_element, random_su2

from test_spinor import random_sl2
from test_momentum import random_shell


def random_rest_eigenvector(rng):
    v1, v2 = rest_fiber_basis()
    return complex(*rng.normal(size=2)) * v1 + complex(*rng.normal(size=2)) * v2


# --- the fiber projector -----------------------------------------------------


def test_projector_at_rest():
    p_plus = fiber_projector(shell_point(1.0, 0, 0, 0))
    np.testing.assert_allclose(p_plus, (gamma(0) + np.eye(4)) / 2, atol=1e-14)


def test_projector_rest_image_is_stated_span():
    p_plus = fiber_projector(shell_point(1.0, 0, 0, 0))
    span = sum(np.outer(v.vec, v.vec.conj()) / 2 for v in rest_fiber_basis())
    np.testing.assert_allclose(p_plus, span, atol=1e-12)


def test_projector_idempotent():
    rng = np.random.default_rng(50)
    for _ in range(300):
        p_plus = fiber_projector(random_shell(rng))
        assert np.max(np.abs(p_plus @ p_plus - p_plus)) <= 1e-11


def test_projector_trace_is_two():
    rng = np.random.default_rng(51)
    for _ in range(300):
        p_plus = fiber_projector(random_shell(rng))
        assert abs(np.trace(p_plus) - 2.0) <= 1e-12


def test_projector_commutes_with_slash():
    rng = np.random.default_rng(52)
    for _ in range(300):
        q = random_shell(rng)
        p_plus, s = fiber_projector(q), slash(q.p)
        assert np.max(np.abs(p_plus @ s - s @ p_plus)) <= 1e-12


def test_projector_rejects_corrupted_point():
    q = shell_point(1.0, 0, 0, 0)
    object.__setattr__(q.p, "p0", 3.0)
    with pytest.raises(NotOnShell):
        fiber_projector(q)


# --- the rest basis ------------------------------------------------------------


def test_rest_basis_tuples():
    v1, v2 = rest_fiber_basis()
    np.testing.assert_array_equal(v1.vec, [1, 0, 0, -1])
    np.testing.assert_array_equal(v2.vec, [0, 1, 1, 0])


def test_rest_basis_vectors_are_fixed_by_gamma0():
    for v in rest_fiber_basis():
        np.testing.assert_allclose(gamma(0) @ v.vec, v.vec, atol=1e-14)


def test_rest_basis_is_independent():
    v1, v2 = rest_fiber_basis()
    gram = np.array(
        [
            [v1.vec.conj() @ v1.vec, v1.vec.conj() @ v2.vec],
            [v2.vec.conj() @ v1.vec, v2.vec.conj() @ v2.vec],
        ]
    )
    assert abs(np.linalg.det(gram)) > 1.0


# --- fiber elements and class representatives --------------------------------


def test_fiber_element_validates():
    q = shell_point(1.0, 0, 0, 0)
    FiberElement(q, rest_fiber_basis()[0])
    with pytest.raises(NotInFiber):
        FiberElement(q, FourSpinor.from_vec([1, 0, 0, 1]))


def test_class_rep_validates_membership():
    with pytest.raises(InvalidClassRep):
        AssociatedClassRep(SL2Element.identity(), FourSpinor.from_vec([1, 0, 0, 1]), 1.0)


def test_class_rep_validates_mass():
    with pytest.raises(BadMass):
        AssociatedClassRep(SL2Element.identity(), rest_fiber_basis()[0], 0.0)


def test_conjugate_pair_consistency_check():
    s = Spinor2(1j, 2)
    ConjugatePair(s, conjugate(s))
    with pytest.raises(ValueError):
        ConjugatePair(s, CoSpinor2(1j, 2))


# --- the class-to-fiber map -----------------------------------------------------


def test_beta_identity_class():
    v1 = rest_fiber_basis()[0]
    f = beta(AssociatedClassRep(SL2Element.identity(), v1, 1.0))
    np.testing.assert_allclose(f.q.p.coords, [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(f.psi.vec, v1.vec, atol=1e-15)


def test_beta_well_defined_on_classes():
    rng = np.random.default_rng(53)
    worst = 0.0
    for _ in range(500):
        A = random_sl2(rng)
        psi = random_rest_eigenvector(rng)
        T = random_su2(rng)
        f1 = beta(AssociatedClassRep(A, psi, 1.0))
        f2 = beta(
            AssociatedClassRep(A @ T, FourSpinor.from_vec(tau(T.inverse()) @ psi.vec), 1.0)
        )
        worst = max(worst, np.max(np.abs(f1.q.p.coords - f2.q.p.coords)))
        worst = max(worst, np.linalg.norm(f1.psi.vec - f2.psi.vec) / max(1.0, f1.psi.norm()))
    assert worst <= 1e-10


def test_beta_lands_in_fiber():
    rng = np.random.default_rng(54)
    for _ in range(300):
        A = random_sl2(rng)
        psi = random_rest_eigenvector(rng)
        m = rng.uniform(0.5, 2.0)
        f = beta(AssociatedClassRep(A, psi, m))  # constructor re-validates membership
        assert fiber_residual(f.q, f.psi) <= 1e-9 * max(1.0, m) * max(1.0, f.psi.norm())


# --- the inverse map --------------------------------------------------------------


def test_beta_inv_rest_frame():
    q = shell_point(1.0, 0, 0, 0)
    psi = rest_fiber_basis()[1]
    rep = beta_inv(FiberElement(q, psi))
    np.testing.assert_allclose(rep.A.mat, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(rep.phi_plus.vec, psi.vec, atol=1e-12)


def test_beta_round_trip():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _ in range(1000):
        f = random_fiber_element(rng)
        g = beta(beta_inv(f))
        worst = max(worst, np.max(np.abs(f.q.p.coords - g.q.p.coords)) / max(1.0, f.q.p.p0))
        worst = max(worst, np.linalg.norm(f.psi.vec - g.psi.vec) / max(1.0, f.psi.norm()))
    assert worst <= 1e-9


def test_beta_inv_class_consistency():
    # the canonical representative differs from any other by a right unitary
    # factor, with the representative spinor moved by its inverse
    rng = np.random.default_rng(56)
    for _ in range(200):
        A = random_sl2(rng)
        psi = random_rest_eigenvector(rng)
        rep = AssociatedClassRep(A, psi, 1.0)
        rep2 = beta_inv(beta(rep))
        T = rep.A.inverse() @ rep2.A
        np.testing.assert_allclose(T.mat @ T.mat.conj().T, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(
            rep2.phi_plus.vec, tau(T.inverse()) @ psi.vec, atol=1e-9 * max(1.0, psi.norm())
        )
        f1, f2 = beta(rep), beta(rep2)
        np.testing.assert_allclose(f1.psi.vec, f2.psi.vec, atol=1e-9 * max(1.0, psi.norm()))


def test_beta_inv_rejects_non_fiber_input():
    q = shell_point(1.0, 0.3, 0, 0)
    f = FiberElement(q, fiber_basis(q)[0])
    object.__setattr__(f, "psi", FourSpinor.from_vec([1, 0, 0, 0]))
    with pytest.raises(NotInFiber):
        beta_inv(f)


# --- bundle structure ---------------------------------------------------------------


def test_group_action_preserves_fibers():
    rng = np.random.default_rng(57)
    for _ in range(300):
        f = random_fiber_element(rng)
        A = random_sl2(rng)
        moved_q = MassShellPoint(act_momentum(A, f.q.p), f.q.m)
        moved_psi = FourSpinor.from_vec(tau(A) @ f.psi.vec)
        bound = 1e-9 * max(1.0, f.q.m) * max(1.0, moved_psi.norm()) * max(1.0, moved_q.p.p0 / f.q.m)
        assert fiber_residual(moved_q, moved_psi) <= bound


def test_unitary_action_preserves_rest_eigenspace():
    rng = np.random.default_rng(58)
    p_plus = fiber_projector(shell_point(1.0, 0, 0, 0))
    for _ in range(300):
        t_mat = tau(random_su2(rng))
        defect = p_plus @ t_mat @ p_plus - t_mat @ p_plus
        assert np.max(np.abs(defect)) <= 1e-12


def test_beta_is_equivariant():
    rng = np.random.default_rng(59)
    for _ in range(300):
        A, B = random_sl2(rng), random_sl2(rng)
        psi = random_rest_eigenvector(rng)
        f = beta(AssociatedClassRep(A, psi, 1.0))
        left = beta(AssociatedClassRep(B @ A, psi, 1.0))
        np.testing.assert_allclose(
            left.q.p.coords, act_momentum(B, f.q.p).coords, atol=1e-9 * max(1.0, left.q.p.p0)
        )
        np.testing.assert_allclose(
            left.psi.vec, tau(B) @ f.psi.vec, atol=1e-9 * max(1.0, left.psi.norm())
        )


def test_fiber_basis_spans_projector_image():
    rng = np.random.default_rng(60)
    for _ in range(100):
        q = random_shell(rng)
        p_plus = fiber_projector(q)
        for v in fiber_basis(q):
            np.testing.assert_allclose(
                p_plus @ v.vec, v.vec, atol=1e-10 * max(1.0, v.norm())
            )


# --- the conjugate-pair split ----------------------------------------------------


def test_split_first_basis_vector():
    pair = split_conjugate_pair(
        AssociatedClassRep(SL2Element.identity(), rest_fiber_basis()[0], 1.0)
    )
    assert pair.s == Spinor2(1, 0)
    assert pair.sbar == CoSpinor2(1, 0)


def test_split_second_basis_vector():
    pair = split_conjugate_pair(
        AssociatedClassRep(SL2Element.identity(), rest_fiber_basis()[1], 1.0)
    )
    assert pair.s == Spinor2(0, 1)


def test_split_equivariance():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(500):
        T = random_su2(rng)
        psi = random_rest_eigenvector(rng)
        base = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), psi, 1.0))
        moved = split_conjugate_pair(
            AssociatedClassRep(
                SL2Element.identity(), FourSpinor.from_vec(tau(T) @ psi.vec), 1.0
            )
        )
        worst = max(worst, (moved.s - act(T, base.s)).norm())
    assert worst <= 1e-11


def test_split_conjugate_is_exact():
    rng = np.random.default_rng(62)
    for _ in range(200):
        psi = random_rest_eigenvector(rng)
        pair = split_conjugate_pair(AssociatedClassRep(SL2Element.identity(), psi, 1.0))
        assert pair.sbar == conjugate(pair.s)


# --- the character -----------------------------------------------------------------


def test_spin_character_values():
    assert abs(spin_character(0.0) - 2.0) <= 1e-14
    assert abs(spin_character(math.pi / 2)) <= 1e-14
    assert abs(spin_character(math.pi / 3) - 1.0) <= 1e-14


def test_spin_character_grid():
    for t in np.linspace(0, 2 * math.pi, 100):
        assert abs(spin_character(t) - 2 * math.cos(t)) <= 1e-13


# --- stacked residuals and the shared bound ------------------------------------------------


def test_fiber_residuals_equal_linalg_reference():
    rng = np.random.default_rng(66)
    m = 0.7
    spatial = rng.normal(size=(40, 3)) * m * 10.0 ** rng.uniform(-3, 3, (40, 1))
    qs = [shell_point(m, *row.tolist()) for row in spatial]
    psis = [fiber_basis(q)[0] for q in qs]
    psis[::3] = [FourSpinor.from_vec(rng.normal(size=4) + 1j * rng.normal(size=4)) for _ in psis[::3]]
    stacked = fiber_residuals(np.array([q.p.coords for q in qs]), np.array([v.vec for v in psis]), m)
    reference = [np.linalg.norm(slash(q.p) @ v.vec - m * v.vec) for q, v in zip(qs, psis)]
    assert stacked.tolist() == reference
    assert [fiber_residual(q, v) for q, v in zip(qs, psis)] == reference


def test_fiber_bound_scales_with_mass_above_one():
    assert fiber_bound(1e-9, 0.5, 3.0) == 1e-9 * 1.0 * 3.0
    assert fiber_bound(1e-9, 4.0, 3.0) == 1e-9 * 4.0 * 3.0


def reference_spin_character(t):
    # The unstacked form: one diagonal-phase element and one 4x4 trace.
    A = SL2Element([[cmath.exp(1j * t), 0.0], [0.0, cmath.exp(-1j * t)]])
    p_plus = (gamma(0) + np.eye(4)) / 2.0
    return complex(np.trace(p_plus @ tau(A)))


def test_stacked_spin_characters_equal_scalar():
    rng = np.random.default_rng(63)
    ts = np.concatenate([np.linspace(0.0, 2.0 * math.pi, 100), rng.uniform(-1e3, 1e3, 300)])
    for t, c in zip(ts, spin_characters(ts).tolist()):
        expected = np.complex128(reference_spin_character(t)).tobytes()
        assert np.complex128(c).tobytes() == expected
        assert np.complex128(spin_character(t)).tobytes() == expected
    grid = np.linspace(0.0, 2.0 * math.pi, 100)
    worst = max(abs(reference_spin_character(t) - 2.0 * math.cos(t)) for t in grid)
    assert _check_spin_character(None, 1).max_defect == worst
