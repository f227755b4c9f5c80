"""The Clifford module map, gamma matrices, and the equivariance theorem."""

import cmath
import math

import numpy as np
import pytest

from twospinors import (
    ETA,
    BiTensor,
    CoSpinor2,
    FourSpinor,
    MinkowskiVec,
    SL2Element,
    Spinor2,
    anticommutator_defect,
    conjugate,
    elementary,
    eps,
    eps_bar,
    equivariance_defect,
    from_minkowski,
    gamma,
    h_form,
    phi,
    pi_act,
    q_form,
    slash,
    tau,
    world_basis,
)

from twospinors.clifford import tau_matrices
from twospinors.spinor import spinor_norms

from test_spinor import random_sl2
from test_bitensor import expansion_coords, left_to_right, random_bitensor, random_spinor

SQRT2 = math.sqrt(2.0)

# Regression fixtures: the gamma matrices as first derived from the module
# map by expanding the defining rule on the dyadic basis by hand.
GAMMA_REF = (
    np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1, 0], [0, 0, 0, -1], [-1, 0, 0, 0], [0, 1, 0, 0]], dtype=complex),
    np.array([[0, 0, 1j, 0], [0, 0, 0, 1j], [1j, 0, 0, 0], [0, 1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex),
)


def phi_dyad_reference(p, qbar, w):
    """Direct evaluation of the module rule on a dyad, independent of phi."""
    s_part = SQRT2 * eps_bar(w.sbar, qbar) * p
    co_part = SQRT2 * eps(p, w.s) * qbar
    return FourSpinor(s_part, co_part)


def random_four_spinor(rng):
    return FourSpinor(random_spinor(rng), conjugate(random_spinor(rng)))


# --- 4-spinors ----------------------------------------------------------------


def test_four_spinor_is_the_direct_sum_of_its_halves():
    rng = np.random.default_rng(19)
    for _ in range(50):
        s, sbar = random_spinor(rng), conjugate(random_spinor(rng))
        psi = FourSpinor(s, sbar)
        assert psi == FourSpinor.from_vec(np.r_[s.vec, sbar.vec])
        assert psi.vec.tobytes() == np.r_[s.vec, sbar.vec].tobytes()
        assert psi.s == s and psi.sbar == sbar
        assert type(psi.s) is Spinor2 and type(psi.sbar) is CoSpinor2
        assert FourSpinor(psi.s, psi.sbar) == psi
    zero = FourSpinor.from_vec(np.zeros(4))
    assert zero.s == Spinor2(0, 0) and zero.sbar == CoSpinor2(0, 0)


# --- the module map ---------------------------------------------------------


def test_phi_u0_fixes_plus_eigenvectors():
    g = phi(world_basis()[0])
    for v in (np.array([0, 1, 1, 0]), np.array([1, 0, 0, -1])):
        np.testing.assert_allclose(g @ v, v, atol=1e-14)


def test_phi_u0_negates_minus_eigenvectors():
    g = phi(world_basis()[0])
    for v in (np.array([1, 0, 0, 1]), np.array([0, 1, -1, 0])):
        np.testing.assert_allclose(g @ v, -v, atol=1e-14)


def test_phi_u0_column_action():
    # e1 -> -e2bar, e2 -> e1bar, e1bar -> e2, e2bar -> -e1
    g = phi(world_basis()[0])
    np.testing.assert_allclose(g[:, 0], [0, 0, 0, -1], atol=1e-14)
    np.testing.assert_allclose(g[:, 1], [0, 0, 1, 0], atol=1e-14)
    np.testing.assert_allclose(g[:, 2], [0, 1, 0, 0], atol=1e-14)
    np.testing.assert_allclose(g[:, 3], [-1, 0, 0, 0], atol=1e-14)


def test_phi_matches_dyadic_rule():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(300):
        p, q = random_spinor(rng), random_spinor(rng)
        qbar = conjugate(q)
        mat = phi(elementary(p, qbar))
        w = random_four_spinor(rng)
        expected = phi_dyad_reference(p, qbar, w)
        worst = max(worst, np.max(np.abs(mat @ w.vec - expected.vec)))
    assert worst <= 1e-13


def test_phi_is_linear_in_coefficients():
    rng = np.random.default_rng(21)
    X, Y = random_bitensor(rng), random_bitensor(rng)
    a, b = 0.7 - 0.2j, 1.5j
    np.testing.assert_allclose(
        phi(BiTensor(a * X.t + b * Y.t)), a * phi(X) + b * phi(Y), atol=1e-14
    )


# --- gamma matrices ----------------------------------------------------------


def test_gamma_regression_fixtures():
    for mu in range(4):
        np.testing.assert_allclose(gamma(mu), GAMMA_REF[mu], atol=1e-14)


def test_gamma0_squares_to_identity():
    np.testing.assert_allclose(gamma(0) @ gamma(0), np.eye(4), atol=1e-13)


def test_spatial_gammas_square_to_minus_identity():
    for mu in (1, 2, 3):
        np.testing.assert_allclose(gamma(mu) @ gamma(mu), -np.eye(4), atol=1e-13)


def test_gamma_pair_anticommutes():
    g1, g2 = gamma(1), gamma(2)
    np.testing.assert_allclose(g1 @ g2 + g2 @ g1, np.zeros((4, 4)), atol=1e-13)


def test_gamma_full_relation_table():
    eye = np.eye(4)
    for mu in range(4):
        for nu in range(4):
            anti = gamma(mu) @ gamma(nu) + gamma(nu) @ gamma(mu)
            np.testing.assert_allclose(anti, 2 * ETA[mu, nu] * eye, atol=1e-13)


def test_gamma_index_validation():
    with pytest.raises(ValueError):
        gamma(4)


def test_gamma_is_readonly():
    with pytest.raises(ValueError):
        gamma(0)[0, 0] = 5.0


# --- slash -------------------------------------------------------------------


def test_slash_basis_coordinate():
    np.testing.assert_array_equal(slash(MinkowskiVec(1, 0, 0, 0)), gamma(0))


def test_slash_squares_to_form():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(-10, 10, 4)
        defect = slash(p) @ slash(p) - q_form(p) * np.eye(4)
        worst = max(worst, np.max(np.abs(defect)))
    assert worst <= 1e-11


def test_slash_spectrum_scaling():
    vals = np.sort(np.linalg.eigvals(slash([3.0, 0, 0, 0])).real)
    np.testing.assert_allclose(vals, [-3, -3, 3, 3], atol=1e-12)


def test_slash_equals_phi_of_world_vector():
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = MinkowskiVec.from_coords(rng.normal(size=4))
        np.testing.assert_allclose(slash(x), phi(from_minkowski(x)), atol=1e-14)


def test_slash_linear_in_coordinates():
    rng = np.random.default_rng(24)
    p, q = rng.normal(size=4), rng.normal(size=4)
    np.testing.assert_allclose(slash(p + q), slash(p) + slash(q), atol=1e-14)


def test_slash_rejects_wrong_length():
    with pytest.raises(ValueError):
        slash([1.0, 2.0])


def test_slash_sums_left_to_right():
    coords = expansion_coords(np.random.default_rng(64))
    g = [gamma(mu) for mu in range(4)]
    expected = [left_to_right(c, g).tobytes() for c in coords]
    assert [slash(c).tobytes() for c in coords] == expected
    # Stacked rows equal the expansion of their own coordinates.
    assert [row.tobytes() for row in slash(coords)] == expected


# --- tau ----------------------------------------------------------------------


def test_tau_identity():
    np.testing.assert_array_equal(tau(SL2Element.identity()), np.eye(4))


def test_tau_diagonal_phase_on_rest_eigenvector():
    t = 0.9
    A = SL2Element([[cmath.exp(1j * t), 0], [0, cmath.exp(-1j * t)]])
    v = np.array([1, 0, 0, -1], dtype=complex)  # e1 - e2bar
    np.testing.assert_allclose(tau(A) @ v, cmath.exp(1j * t) * v, atol=1e-15)


def test_tau_homomorphism():
    rng = np.random.default_rng(25)
    worst = 0.0
    for _ in range(300):
        A, B = random_sl2(rng), random_sl2(rng)
        worst = max(worst, np.max(np.abs(tau(A @ B) - tau(A) @ tau(B))))
    assert worst <= 1e-12


def test_tau_inverse():
    rng = np.random.default_rng(26)
    for _ in range(100):
        A = random_sl2(rng)
        np.testing.assert_allclose(tau(A) @ tau(A.inverse()), np.eye(4), atol=1e-12)


def test_tau_minus_identity():
    minus = SL2Element(-np.eye(2))
    np.testing.assert_array_equal(tau(minus), -np.eye(4))


# --- anticommutation and equivariance ------------------------------------------


def test_anticommutator_u0_with_itself():
    u0 = world_basis()[0]
    assert np.max(np.abs(anticommutator_defect(u0, u0))) <= 1e-13


def test_anticommutator_orthogonal_pair():
    u = world_basis()
    assert np.max(np.abs(anticommutator_defect(u[1], u[2]))) <= 1e-13


def test_anticommutator_dyadic_sweep():
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(1000):
        X = elementary(random_spinor(rng), conjugate(random_spinor(rng)))
        Y = elementary(random_spinor(rng), conjugate(random_spinor(rng)))
        worst = max(worst, np.max(np.abs(anticommutator_defect(X, Y))))
    assert worst <= 1e-11


def test_anticommutator_general_bitensors():
    rng = np.random.default_rng(28)
    worst = 0.0
    for _ in range(300):
        worst = max(
            worst,
            np.max(np.abs(anticommutator_defect(random_bitensor(rng), random_bitensor(rng)))),
        )
    assert worst <= 1e-11


def test_equivariance_identity_is_exact():
    rng = np.random.default_rng(29)
    X = random_bitensor(rng)
    assert np.max(np.abs(equivariance_defect(SL2Element.identity(), X))) == 0


def test_equivariance_zero_bitensor():
    rng = np.random.default_rng(30)
    A = random_sl2(rng)
    assert np.max(np.abs(equivariance_defect(A, BiTensor(np.zeros((2, 2)))))) == 0


def test_equivariance_sweep():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(1000):
        A = random_sl2(rng, max_norm=10.0)
        X = random_bitensor(rng)
        worst = max(worst, np.max(np.abs(equivariance_defect(A, X))))
    assert worst <= 1e-9


def test_on_shell_spectrum():
    from twospinors import shell_point

    rng = np.random.default_rng(32)
    for _ in range(50):
        m = rng.uniform(0.5, 3.0)
        q = shell_point(m, *rng.normal(0, 2, 3))
        vals = np.sort(np.linalg.eigvals(slash(q.p)).real)
        np.testing.assert_allclose(vals, [-m, -m, m, m], atol=1e-10)


# --- stacked forms ------------------------------------------------------------


def test_stacked_slash_tau_and_norms_equal_scalar():
    rng = np.random.default_rng(27)
    coords = rng.normal(size=(50, 4)) * 10.0 ** rng.uniform(-3, 3, (50, 1))
    for row, s in zip(coords, slash(coords)):
        assert s.tobytes() == slash(row).tobytes()
    mats = [random_sl2(rng) for _ in range(50)]
    zero = np.zeros((2, 2))
    for A, t in zip(mats, tau_matrices(np.array([A.mat for A in mats]))):
        expected = np.block([[A.mat, zero], [zero, A.mat.conj()]])
        assert t.tobytes() == expected.tobytes() == tau(A).tobytes()
    vecs = rng.normal(size=(500, 4)) * 10.0 ** rng.uniform(-3, 3, (500, 4)) + 1j * rng.normal(size=(500, 4))
    for v, n in zip(vecs, spinor_norms(vecs).tolist()):
        assert n == FourSpinor.from_vec(v).norm()
