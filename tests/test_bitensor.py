"""Bitensors, the reality involution, the world basis, and the Lorentz covering."""

import cmath
import math

import numpy as np
import pytest

from twospinors import (
    ETA,
    BiTensor,
    Momentum,
    LorentzMatrix,
    MinkowskiVec,
    NotReal,
    NumericalDrift,
    SL2Element,
    Spinor2,
    act_momentum,
    boost_rep,
    conjugate,
    elementary,
    eps,
    eps_bar,
    from_minkowski,
    h_form,
    involution_J,
    lorentz_of,
    pi_act,
    project_real,
    q_form,
    reality_defect,
    shell_point,
    to_minkowski,
    world_basis,
)
from twospinors.bitensor import DRIFT_TOL, REALITY_TOL, lorentz_defect

from test_spinor import random_sl2

SQRT2 = math.sqrt(2.0)
E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)


def random_bitensor(rng, scale=1.0):
    return BiTensor(rng.normal(0, scale, (2, 2)) + 1j * rng.normal(0, scale, (2, 2)))


def random_spinor(rng):
    return Spinor2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))


# --- elementary tensors ----------------------------------------------------


def test_elementary_basis_tensor():
    t = elementary(Spinor2(1, 0), conjugate(Spinor2(0, 1)))
    np.testing.assert_array_equal(t.t, E12)


def test_elementary_balancing_rule():
    # scaling the left slot by i equals conjugate-scaling the right slot
    a = elementary(1j * Spinor2(1, 0), conjugate(Spinor2(1, 0)))
    b = elementary(Spinor2(1, 0), conjugate(-1j * Spinor2(1, 0)))
    np.testing.assert_array_equal(a.t, 1j * E11)
    np.testing.assert_array_equal(b.t, 1j * E11)


def test_elementary_outer_product():
    t = elementary(Spinor2(1, 2), conjugate(Spinor2(3, 4j)))
    np.testing.assert_allclose(t.t, np.array([[3, -4j], [6, -8j]]), atol=0)


# --- reality involution -----------------------------------------------------


def test_involution_swaps_dyads():
    np.testing.assert_array_equal(involution_J(BiTensor(E12)).t, E21)


def test_involution_squares_to_identity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        T = random_bitensor(rng)
        np.testing.assert_array_equal(involution_J(involution_J(T)).t, T.t)


def test_involution_fixes_identity():
    np.testing.assert_array_equal(involution_J(BiTensor(np.eye(2))).t, np.eye(2))


def test_reality_defect_hermitian():
    assert reality_defect(BiTensor([[1, 2 + 1j], [2 - 1j, -3]])) == 0


def test_project_real_symmetrizes():
    np.testing.assert_array_equal(project_real(BiTensor(E12)).t, (E12 + E21) / 2)


def test_project_real_is_projector():
    rng = np.random.default_rng(1)
    for _ in range(100):
        assert reality_defect(project_real(random_bitensor(rng))) == 0


# --- world basis ------------------------------------------------------------


def test_world_basis_u0():
    u0 = world_basis()[0]
    np.testing.assert_allclose(u0.t, np.eye(2) / SQRT2, atol=1e-16)


def test_world_basis_is_real():
    for u in world_basis():
        assert reality_defect(u) == 0


def test_world_basis_form_values():
    u = world_basis()
    vals = [h_form(uj, uj) for uj in u]
    np.testing.assert_allclose(vals, [1, -1, -1, -1], atol=1e-14)


def test_world_basis_gram_is_minkowski():
    u = world_basis()
    gram = np.array([[h_form(u[i], u[j]) for j in range(4)] for i in range(4)])
    np.testing.assert_allclose(gram, ETA, atol=1e-14)
    signs = sorted(np.sign(np.linalg.eigvalsh(gram.real)))
    assert signs == [-1, -1, -1, 1]


# --- coordinates ------------------------------------------------------------


def test_from_minkowski_basis_vector():
    np.testing.assert_array_equal(
        from_minkowski(MinkowskiVec(1, 0, 0, 0)).t, world_basis()[0].t
    )


def test_round_trip_coordinates():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = MinkowskiVec.from_coords(rng.normal(size=4))
        back = to_minkowski(from_minkowski(x))
        np.testing.assert_allclose(back.coords, x.coords, atol=1e-14)


def test_round_trip_bitensor():
    rng = np.random.default_rng(3)
    for _ in range(100):
        T = project_real(random_bitensor(rng))
        np.testing.assert_allclose(from_minkowski(to_minkowski(T)).t, T.t, atol=1e-14)


def test_from_minkowski_closed_form():
    # component expansion of the world basis, with the (1,2) entry x1 + i*x2
    rng = np.random.default_rng(4)
    for _ in range(50):
        x0, x1, x2, x3 = rng.normal(size=4)
        expected = np.array(
            [[x0 + x3, x1 + 1j * x2], [x1 - 1j * x2, x0 - x3]]
        ) / SQRT2
        np.testing.assert_allclose(
            from_minkowski(MinkowskiVec(x0, x1, x2, x3)).t, expected, atol=1e-15
        )


def test_to_minkowski_rejects_non_hermitian():
    with pytest.raises(NotReal):
        to_minkowski(BiTensor(E12))


# --- the bilinear form -------------------------------------------------------


def test_h_form_u0():
    u0 = world_basis()[0]
    assert abs(h_form(u0, u0) - 1) <= 1e-14


def test_h_form_orthogonality():
    u = world_basis()
    for i in range(4):
        for j in range(4):
            if i != j:
                assert abs(h_form(u[i], u[j])) <= 1e-15


def test_h_form_dyadic_example():
    lhs = h_form(BiTensor(E11), BiTensor(E22))
    assert lhs == 1


def test_h_form_matches_dyadic_definition():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        a, c = random_spinor(rng), random_spinor(rng)
        bbar, dbar = conjugate(random_spinor(rng)), conjugate(random_spinor(rng))
        lhs = h_form(elementary(a, bbar), elementary(c, dbar))
        rhs = eps(a, c) * eps_bar(bbar, dbar)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_h_form_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(200):
        X, Y = random_bitensor(rng), random_bitensor(rng)
        assert abs(h_form(X, Y) - h_form(Y, X)) <= 1e-14


def test_h_form_real_on_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(200):
        X = project_real(random_bitensor(rng))
        Y = project_real(random_bitensor(rng))
        assert abs(h_form(X, Y).imag) <= 1e-14


def test_q_form_polynomial():
    v = MinkowskiVec(2, 1, -1, 3)
    assert q_form(v) == 4 - 1 - 1 - 9
    T = from_minkowski(v)
    assert abs(h_form(T, T) - q_form(v)) <= 1e-13


# --- representation and covering ---------------------------------------------


def test_pi_act_identity():
    rng = np.random.default_rng(8)
    T = random_bitensor(rng)
    np.testing.assert_array_equal(pi_act(SL2Element.identity(), T).t, T.t)


def test_pi_act_preserves_h():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(1000):
        A = random_sl2(rng)
        X, Y = random_bitensor(rng), random_bitensor(rng)
        worst = max(worst, abs(h_form(pi_act(A, X), pi_act(A, Y)) - h_form(X, Y)))
    assert worst <= 1e-10


def test_pi_act_commutes_with_involution():
    rng = np.random.default_rng(10)
    for _ in range(300):
        A, T = random_sl2(rng), random_bitensor(rng)
        defect = pi_act(A, involution_J(T)).t - involution_J(pi_act(A, T)).t
        assert np.max(np.abs(defect)) <= 1e-13


def test_pi_act_boost_of_u0():
    A = SL2Element(np.diag([SQRT2, 1 / SQRT2]))
    v = to_minkowski(pi_act(A, world_basis()[0]))
    np.testing.assert_allclose(v.coords, [1.25, 0, 0, 0.75], atol=1e-14)


def test_lorentz_of_identity():
    np.testing.assert_allclose(lorentz_of(SL2Element.identity()).mat, np.eye(4), atol=1e-15)


def test_lorentz_of_diagonal_phase_is_rotation():
    # diag(e^{it}, e^{-it}) covers the rotation by 2t in the (x1, x2) plane
    for t in (0.3, 1.1, -0.6):
        A = SL2Element([[cmath.exp(1j * t), 0], [0, cmath.exp(-1j * t)]])
        lam = lorentz_of(A).mat
        c, s = math.cos(2 * t), math.sin(2 * t)
        expected = np.eye(4)
        expected[1:3, 1:3] = [[c, -s], [s, c]]
        np.testing.assert_allclose(lam, expected, atol=1e-15)


def test_lorentz_of_eta_orthogonality():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        m = lorentz_of(random_sl2(rng)).mat
        worst = max(worst, np.max(np.abs(m.T @ ETA @ m - ETA)))
    assert worst <= 1e-10


def test_lorentz_of_homomorphism():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(500):
        A, B = random_sl2(rng), random_sl2(rng)
        worst = max(
            worst,
            np.max(np.abs(lorentz_of(A @ B).mat - lorentz_of(A).mat @ lorentz_of(B).mat)),
        )
    assert worst <= 1e-10


def test_lorentz_of_sign_kernel():
    rng = np.random.default_rng(13)
    for _ in range(100):
        A = random_sl2(rng)
        np.testing.assert_array_equal(lorentz_of(A).mat, lorentz_of(-A).mat)


def test_lorentz_of_drift_guard():
    with pytest.raises(NumericalDrift):
        lorentz_of(SL2Element(np.diag([1e5, 1e-5])))


def test_lorentz_matrix_rejects_non_lorentz():
    with pytest.raises(ValueError):
        LorentzMatrix(2 * np.eye(4))


def test_lorentz_matrix_rejects_time_reversal():
    m = np.diag([-1.0, -1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        LorentzMatrix(m)


def test_q_form_invariant_under_transport():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(500):
        A = random_sl2(rng)
        x = MinkowskiVec.from_coords(rng.normal(size=4))
        moved = to_minkowski(pi_act(A, from_minkowski(x)))
        scale = max(1.0, np.sum(x.coords**2), np.sum(moved.coords**2))
        worst = max(worst, abs(q_form(moved) - q_form(x)) / scale)
    assert worst <= 1e-10


# --- the stacked transport kernel under to_minkowski and lorentz_of ----------------
# The reference functions are the unstacked forms: one A T A* product and one
# trace per world-basis vector, column by column, with the checks in order.


def reference_pi_act(A, T):
    return BiTensor(A.mat @ T.t @ A.mat.conj().T)


def reference_reality_defect(T):
    return float(np.linalg.norm(T.t - T.t.conj().T))


def reference_to_minkowski(T):
    defect = reference_reality_defect(T)
    if defect > REALITY_TOL:
        raise NotReal(f"reality defect {defect:.3e} exceeds {REALITY_TOL}")
    return MinkowskiVec(*(np.trace(uj.t @ T.t).real for uj in world_basis()))


def reference_lorentz_of(A):
    try:
        cols = [reference_to_minkowski(reference_pi_act(A, uj)).coords for uj in world_basis()]
    except NotReal as exc:
        raise NumericalDrift(f"transport of the world basis drifted: {exc}") from exc
    m = np.column_stack(cols)
    defect = lorentz_defect(m)
    if defect > DRIFT_TOL:
        raise NumericalDrift(f"metric-orthogonality defect {defect:.3e} exceeds {DRIFT_TOL}")
    return LorentzMatrix(m)


def outcome(f, *args):
    """The bytes of f's array result, or the exact type and message of its
    error; numpy's overflow warnings are silenced, so both forms can be run
    on overflowing inputs."""
    with np.errstate(all="ignore"):
        try:
            r = f(*args)
        except ValueError as exc:
            return type(exc), str(exc)
    r = getattr(r, "mat", getattr(r, "coords", r))
    return np.asarray(r).tobytes()


def spread_sl2(rng, max_norm):
    """Unimodular matrix from entries of log-uniform magnitude, so that
    Frobenius norms spread from 1 up to max_norm."""
    while True:
        m = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) * 10.0 ** rng.uniform(-2, 2, (2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(d) < 1e-3 * np.sum(np.abs(m) ** 2):
            continue
        m = m / cmath.sqrt(d)
        if np.linalg.norm(m) <= max_norm:
            try:
                return SL2Element(m)
            except ValueError:
                continue


def sweep_matrices(rng):
    """Random SL2 matrices with norms up to 1e3, then canonical boosts with
    |p|/m log-uniform in [1e-3, 1e4]."""
    mats = [random_sl2(rng) for _ in range(100)]
    mats += [spread_sl2(rng, max_norm) for max_norm in (50.0, 1e3) for _ in range(150)]
    for _ in range(300):
        m = 10 ** rng.uniform(-1, 1)
        d = rng.normal(size=3)
        p = m * 10 ** rng.uniform(-3, 4) * d / np.linalg.norm(d)
        try:
            mats.append(boost_rep(shell_point(m, *p.tolist())))
        except ValueError:
            pass  # the absolute shell and determinant bounds refuse some large |p|/m
    return mats


def test_stacked_lorentz_of_equals_column_by_column():
    rng = np.random.default_rng(60)
    mats = sweep_matrices(rng)
    mats += [SL2Element(np.diag([cmath.exp(1j * t), cmath.exp(-1j * t)])) for t in (0.0, math.pi / 2, math.pi)]
    mats += [SL2Element([[0, 1], [-1, 0]]), SL2Element([[0, 1j], [1j, 0]]), SL2Element(np.diag([1e200, 1e-200]))]
    outcomes = [outcome(lorentz_of, A) for A in mats]
    assert outcomes == [outcome(reference_lorentz_of, A) for A in mats]
    # Both the accepted and the refused branch are exercised.
    assert 0 < sum(isinstance(o, tuple) for o in outcomes) < len(outcomes) // 2


def test_stacked_to_minkowski_equals_scalar():
    rng = np.random.default_rng(61)
    tensors = [pi_act(A, from_minkowski(MinkowskiVec.from_coords(rng.normal(size=4))))
               for A in sweep_matrices(rng)]
    tensors += [random_bitensor(rng, 10.0 ** rng.uniform(-3, 3)) for _ in range(200)]
    tensors += [BiTensor(np.diag([1e308, 1e308])), BiTensor([[1e308, 1e308], [-1e308, 1]])]
    for T in tensors:
        assert outcome(to_minkowski, T) == outcome(reference_to_minkowski, T)
        with np.errstate(over="ignore"):
            defects = reality_defect(T), reference_reality_defect(T)
        assert np.float64(defects[0]).tobytes() == np.float64(defects[1]).tobytes()
    pairs = [(T, outcome(to_minkowski, T)) for T in tensors]
    assert any(isinstance(o, tuple) and o[0] is NotReal for _, o in pairs)


# Exception type and message of refused inputs; these rows are the output of
# the column-by-column forms above.  numpy's overflow warnings, which the
# unstacked matrix product prints on the last row, are not part of the table.
TRANSPORT_ERRORS = [
    ("drift", lambda: lorentz_of(SL2Element(np.diag([1e5, 1e-5]))),
     NumericalDrift, "metric-orthogonality defect 1.346e+03 exceeds 1e-08"),
    ("boost-1e3", lambda: lorentz_of(boost_rep(shell_point(1.0, 0.0, 0.0, 1e3))),
     ValueError, "metric-orthogonality defect 1.198e-10 exceeds 1e-10"),
    ("non-hermitian", lambda: to_minkowski(BiTensor([[1, 2], [3, 4]])),
     NotReal, "reality defect 1.414e+00 exceeds 1e-10"),
    ("act-overflow", lambda: act_momentum(SL2Element(np.diag([1e200, 1e-200])), Momentum(1.0, 0.0, 0.0, 0.5)),
     ValueError, "bitensor entries must be finite"),
]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("call, kind, message", [row[1:] for row in TRANSPORT_ERRORS],
                         ids=[row[0] for row in TRANSPORT_ERRORS])
def test_transport_error_parity(call, kind, message):
    with pytest.raises(ValueError) as info:
        call()
    assert (type(info.value), str(info.value)) == (kind, message)


@pytest.mark.parametrize("call", [row[1] for row in TRANSPORT_ERRORS], ids=[row[0] for row in TRANSPORT_ERRORS])
def test_transport_errors_print_no_warning(call):
    # The tier-1 configuration turns RuntimeWarnings into errors.
    with pytest.raises(ValueError):
        call()
