"""Bitensors, the reality involution, the world basis, and the Lorentz covering."""

import cmath
import itertools
import math

import numpy as np
import pytest

import twospinors
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
    slash,
    to_minkowski,
    world_basis,
)
from twospinors.bitensor import (
    _WORLD_STACK,
    REALITY_TOL,
    _covering,
    _dyads,
    _involution,
    _lorentz_test,
    _polar,
    _transport,
    _world_coords,
    lorentz_defect,
)

from test_spinor import extreme_matrices, random_sl2

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


def test_bitensor_negation_is_entrywise():
    X = BiTensor([[1, 2 + 1j], [complex(0.0, -0.0), -3e-300]])
    assert (-X).t.tobytes() == (-X.t).tobytes()
    assert (X + -X).t.tolist() == np.zeros((2, 2)).tolist()


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


def test_reality_defect_overflow_is_inf():
    # T - T* overflows; the tier-1 configuration turns RuntimeWarnings into errors.
    assert reality_defect(BiTensor([[1e308, 1e308], [-1e308, 1]])) == math.inf


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


def test_momentum_is_minkowski_vec():
    assert twospinors.Momentum is twospinors.MinkowskiVec


# --- four-vector storage and the one coordinate accessor ----------------------


@pytest.mark.parametrize("n", [3, 5])
def test_four_vector_length_is_refused_alike(n):
    c = [1.0, 0.0, 0.0, 0.0, 7.0][:n]
    message = rf"^expected 4 coordinates, got shape \({n},\)$"
    for accessor in (Momentum.from_coords, q_form, slash):
        with pytest.raises(ValueError, match=message):
            accessor(c)


def test_momentum_coords_are_stored_read_only():
    q = shell_point(1.0, 0.3, -0.2, 0.1)
    assert q.p.coords is q.p.coords
    with pytest.raises(ValueError):
        q.p.coords[0] = 2.0
    c = np.array([2.0, 0.1, 0.2, 0.3])
    p = Momentum.from_coords(c)
    c[0] = 5.0
    assert p.p0 == 2.0 and p == Momentum(2.0, 0.1, 0.2, 0.3)


def test_momentum_refuses_non_finite_coordinates():
    for c in ([math.inf, 0, 0, 0], [1.0, 0, math.nan, 0]):
        with pytest.raises(ValueError, match=r"^momentum coordinates must be finite$"):
            Momentum.from_coords(c)
        with pytest.raises(ValueError, match=r"^momentum coordinates must be finite$"):
            Momentum(*c)


def test_momentum_equality_is_exact_and_hash_agrees():
    a, b = Momentum(1, 0, 0, 0.5), Momentum.from_coords([1.0, 0.0, -0.0, 0.5])
    assert a == b and hash(a) == hash(b)
    assert a != Momentum(1.0, 0.0, 0.0, 0.5 + 2**-53)
    assert a != (1.0, 0.0, 0.0, 0.5)
    assert len({a, b, Momentum(2, 0, 0, 0)}) == 2
    assert eval(repr(a), {"Momentum": Momentum}) == a
    # MassShellPoint's dataclass == and hash compare its Momentum.
    q1, q2 = shell_point(1.0, 0.3, 0.0, 0.0), shell_point(1.0, 0.3, 0.0, 0.0)
    assert q1 == q2 and hash(q1) == hash(q2) and len({q1, q2}) == 1
    assert q1 != shell_point(1.0, 0.3, 0.0, 1e-9)


def test_stacked_q_form_equals_rows():
    rows = expansion_coords(np.random.default_rng(64))
    rows = rows[np.all(np.abs(rows) < 1e150, axis=-1)]
    stacked = q_form(rows)
    assert stacked.shape == rows.shape[:-1]
    assert stacked.tobytes() == np.array([q_form(c) for c in rows]).tobytes()
    assert all(type(q_form(c)) is float for c in rows[:5])
    # A square stack of stacks, where a transposed result would go unnoticed
    # by its shape.
    cube = rows[:225].reshape(15, 15, 4)
    assert q_form(cube).tobytes() == np.array([[q_form(c) for c in plane] for plane in cube]).tobytes()


# --- the basis expansion under from_minkowski, boost_matrices and slash ----------


def expansion_coords(rng):
    """Coordinate rows that tell the left-to-right sum from other ways of
    forming it: random rows, magnitudes spread over 1e-300..1e300, and every
    mix of 0.0, -0.0 and one nonzero value (a sum started from an accumulator
    at +0 turns an all -0.0 entry into +0.0)."""
    rows = list(rng.normal(size=(100, 4)))
    rows += list(rng.choice([-1.0, 1.0], (200, 4)) * 10.0 ** rng.uniform(-300, 300, (200, 4)))
    rows += [np.array(c) for c in itertools.product((0.0, -0.0, -1.25), repeat=4)]
    return np.array(rows)


def left_to_right(c, basis):
    """c0 b0 + c1 b1 + c2 b2 + c3 b3, written out and summed left to right."""
    c0, c1, c2, c3 = (float(x) for x in c)
    return ((c0 * basis[0] + c1 * basis[1]) + c2 * basis[2]) + c3 * basis[3]


def test_from_minkowski_sums_left_to_right():
    u = [uj.t for uj in world_basis()]
    for c in expansion_coords(np.random.default_rng(63)):
        assert from_minkowski(MinkowskiVec.from_coords(c)).t.tobytes() == left_to_right(c, u).tobytes()


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


def test_h_form_overflow_is_silent():
    # The determinant products overflow: det(X + Y) and det(X) are inf and
    # their difference is nan, with no RuntimeWarning (the suite turns one
    # into a failure).  The entry sum X + Y itself stays finite here.
    h = h_form(BiTensor([[1e200, 0], [0, 1e200]]), BiTensor([[1, 0], [0, 1]]))
    assert cmath.isnan(h)


def test_h_form_overflowing_entry_sum_is_silent():
    # 1e308 + 1e308 passes the float range in the entry sum X + Y itself.
    X = BiTensor([[1e308, 0], [0, 1]])
    assert cmath.isnan(h_form(X, X))


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


@pytest.mark.parametrize("m, message", [
    (2 * np.eye(4), "^metric-orthogonality defect 3.000e\\+00 exceeds 1e-10$"),
    (np.diag([1.0, 1.0, 1.0, -1.0]), "^determinant -1.0 is not 1 to within 1e-10$"),
    (np.diag([-1.0, -1.0, 1.0, 1.0]), "^time-time entry -1.0 violates orthochronicity$"),
], ids=["metric", "parity", "time-reversal"])
def test_lorentz_matrix_refusals_are_typed(m, message):
    with pytest.raises(NumericalDrift, match=message):
        LorentzMatrix(m)


def identity_with(i, j, value):
    m = np.eye(4)
    m[i, j] = value
    return m


@pytest.mark.parametrize("m", [np.full((4, 4), math.nan), identity_with(0, 0, math.inf),
                               identity_with(2, 1, -math.inf)], ids=["all-nan", "inf", "minus-inf"])
def test_lorentz_matrix_rejects_non_finite(m):
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
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
    cols = []
    for j, uj in enumerate(world_basis()):
        t = A.mat @ uj.t @ A.mat.conj().T
        defect = float(np.linalg.norm(t - t.conj().T))
        coords = np.array([np.trace(uk.t @ t).real for uk in world_basis()])
        if not (defect <= REALITY_TOL and np.isfinite(coords).all()):
            raise NumericalDrift(f"transport of world basis vector u{j} is not a finite real vector "
                                 f"(reality defect {defect:.3e}, bound {REALITY_TOL})")
        cols.append(coords)
    return LorentzMatrix(np.column_stack(cols))


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


def test_covering_of_a_stack_equals_lorentz_of():
    # A stack of matrices through the same transport, coordinates and mask
    # gives lorentz_of's matrix and metric defect bit for bit where it
    # succeeds, and a rejected row where it refuses.
    rng = np.random.default_rng(61)
    mats = sweep_matrices(rng) + [SL2Element(np.diag([1e200, 1e-200])), SL2Element([[0, 1j], [1j, 0]])]
    L, real, _ = _covering(np.array([A.mat for A in mats]))
    accepted = real.all(axis=-1) & lorentz_mask(L)
    stacked_defects = lorentz_defect(L)
    for A, row, d, ok in zip(mats, L, stacked_defects.tolist(), accepted.tolist()):
        try:
            mat = lorentz_of(A).mat
        except NumericalDrift:
            assert not ok
        else:
            assert ok and row.tobytes() == mat.tobytes()
            assert np.float64(d).tobytes() == np.float64(lorentz_defect(mat)).tobytes()
    assert 0 < accepted.sum() < len(mats)


def lorentz_mask(L):
    """LorentzMatrix's check of stacked matrices: finite entries and the three
    verdicts of its test."""
    _, _, (metric, unit, forward) = _lorentz_test(L)
    return np.isfinite(L).all(axis=(-2, -1)) & metric & unit & forward


def test_proper_lorentz_mask_refuses_what_lorentz_matrix_refuses():
    refused = [2 * np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0]), np.diag([-1.0, -1.0, 1.0, 1.0]),
               np.full((4, 4), math.nan), identity_with(0, 0, math.inf), identity_with(1, 2, 1e-9)]
    for m in refused:
        with pytest.raises(ValueError):
            LorentzMatrix(m)
    assert lorentz_mask(np.array(refused)).tolist() == [False] * len(refused)
    assert lorentz_mask(np.array([np.eye(4), lorentz_of(boost_rep(shell_point(1, 3, 0, 0))).mat])).all()


def test_stacked_transport_equals_pi_act():
    rng = np.random.default_rng(62)
    mats = [random_sl2(rng) for _ in range(50)]
    tensors = [random_bitensor(rng) for _ in range(50)]
    stacked = _transport(np.array([A.mat for A in mats]), np.array([T.t for T in tensors]))
    for A, T, row in zip(mats, tensors, stacked):
        assert row.tobytes() == pi_act(A, T).t.tobytes()


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


def trace_coords(t):
    """World coordinates as the real parts of the traces of the products with
    the world basis: the reference of _world_coords' closed form."""
    with np.errstate(all="ignore"):
        return np.trace(_WORLD_STACK @ t[..., None, :, :], axis1=-2, axis2=-1).real


def test_world_coords_are_the_trace_bit_for_bit():
    # Extreme finite rows, Hermitian or not: the closed form gives the
    # trace's coordinates bit for bit (signed zeros count), in a one-matrix
    # call and in stacks.  A row with a non-finite entry gets the same defect
    # and the same verdict; its coordinates are unspecified.
    rng = np.random.default_rng(64)
    t = extreme_matrices(rng, 17 * 4 * 150)[: 17 * 4 * 150]
    hermitian = t[1::2]  # a view: every other row made Hermitian
    hermitian[:, 1, 0] = np.conj(hermitian[:, 0, 1])
    hermitian[:, [0, 1], [0, 1]] = hermitian[:, [0, 1], [0, 1]].real
    finite = np.isfinite(t).all(axis=(-2, -1))
    assert 0 < (~finite).sum() < len(t) // 10
    # Each row's reality defect, as reference_reality_defect computes it.
    with np.errstate(all="ignore"):
        reference = np.array([np.linalg.norm(m - m.conj().T) for m in t])
    for shape in ((2, 2), (4, 2, 2), (17, 4, 2, 2)):
        rows = int(np.prod(shape[:-2]))
        for stack, ok, ref in zip(t.reshape((-1,) + shape), finite.reshape(-1, rows), reference.reshape(-1, rows)):
            coords, defects, real = _world_coords(stack)
            assert coords.shape == shape[:-2] + (4,)
            flat = coords.reshape(-1, 4)
            assert (flat[ok].view(np.int64) == trace_coords(stack).reshape(-1, 4)[ok].view(np.int64)).all()
            assert (np.reshape(defects, -1).view(np.int64) == ref.view(np.int64)).all()
            assert np.reshape(real, -1).tolist() == (ref <= REALITY_TOL).tolist()
    # Zero coordinates are +0.0, as the trace's sum gives them.
    assert _world_coords(np.full((2, 2), complex(-0.0, -0.0)))[0].view(np.int64).tolist() == [0] * 4


def extreme_sl2(rng, log10_norm):
    """A diagonal or anti-diagonal unimodular matrix with random phases and
    Frobenius norm about 10**log10_norm: the only unimodular matrices whose
    determinant stays exact up to the double range."""
    s, phase = 10.0 ** log10_norm, cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    a, b = s * phase, 1 / (s * phase)
    return SL2Element([[a, 0], [0, b]] if rng.random() < 0.5 else [[0, a], [-b, 0]])


def test_lorentz_of_refusals_are_typed_up_to_overflow(recwarn):
    """Frobenius norms from 1 to past the double range: lorentz_of either
    returns a checked LorentzMatrix or raises NumericalDrift, and never warns."""
    rng = np.random.default_rng(62)
    mats = sweep_matrices(rng)
    mats += [extreme_sl2(rng, e) for e in rng.uniform(0, 300, 400)]
    mats += [extreme_sl2(rng, e) for e in (76, 77, 154, 155, 307)]
    mats.append(SL2Element(np.diag([1e200, 1e-200])))
    refusals = []
    for A in mats:
        try:
            lorentz_of(A)
        except ValueError as exc:
            assert type(exc) is NumericalDrift, (A, exc)
            refusals.append(str(exc))
    assert not recwarn.list
    # Both the column check and the metric check refuse some of the sweep.
    assert any(r.startswith("transport of world basis vector") for r in refusals)
    assert any(r.startswith("metric-orthogonality defect") for r in refusals)
    assert len(refusals) < len(mats)


# Exception type and message of refused inputs; these rows are the output of
# the column-by-column forms above.  numpy's overflow warnings, which the
# unstacked matrix product prints on the last row, are not part of the table.
TRANSPORT_ERRORS = [
    ("drift", lambda: lorentz_of(SL2Element(np.diag([1e5, 1e-5]))),
     NumericalDrift, "metric-orthogonality defect 1.346e+03 exceeds 1e-10"),
    ("boost-1e3", lambda: lorentz_of(boost_rep(shell_point(1.0, 0.0, 0.0, 1e3))),
     NumericalDrift, "metric-orthogonality defect 1.198e-10 exceeds 1e-10"),
    ("non-hermitian", lambda: to_minkowski(BiTensor([[1, 2], [3, 4]])),
     NotReal, "reality defect 1.414e+00 exceeds 1e-10"),
    ("act-overflow", lambda: act_momentum(SL2Element(np.diag([1e200, 1e-200])), Momentum(1.0, 0.0, 0.0, 0.5)),
     ValueError, "bitensor entries must be finite"),
    ("expansion-overflow", lambda: act_momentum(SL2Element.identity(), Momentum(1.7e308, 0.0, 0.0, 1.7e308)),
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


def test_stacked_form_dyads_and_involution_equal_one_bitensor():
    # The kernels under h_form, elementary and involution_J, on stacks, give
    # each row of the one-value result bit for bit.
    rng = np.random.default_rng(63)
    xs = [random_bitensor(rng, 10.0 ** e) for e in rng.uniform(-100, 100, 60)]
    ys = [random_bitensor(rng) for _ in xs]
    s = rng.normal(size=(2, 60, 2)) + 1j * rng.normal(size=(2, 60, 2))
    forms = _polar(np.array([X.t for X in xs]), np.array([Y.t for Y in ys]))
    dyads = _dyads(s[0], np.conj(s[1]))
    flips = _involution(np.array([X.t for X in xs]))
    for X, Y, a, b, h, d, j in zip(xs, ys, s[0], s[1], forms, dyads, flips):
        assert np.complex128(h_form(X, Y)).tobytes() == h.tobytes()
        assert elementary(Spinor2.from_vec(a), conjugate(Spinor2.from_vec(b))).t.tobytes() == d.tobytes()
        assert involution_J(X).t.tobytes() == j.tobytes()
