"""Spinor pairs, conjugation, the symplectic form, and unimodular actions."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospinors import (
    CoSpinor2,
    FourSpinor,
    SL2Element,
    Spinor2,
    act,
    act_bar,
    conjugate,
    cyclic_defect,
    eps,
    eps_bar,
)

E1 = Spinor2(1, 0)
E2 = Spinor2(0, 1)

finite = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, finite, finite)
spinors = st.builds(Spinor2, complexes, complexes)


def random_sl2(rng, max_norm=4.0):
    while True:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(d) < 0.25:
            continue
        m = m / cmath.sqrt(d)
        if np.linalg.norm(m) <= max_norm:
            return SL2Element(m)


# --- the coefficient value type ----------------------------------------------
# Spinor2, CoSpinor2 and FourSpinor share one storage: a read-only complex
# vector, validated once, with exact equality and Python complex arithmetic.

VALUE_TYPES = {"Spinor2": (Spinor2, 2), "CoSpinor2": (CoSpinor2, 2), "FourSpinor": (FourSpinor, 4)}
value_types = pytest.mark.parametrize("cls, n", VALUE_TYPES.values(), ids=VALUE_TYPES)


@value_types
def test_vec_is_stored_read_only(cls, n):
    source = np.arange(1, n + 1) * (1 - 2j)
    x = cls.from_vec(source)
    assert x.vec is x.vec
    assert x.vec.dtype == complex and x.vec.shape == (n,)
    with pytest.raises(ValueError, match="read-only"):
        x.vec[0] = 7
    source[0] = 7  # from_vec copied its input
    assert x.vec.tolist() == (np.arange(1, n + 1) * (1 - 2j)).tolist()


WRONG_LENGTHS = {
    "Spinor2-3": (Spinor2, [1, 2, 3]),
    "Spinor2-1": (Spinor2, [1]),
    "CoSpinor2-3": (CoSpinor2, [1, 2, 3]),
    "CoSpinor2-2x2": (CoSpinor2, [[1, 2], [3, 4]]),
    "FourSpinor-5": (FourSpinor, [1, 2, 3, 4, 5]),
    "FourSpinor-3": (FourSpinor, [1, 2, 3]),
    "FourSpinor-2x2": (FourSpinor, [[1, 2], [3, 4]]),
}


@pytest.mark.parametrize("cls, v", WRONG_LENGTHS.values(), ids=WRONG_LENGTHS)
def test_from_vec_refuses_wrong_shape(cls, v):
    with pytest.raises(ValueError, match="coefficients, got shape"):
        cls.from_vec(v)


@value_types
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, -float("inf"))])
def test_non_finite_coefficients_refused(cls, n, bad):
    with pytest.raises(ValueError, match=f"^{cls.__name__} components must be finite$"):
        cls.from_vec([1.0] * (n - 1) + [bad])


@value_types
def test_overflowing_arithmetic_refused(cls, n):
    # Python complex arithmetic: an overflow is a refused result, not a warning.
    x = cls.from_vec([1e308] * n)
    for make in (lambda: x + x, lambda: x - (-x), lambda: x * 10.0, lambda: 1j * 1e10 * x):
        with pytest.raises(ValueError, match="components must be finite"):
            make()


@value_types
def test_equality_and_hash_agree_on_signed_zeros(cls, n):
    x = cls.from_vec([complex(0.0, -0.0)] + [1.5] * (n - 1))
    y = cls.from_vec([complex(-0.0, 0.0)] + [1.5] * (n - 1))
    assert x == y and hash(x) == hash(y)
    assert x != cls.from_vec([complex(0.0, 1e-300)] + [1.5] * (n - 1))
    assert -x == cls.from_vec([0j] + [-1.5] * (n - 1))


def test_equality_distinguishes_types():
    assert Spinor2(1, 2j) != CoSpinor2(1, 2j)
    assert Spinor2(1, 2j) == Spinor2.from_vec([1, 2j])
    assert len({Spinor2(1, 2j), Spinor2(1.0, complex(-0.0, 2.0)), CoSpinor2(1, 2j)}) == 2


def arithmetic_coefficients(rng):
    """Random, huge/tiny and signed-zero real and imaginary parts."""
    parts = np.concatenate([
        rng.normal(size=40),
        rng.choice([-1.0, 1.0], 40) * 10.0 ** rng.uniform(-300, 300, 40),
        [0.0, -0.0, 0.0, -0.0, 1.5, -1.5],
    ])
    return [complex(a, b) for a, b in zip(parts, rng.permutation(parts))]


@value_types
def test_arithmetic_is_python_complex_per_entry(cls, n):
    rng = np.random.default_rng(41)
    coeffs = arithmetic_coefficients(rng)
    scalars = [complex(*rng.normal(size=2)), 1e-300j, 1e290 + 1e290j, 0j, complex(-0.0, 0.0),
               -0.0, 2.5, -3, np.complex128(0.5 - 2j)]

    def check(make, expected):
        if all(map(cmath.isfinite, expected)):
            assert make().vec.tobytes() == np.array(expected, dtype=complex).tobytes()
        else:
            with pytest.raises(ValueError, match="components must be finite"):
                make()

    for start in range(0, len(coeffs) - 2 * n + 1, n):
        a, b = coeffs[start:start + n], coeffs[start + n:start + 2 * n]
        x, y = cls.from_vec(a), cls.from_vec(b)
        check(lambda: x + y, [p + q for p, q in zip(a, b)])
        check(lambda: x - y, [p - q for p, q in zip(a, b)])
        check(lambda: -x, [-p for p in a])
        for k in scalars:
            check(lambda: x * k, [c * k for c in a])
            if not isinstance(k, np.generic):
                check(lambda: k * x, [c * k for c in a])


# --- conjugation ---------------------------------------------------------


def test_conjugate_basis():
    assert conjugate(E1) == CoSpinor2(1, 0)


def test_conjugate_scalar_rule():
    assert conjugate(Spinor2(1j, 0)) == CoSpinor2(-1j, 0)


def test_conjugate_involution():
    s = Spinor2(1 + 2j, 3 - 1j)
    assert conjugate(conjugate(s)) == s


def test_conjugate_is_antilinear():
    s = Spinor2(2 - 1j, 0.5j)
    lam = 0.3 + 0.7j
    assert conjugate(lam * s) == lam.conjugate() * conjugate(s)


def test_conjugate_rejects_other_types():
    with pytest.raises(TypeError):
        conjugate(np.array([1.0, 0.0]))


# --- symplectic forms ----------------------------------------------------


def test_eps_dyad_normalization():
    assert eps(E1, E2) == 1


def test_eps_vanishes_on_diagonal():
    x = Spinor2(0.3 + 1j, -2)
    assert eps(x, x) == 0


def test_eps_known_value():
    # determinant of the column pair: 2*4 - 1*3
    assert eps(Spinor2(2, 1), Spinor2(3, 4)) == 5


def test_eps_bar_dyad_normalization():
    assert eps_bar(CoSpinor2(1, 0), CoSpinor2(0, 1)) == 1


def test_eps_bar_antisymmetric():
    xbar = CoSpinor2(1j, 2)
    assert eps_bar(xbar, xbar) == 0


def test_eps_bar_conjugates_eps():
    x, y = Spinor2(1j, 0), Spinor2(0, 1)
    assert eps(x, y) == 1j
    assert eps_bar(conjugate(x), conjugate(y)) == -1j


@settings(max_examples=200, deadline=None)
@given(spinors, spinors)
def test_eps_antisymmetry(x, y):
    assert abs(eps(x, y) + eps(y, x)) <= 1e-15 * max(1.0, abs(eps(x, y)))


@settings(max_examples=200, deadline=None)
@given(spinors, spinors, spinors, complexes, complexes)
def test_eps_bilinearity(x, y, z, a, b):
    lhs = eps(a * x + b * y, z)
    rhs = a * eps(x, z) + b * eps(y, z)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@settings(max_examples=200, deadline=None)
@given(spinors, spinors)
def test_eps_bar_compatibility(x, y):
    assert abs(eps_bar(conjugate(x), conjugate(y)) - eps(x, y).conjugate()) <= 1e-14 * max(
        1.0, abs(eps(x, y))
    )


# --- cyclic identity ------------------------------------------------------


def test_cyclic_basis_example():
    d = cyclic_defect(E1, E2, E1 + E2)
    assert d == Spinor2(0, 0)


def test_cyclic_repeated_argument():
    a, c = Spinor2(1 - 1j, 2), Spinor2(0.5, 3j)
    assert cyclic_defect(a, a, c).norm() == 0


def test_cyclic_random_sweep():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        a, b, c = (
            Spinor2(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2)))
            for _ in range(3)
        )
        worst = max(worst, cyclic_defect(a, b, c).norm())
    assert worst <= 1e-12


@settings(max_examples=300, deadline=None)
@given(spinors, spinors, spinors)
def test_cyclic_identity_property(a, b, c):
    # coefficient magnitudes up to 10*sqrt(2); bound scales accordingly
    assert cyclic_defect(a, b, c).norm() <= 1e-11


# --- SL2 elements and actions ---------------------------------------------


def test_sl2_rejects_wrong_determinant():
    with pytest.raises(ValueError):
        SL2Element([[1, 0], [0, 2]])


def test_sl2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        SL2Element(np.eye(3))


def test_sl2_renormalize():
    drifted = [[1.0001, 0], [0, 1]]  # determinant off by 1e-4
    with pytest.raises(ValueError):
        SL2Element(drifted)
    A = SL2Element.renormalized(drifted)
    assert abs(A.det - 1) <= 1e-15


def test_sl2_inverse_is_adjugate():
    A = SL2Element([[2, 1], [1, 1]])
    np.testing.assert_allclose(A.inverse().mat @ A.mat, np.eye(2), atol=1e-15)


def test_act_identity():
    s = Spinor2(2j, -1)
    assert act(SL2Element.identity(), s) == s


def test_act_diagonal_phases():
    # diagonal unitary scales the dyad by opposite phases
    t = 0.7
    A = SL2Element([[cmath.exp(1j * t), 0], [0, cmath.exp(-1j * t)]])
    assert act(A, E1) == Spinor2(cmath.exp(1j * t), 0)
    assert act_bar(A, conjugate(E1)) == CoSpinor2(cmath.exp(-1j * t), 0)


def test_act_bar_naturality():
    rng = np.random.default_rng(3)
    for _ in range(100):
        A = random_sl2(rng)
        s = Spinor2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        lhs = act_bar(A, conjugate(s))
        rhs = conjugate(act(A, s))
        assert (lhs - rhs).norm() <= 1e-13


def test_eps_invariance_under_action():
    rng = np.random.default_rng(11)
    for _ in range(200):
        A = random_sl2(rng)
        x = Spinor2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        y = Spinor2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        assert abs(eps(act(A, x), act(A, y)) - eps(x, y)) <= 1e-12 * max(1.0, abs(eps(x, y)))


def test_action_is_homomorphism():
    rng = np.random.default_rng(13)
    for _ in range(200):
        A, B = random_sl2(rng), random_sl2(rng)
        s = Spinor2(complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        assert (act(A @ B, s) - act(A, act(B, s))).norm() <= 1e-12


def test_conj_matrix_determinant():
    rng = np.random.default_rng(17)
    for _ in range(50):
        A = random_sl2(rng)
        assert abs(A.conj().det - A.det.conjugate()) <= 1e-12
