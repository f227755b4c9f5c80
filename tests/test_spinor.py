"""Spinor pairs, conjugation, the symplectic form, and unimodular actions."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospinors import (
    CoSpinor2,
    Degenerate,
    FourSpinor,
    NumericalDrift,
    SL2Element,
    Spinor2,
    act,
    act_bar,
    conjugate,
    cyclic_defect,
    eps,
    eps_bar,
)
from twospinors.momentum import canonical_boosts
from twospinors.spinor import _adjugate, _cmul, _cyclic, _det2, _eps, _unimodular

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


def test_coefficient_accessors():
    s = Spinor2(1 + 2j, -3.0)
    assert (s.c1, s.c2) == (1 + 2j, -3 + 0j)
    assert type(s.c1) is complex and type(s.c2) is complex


def test_arithmetic_refuses_mixed_types():
    # Spinor2 and CoSpinor2 are different spaces: neither sum nor difference exists.
    s, sbar = Spinor2(1, 2j), CoSpinor2(1, 2j)
    assert s.__add__(sbar) is NotImplemented and s.__sub__(sbar) is NotImplemented
    with pytest.raises(TypeError):
        s + sbar
    with pytest.raises(TypeError):
        s - sbar


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


def test_sl2_determinant_refusal_is_typed():
    with pytest.raises(NumericalDrift, match=r"^determinant \(2\+0j\) differs from 1 by more than 1e-12; "
                                             "renormalize first$"):
        SL2Element([[1, 0], [0, 2]])


@pytest.mark.parametrize("mat", [
    [[1e200, 1e200], [1e200, 1e200]],  # det is inf - inf = nan
    [[1.3e154, 0], [0, 1.3e154 + 1.3e154j]],  # det finite, |det - 1| overflows
    [[1e200, 0], [0, 1e200]],  # det is inf
])
def test_sl2_refuses_overflowing_determinant(mat):
    # Tier-1 turns a RuntimeWarning into a failure: the refusal is silent.
    with pytest.raises(NumericalDrift, match=r"^determinant .* differs from 1 by more than 1e-12"):
        SL2Element(mat)


def test_sl2_rejects_wrong_shape():
    with pytest.raises(ValueError):
        SL2Element(np.eye(3))


def test_sl2_renormalize():
    drifted = [[1.0001, 0], [0, 1]]  # determinant off by 1e-4
    with pytest.raises(ValueError):
        SL2Element(drifted)
    A = SL2Element.renormalized(drifted)
    assert abs(A.det - 1) <= 1e-15


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324, 2.0**-1000, 3.0])
def test_renormalized_is_scale_free(scale):
    # The input is scaled by a power of two before the determinant is taken,
    # so no extreme scale overflows or underflows it.
    assert SL2Element.renormalized(scale * np.eye(2)).mat.tolist() == np.eye(2).tolist()
    drifted = np.array([[1.0001, 0.3j], [0.2, 1.0]])
    for k in (-900, -1, 1, 900):
        assert (SL2Element.renormalized(np.ldexp(1.0, k) * drifted).mat.tobytes()
                == SL2Element.renormalized(drifted).mat.tobytes())


# The first three have entries of very different magnitudes: scaled by the
# largest entry alone, the smallest would underflow and the matrix look singular.
@pytest.mark.parametrize("mat", [
    [[1e200, 0], [0, 1e-200]],
    [[3e-170, 0], [0, 1e170]],
    [[1e300, 1e-300], [0, 1e-300]],
    [[2, 1], [1e-3, 0.5]],
    [[1.0001, 0.3j], [0.2, 1]],
])
def test_renormalized_divides_by_the_root_of_the_determinant(mat):
    m = np.array(mat, dtype=complex)
    assert SL2Element.renormalized(mat).mat.tobytes() == (m / cmath.sqrt(_det2(m))).tobytes()


@pytest.mark.parametrize("mat", [np.zeros((2, 2)), [[1, 2], [2, 4]]])
def test_renormalized_refuses_a_singular_matrix(mat):
    with pytest.raises(Degenerate, match="^cannot renormalize a singular matrix$"):
        SL2Element.renormalized(mat)


def test_renormalized_refuses_an_unrepresentable_result_silently():
    # The determinant is about 1e-12, so the first entry would become 1e314.
    with pytest.raises(ValueError, match="^matrix entries must be finite$"):
        SL2Element.renormalized([[1e308, 0], [0, 1e-320]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_renormalized_refuses_non_finite_entries_silently(bad):
    with pytest.raises(ValueError, match=r"^matrix entries must be finite$"):
        SL2Element.renormalized([[bad, 0], [0, 1]])


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
    # act and act_bar run the same kernel (spinor._act), so the two sides
    # agree bit for bit, also on coefficients far from 1.
    rng = np.random.default_rng(3)
    for scale in (1.0, 1e100, 1e-100):
        for _ in range(100):
            A = random_sl2(rng)
            s = Spinor2(complex(*rng.normal(size=2)) * scale, complex(*rng.normal(size=2)) * scale)
            assert act_bar(A, conjugate(s)) == conjugate(act(A, s))


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


def _det_stack(rng):
    # Random complex matrices at Frobenius scales 1e-5..1e5, stacked boosts,
    # and edge rows: an overflowing product, nan entries, a -0.0 imaginary part.
    scale = 10.0 ** rng.uniform(-5, 5, (500, 1, 1))
    random = scale * (rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))
    spatial = rng.normal(size=(3, 200)) * 10.0 ** rng.uniform(-3, 3, 200)
    boosts = canonical_boosts(1.3, *spatial)[1]
    return np.concatenate((random, boosts, DET_EDGES))


DET_EDGES = np.array([
    [[1e200, 1e200], [1e200, 1e200]],
    [[1e200, 0], [0, 1e200j]],
    [[1.3e154, 1], [2, 1.3e154 + 1.3e154j]],
    [[np.nan, 0], [0, 1]],
    [[1, complex(0, np.nan)], [2, 1]],
    [[complex(1, -0.0), 0], [0, complex(1, -0.0)]],
], dtype=complex)


def extreme_parts(rng, shape):
    """Finite real parts of log-uniform magnitude from 1e-323 to 1e308 with
    random signs, a sixth of them replaced by +-0.0, subnormals, +-1.7e308
    or +-1.0."""
    x = 10.0 ** rng.uniform(-323, 308, shape) * rng.choice([-1.0, 1.0], shape)
    special = rng.random(shape) < 1 / 6
    x[special] = rng.choice([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.7e308, -1.7e308, 1.0, -1.0], special.sum())
    return x


def extreme_matrices(rng, n):
    """n complex 2x2 matrices of extreme_parts, the last 200 of signed zeros
    only, about a twentieth with one part set to inf, -inf or nan, then the
    rows of DET_EDGES."""
    m = extreme_parts(rng, (n, 8))
    m[-200:] = rng.choice([0.0, -0.0], (200, 8))
    bad = rng.random(n) < 1 / 20
    m[bad, rng.integers(0, 8, bad.sum())] = rng.choice([np.inf, -np.inf, np.nan], bad.sum())
    return np.concatenate((m.view(complex).reshape(n, 2, 2), DET_EDGES))


def cmul_det2(t):
    """The determinants of a (..., 2, 2) stack as two _cmul products and a
    complex subtraction: the reference of the stacked _det2 and _eps."""
    return _cmul(t[..., 0, 0], t[..., 1, 1]) - _cmul(t[..., 0, 1], t[..., 1, 0])


# Stacks whose determinants overflow in both parts, the real part only and
# the imaginary part only.
BIG = [np.full((3, 2, 2), 1e200 + 1e200j), np.full((3, 2, 2), 1e200 + 0j),
       np.array([[[1e200 + 1e-200j] * 2, [1e-200 + 1e200j] * 2]] * 3)]


def warnings_of(f, *args) -> set:
    """The categories and messages of the warnings that f(*args) emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f(*args)
    return {(w.category, str(w.message)) for w in caught}


def test_stacked_det2_equals_one_matrix():
    stack = _det_stack(np.random.default_rng(71))
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = _det2(stack)
    one = np.array([_det2(t) for t in stack])
    assert stacked.shape == (len(stack),)
    assert stacked.tobytes() == one.tobytes()
    assert math.copysign(1.0, stacked[-1].imag) == -1.0
    # A (k, n, 2, 2) stack is folded the same way.
    assert _det2(stack[:500].reshape(20, 25, 2, 2)).tobytes() == one[:500].tobytes()
    # The stack's real arithmetic is _cmul's products and the complex
    # difference, bit for bit, on signed zeros, overflowing and nan rows too.
    extreme = extreme_matrices(np.random.default_rng(77), 20000)
    with np.errstate(all="ignore"):
        for t in (stack, extreme, extreme.reshape(2, -1, 2, 2)):
            assert _det2(t).tobytes() == cmul_det2(t).tobytes()
    # Like _cmul, it warns unless the caller silences it, with the
    # reference's warnings, from either part.
    for big in BIG:
        assert warnings_of(_det2, big) == warnings_of(cmul_det2, big) != set()


def test_cmul_equals_python_products():
    # Complex by complex, complex by float (Python's complex * float is the
    # complex product with imaginary part +0.0) and float by complex, signed
    # zeros and non-finite parts included.
    rng = np.random.default_rng(73)
    x = np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300),
                        [complex(-0.0, 2), complex(0.0, -0.0), complex(np.inf, 1), complex(1e300, 1e300)]])
    y = np.concatenate([rng.normal(size=300) + 1j * rng.normal(size=300),
                        [complex(3, -0.0), complex(-0.0, -0.0), complex(0.0, 1), complex(1e10, -1e300)]])
    f = np.concatenate([rng.normal(size=300), [-0.0, 0.0, -2.0, 1e300]])
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(_cmul(x, y), [a * b for a, b in zip(x.tolist(), y.tolist())]),
                 (_cmul(x, f), [a * b for a, b in zip(x.tolist(), f.tolist())]),
                 (_cmul(f, y), [a * b for a, b in zip(f.tolist(), y.tolist())])]
    for stacked, python in pairs:
        assert stacked.tobytes() == np.array(python, dtype=complex).tobytes()


def test_stacked_adjugate_equals_inverse():
    rng = np.random.default_rng(74)
    mats = [random_sl2(rng) for _ in range(100)] + [SL2Element([[complex(1, -0.0), 0], [0, 1]])]
    stacked = _adjugate(np.array([A.mat for A in mats]))
    for A, row in zip(mats, stacked):
        assert row.tobytes() == A.inverse().mat.tobytes()
        np.testing.assert_allclose((A @ A.inverse()).mat, np.eye(2), atol=1e-12)


def _sl2_accepts(mat) -> bool:
    try:
        SL2Element(mat)
    except ValueError:
        return False
    return True


def test_unimodular_mask_agrees_with_sl2_element():
    rng = np.random.default_rng(72)
    # The nodes of sample-field's determinant-mid-grid row: one boost's
    # determinant is 1.0000000000010232.
    m = 0.2038915621465247
    axis = m * np.sinh(np.linspace(-8.745101673433474, 9.051056505008884, 4))
    _, mid_grid, _ = canonical_boosts(m, *(c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij")))
    assert 1.0000000000010232 + 0j in [_det2(t) for t in mid_grid]
    # inf, -inf or nan in each of the eight real slots of a unimodular matrix.
    non_finite = np.tile(np.array([[1, 2], [3, 7]], dtype=complex), (24, 1, 1))
    for k, value in enumerate(np.repeat([np.inf, -np.inf, np.nan], 8)):
        non_finite.view(float).reshape(24, 8)[k, k % 8] = value
    stack = np.concatenate((
        np.array([random_sl2(rng).mat for _ in range(100)]),
        mid_grid,
        np.array([
            [[1e200, 1e200], [1e200, 1e200]],  # det nan
            [[1 + 1e-12, 0], [0, 1]],
            [[1 + 2e-12, 0], [0, 1]],
            [[np.inf, 0], [0, 1]],
        ], dtype=complex),
        non_finite,
    ))
    with np.errstate(over="ignore", invalid="ignore"):
        dets, ok = _unimodular(stack)
    mask = np.isfinite(stack).all(axis=(-2, -1)) & ok
    assert mask.tolist() == [_sl2_accepts(t) for t in stack]
    assert mask[:100].all() and not mask[-28:].any()
    # The verdict alone is the mask: a non-finite entry fails it.
    assert ok.tolist() == mask.tolist()
    # Each row's determinant is the one-matrix call's, bit for bit.
    for t, d in zip(stack, dets):
        assert np.complex128(_unimodular(t)[0]).tobytes() == d.tobytes()


def test_overflowing_norm_is_silently_inf():
    # Tier-1 turns a RuntimeWarning into a failure.
    assert Spinor2(1.7e308 + 1.7e308j, 0).norm() == math.inf
    assert CoSpinor2(0, -1.7e308j - 1.7e308).norm() == math.inf
    assert FourSpinor.from_vec([1.7e308 + 1.7e308j, 0, 0, 0]).norm() == math.inf



def test_stacked_eps_and_cyclic_equal_one_triple():
    # The stacked rows of the kernels under eps and cyclic_defect equal the
    # one-value results, which take the Python-complex path, bit for bit.
    rng = np.random.default_rng(76)
    v = (rng.normal(size=(3, 200, 2)) + 1j * rng.normal(size=(3, 200, 2))) * 10.0 ** rng.uniform(-50, 50, (3, 200, 1))
    x, y, z = v
    stacked_eps, stacked_cyclic = _eps(x, y), _cyclic(x, y, z)
    for a, b, c, e, r in zip(x, y, z, stacked_eps, stacked_cyclic):
        s = [Spinor2.from_vec(u) for u in (a, b, c)]
        assert np.complex128(eps(s[0], s[1])).tobytes() == e.tobytes()
        assert cyclic_defect(*s).vec.tobytes() == r.tobytes()
    # eps of two rows is the determinant of the matrix they make, with
    # _cmul's roundings: bit for bit on signed zeros, overflowing and nan rows.
    extreme = extreme_matrices(np.random.default_rng(78), 20000)
    with np.errstate(all="ignore"):
        assert _eps(extreme[:, 0], extreme[:, 1]).tobytes() == cmul_det2(extreme).tobytes()
    for big in BIG:
        assert warnings_of(_eps, big[:, 0], big[:, 1]) == warnings_of(cmul_det2, big) != set()
