"""The Dirac bundle, its class description, and the conjugate-pair split."""

import cmath
import math
from collections import Counter

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
    NumericalDrift,
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
    lorentz_of,
    rest_fiber_basis,
    shell_point,
    slash,
    spin_character,
    split_conjugate_pair,
    tau,
)
from twospinors import bundle, clifford, momentum
from twospinors.bundle import FIBER_TOL, _beta, _in_rest_eigenspace, _split, _to_rest, fiber_bound, fiber_test, spin_characters
from twospinors.clifford import tau_matrices
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


def test_overflowing_fiber_residual_is_refused():
    # The squares of the residual and of the norm pass the float range; the
    # checks scale psi first, so they refuse on the finite values.
    psi = FourSpinor.from_vec([1e200, 0, 0, 0])
    with pytest.raises(NotInFiber, match=r"^fiber residual 1\.414e\+200 exceeds 1\.000e\+191$"):
        FiberElement(shell_point(1.0, 0, 0, 0), psi)
    with pytest.raises(InvalidClassRep, match=r"^rest-eigenspace defect 1\.414e\+200 exceeds 1\.000e\+190$"):
        AssociatedClassRep(SL2Element.identity(), psi, 1.0)


def test_tiny_spinor_off_the_fiber_is_refused():
    # e1 is not in the rest fiber at any scale; unscaled, the residual and
    # the bound of 1e-170 * e1 both underflow to 0.
    psi = FourSpinor.from_vec([1e-170, 0, 0, 0])
    with pytest.raises(NotInFiber, match=r"^fiber residual 1\.414e-170 exceeds 1\.000e-179$"):
        FiberElement(shell_point(1.0, 0, 0, 0), psi)


def test_huge_spinor_off_the_rest_eigenspace_is_refused():
    # Relative defect about 1e-5; unscaled, the norm is inf and so is each bound.
    psi = FourSpinor.from_vec([1e155, 1e150, 0, -1e155])
    with pytest.raises(NotInFiber, match=r"^fiber residual 1\.414e\+150 exceeds 1\.414e\+146$"):
        FiberElement(shell_point(1.0, 0, 0, 0), psi)
    with pytest.raises(InvalidClassRep, match=r"^rest-eigenspace defect 1\.414e\+150 exceeds 1\.414e\+145$"):
        AssociatedClassRep(SL2Element.identity(), psi, 1.0)


def test_huge_rest_eigenvector_is_accepted():
    # Its norm overflows, but its defect is exactly 0.
    psi = FourSpinor.from_vec([1e200, 0, 0, -1e200])
    assert FiberElement(shell_point(1.0, 0, 0, 0), psi).psi is psi
    assert AssociatedClassRep(SL2Element.identity(), psi, 1.0).phi_plus is psi


def test_projector_rejects_corrupted_point():
    # A shell point cannot be altered past its constructor, so
    # fiber_projector needs no second shell check.
    q = shell_point(1.0, 0, 0, 0)
    with pytest.raises(AttributeError):
        q.p.coords = np.array([3.0, 0.0, 0.0, 0.0])
    assert q.p.coords.tolist() == [1.0, 0.0, 0.0, 0.0]


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


def test_beta_never_returns_its_replay(monkeypatch):
    # A kernel that rejects a momentum act_momentum accepts is a
    # NumericalDrift: every returned value comes from the kernel.
    monkeypatch.setattr(bundle, "_act_momenta", lambda a, p: (p, False))
    rep = AssociatedClassRep(SL2Element.identity(), rest_fiber_basis()[0], 1.0)
    with pytest.raises(NumericalDrift, match=r"^the kernel rejected the action on p = \[1\.0, 0\.0, 0\.0, 0\.0\], "
                                             "which the scalar path accepts$"):
        beta(rep)


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
    # Forced past the frozen dataclass: beta_inv runs no fiber check of its
    # own, and the class representative it builds refuses the result.
    object.__setattr__(f, "psi", FourSpinor.from_vec([1, 0, 0, 0]))
    with pytest.raises(InvalidClassRep, match=r"^rest-eigenspace defect 1\.445e\+00 exceeds 1\.022e-10$"):
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
    stacked = fiber_test(np.array([q.p.coords for q in qs]), np.array([v.vec for v in psis]), m, FIBER_TOL)[0]
    reference = [np.linalg.norm(slash(q.p) @ v.vec - m * v.vec) for q, v in zip(qs, psis)]
    assert stacked.tolist() == reference
    assert [fiber_residual(q, v) for q, v in zip(qs, psis)] == reference


@pytest.mark.parametrize("scale", [1e200, 1e-200, 5e-324, 1.7e308])
def test_fiber_residual_keeps_its_range(scale):
    # psi is scaled by a power of two before the residual, so a norm inside
    # the float range is returned whole, silently, and one past it (the last
    # case) is inf, without a warning; the exact residual of (s, 0, 0, 0) at
    # rest is sqrt(2) s.  One spinor's residual and norm are Python floats.
    q = shell_point(1, 0, 0, 0)
    psi = FourSpinor.from_vec([scale, 0, 0, 0])
    r, n, _ = fiber_test(q.p, psi.vec, q.m, FIBER_TOL)
    assert {type(r), type(n), type(fiber_residual(q, psi))} == {float}
    assert fiber_residual(q, psi) == r == math.hypot(scale, scale)
    assert n == scale


@pytest.mark.parametrize("direction", [(1, 0, 0, 0), (1, 0, 0, -1)], ids=["off-fiber", "rest-eigenvector"])
def test_stacked_fiber_test_keeps_the_scalar_range(direction):
    # Each row is scaled by its own power of two, so rows 1e400 apart keep
    # the scalar residual bit for bit, silently, and the scalar verdict.
    q = shell_point(1, 0, 0, 0)
    psis = [FourSpinor.from_vec(np.multiply(scale, direction)) for scale in (1e200, 1e-200, 5e-324)]
    p = np.tile(q.p.coords, (len(psis), 1))
    residuals, _, ok = fiber_test(p, np.array([v.vec for v in psis]), q.m, FIBER_TOL)
    assert residuals.tobytes() == np.array([fiber_residual(q, v) for v in psis]).tobytes()
    for v, accepted in zip(psis, ok.tolist()):
        if accepted:
            assert FiberElement(q, v).psi is v
        else:
            with pytest.raises(NotInFiber):
                FiberElement(q, v)
    assert ok.tolist() == [direction[3] != 0] * len(psis)


@pytest.mark.parametrize("direction", [(1, 0, 0, 0), (1, 0, 0, -1), (0.3, -0.2j, 1e-3, 0.7)],
                         ids=["off-fiber", "rest-eigenvector", "generic"])
def test_fiber_residual_is_the_fiber_test_residual(direction):
    # fiber_residual skips fiber_test's verdict, not a bit of its residual.
    rng = np.random.default_rng(17)
    for q in [shell_point(1, 0, 0, 0), random_shell(rng), shell_point(0.3, 40.0, -7.0, 2.0)]:
        for scale in (1e200, 1e-200, 5e-324):
            v = FourSpinor.from_vec(np.multiply(scale, direction))
            expected = np.float64(fiber_test(q.p, v.vec, q.m, FIBER_TOL)[0]).tobytes()
            assert np.float64(fiber_residual(q, v)).tobytes() == expected


def test_fiber_test_takes_a_mass_per_row():
    # A mass per row gives each row the residual and the verdict of its own
    # one-row call, a rejected row included.
    rng = np.random.default_rng(23)
    qs = [random_shell(rng) for _ in range(30)]
    psis = [fiber_basis(q)[k % 2].vec * 10.0 ** rng.uniform(-200, 200) for k, q in enumerate(qs)]
    psis[7] = psis[7] + 1e-3 * np.abs(psis[7]).max()
    p = np.array([q.p.coords for q in qs])
    m = np.array([q.m for q in qs])
    residuals, _, ok = fiber_test(p, np.array(psis), m, FIBER_TOL)
    for q, v, r, accepted in zip(qs, psis, residuals.tolist(), ok.tolist()):
        r1, _, ok1 = fiber_test(q.p, v, q.m, FIBER_TOL)
        assert (np.float64(r).tobytes(), accepted) == (np.float64(r1).tobytes(), bool(ok1))
    assert ok.tolist() == [k != 7 for k in range(30)]


def test_not_in_fiber_prints_the_bound_of_the_spinor_norm():
    # FiberElement takes the bound from fiber_test's norm, which is psi.norm().
    q, psi = shell_point(2.0, 0, 0, 0), FourSpinor.from_vec([3, 4j, 0, 0])
    with pytest.raises(NotInFiber) as refused:
        FiberElement(q, psi)
    assert str(refused.value) == "fiber residual 1.414e+01 exceeds 1.000e-08"
    assert str(refused.value).endswith(f" {fiber_bound(FIBER_TOL, q.m, psi.norm()):.3e}")


def test_rest_eigenspace_mask_matches_the_class_rep_constructor():
    v1, v2 = (v.vec for v in rest_fiber_basis())
    rows = [s * (c1 * v1 + c2 * v2) for s in (1.0, 1e200, 1e-200, 5e-324, 1e300)
            for c1, c2 in ((1, 0), (0.5j, -2), (1, 1e-3))]
    # Past the float range the norm and the bound are inf: the defect is 0
    # (accepted) or inf (refused), silently.
    rows += [np.array([1.7e308, 0, 0, -1.7e308])]
    rows += [np.array([1, 0, 0, 0]), np.array([1, 0, 0, -1 + 1e-9]), np.array([1e300, 0, 0, -1e-300]),
             np.array([1.7e308, 0, 0, 1.7e308])]
    defects, bounds, mask = _in_rest_eigenspace(np.array(rows, dtype=complex))
    for v, accepted, d, bound in zip(rows, mask.tolist(), defects, bounds):
        # Each row's defect and bound are the one-spinor call's, bit for bit.
        d1, bound1, _ = _in_rest_eigenspace(np.asarray(v, dtype=complex))
        assert (np.float64(d1).tobytes(), np.float64(bound1).tobytes()) == (d.tobytes(), bound.tobytes())
        psi = FourSpinor.from_vec(v)
        if accepted:
            assert AssociatedClassRep(SL2Element.identity(), psi, 1.0).phi_plus is psi
        else:
            with pytest.raises(InvalidClassRep):
                AssociatedClassRep(SL2Element.identity(), psi, 1.0)
    assert not mask[-4:].any() and mask[:-4].all()
    assert (defects[-5], bounds[-5], defects[-1], bounds[-1]) == (0.0, math.inf, math.inf, math.inf)
    with pytest.raises(InvalidClassRep, match="^rest-eigenspace defect inf exceeds inf$"):
        AssociatedClassRep(SL2Element.identity(), FourSpinor.from_vec(rows[-1]), 1.0)


def test_fiber_residual_past_the_float_range_is_inf():
    q = shell_point(1e150, 0, 0, 0)
    assert fiber_residual(q, FourSpinor.from_vec([1e300, 0, 0, 0])) == math.inf


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


def cmath_spin_characters(ts):
    # The diagonal phases as cmath.exp gives them, built from nested lists.
    a = np.array([[[cmath.exp(1j * t), 0.0], [0.0, cmath.exp(-1j * t)]] for t in ts], dtype=complex)
    p_plus = (gamma(0) + np.eye(4)) / 2.0
    return np.trace(p_plus @ tau_matrices(a), axis1=-2, axis2=-1)


@pytest.mark.parametrize("ts", [
    np.linspace(0.0, 2.0 * math.pi, 100),
    [0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, 1e300, -1e300, -2.5, 5e-324, -5e-324],
], ids=["grid", "special"])
def test_spin_characters_equal_the_cmath_phases(ts):
    # The phases from math.cos and math.sin give the characters of the
    # cmath.exp phases bit for bit, signed zeros included.
    assert spin_characters(ts).tobytes() == cmath_spin_characters(ts).tobytes()


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
def test_spin_character_of_a_non_finite_angle_is_nan(t):
    # math.cos raises on inf where cmath.exp(1j * inf) is nan.
    c = spin_character(t)
    assert math.isnan(c.real) and math.isnan(c.imag)
    assert np.isnan(cmath_spin_characters([t])).all()


def test_stacked_bundle_maps_equal_one_class():
    # The kernels under beta, beta_inv and split_conjugate_pair, on stacks,
    # give each one-value result bit for bit, a mass per row.
    rng = np.random.default_rng(29)
    reps = [AssociatedClassRep(random_sl2(rng), random_rest_eigenvector(rng), float(rng.uniform(0.5, 2.0)))
            for _ in range(60)]
    a = np.array([r.A.mat for r in reps])
    phi = np.array([r.phi_plus.vec for r in reps])
    p, ok, psi = _beta(a, phi, np.array([r.m for r in reps]))
    images = [beta(r) for r in reps]
    back = _to_rest(a, psi)
    for r, f, row_p, row_psi, row_back, s in zip(reps, images, p, psi, back, _split(phi)):
        assert (f.q.p.coords.tobytes(), f.psi.vec.tobytes()) == (row_p.tobytes(), row_psi.tobytes())
        rest = tau(r.A.inverse()) @ f.psi.vec
        assert row_back.tobytes() == rest.tobytes()
        assert split_conjugate_pair(r).s.vec.tobytes() == s.tobytes()
    assert ok.all()


def test_one_query_computes_one_boost_and_a_slash_per_point(monkeypatch):
    # The calls of one point query: the boost is built once, by fiber_basis,
    # and slash(p) once per shell point (q, and the point beta makes).
    counts = Counter()
    for module, name in [(momentum, "boost_matrices"), (clifford, "_expand")]:
        def counted(*args, _kernel=getattr(module, name), _name=name):
            counts[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(module, name, counted)
    q = shell_point(1.5, 0.4, -0.2, 0.9)
    b1, b2 = fiber_basis(q)
    fiber_residual(q, b1), fiber_residual(q, b2)
    lorentz_of(boost_rep(q))
    psi = FourSpinor.from_vec((0.3 - 1j) * b1.vec + 2j * b2.vec)
    back = beta(beta_inv(FiberElement(q, psi)))
    assert back.q is not q
    assert counts == {"boost_matrices": 1, "_expand": 2}
