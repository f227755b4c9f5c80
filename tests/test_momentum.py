"""Momentum duality, the mass shell, and the canonical boost section."""

import math

import numpy as np
import pytest

from twospinors import (
    BadMass,
    Degenerate,
    MassShellPoint,
    MinkowskiVec,
    Momentum,
    NotOnShell,
    SL2Element,
    act_momentum,
    boost_rep,
    dualize,
    from_minkowski,
    pi_act,
    q_form,
    shell_point,
    undualize,
)

from twospinors.momentum import accepted_boosts, boost_matrices, shell_momenta

from test_bitensor import outcome, reference_pi_act, reference_to_minkowski, sweep_matrices
from test_spinor import random_sl2

SQRT2 = math.sqrt(2.0)


def random_shell(rng, m=None):
    if m is None:
        m = rng.uniform(0.5, 2.0)
    return shell_point(m, *rng.normal(0, 2 * m, 3))


# --- duality -----------------------------------------------------------------


def test_dualize_is_coordinate_identity():
    p = dualize(MinkowskiVec(1, 0, 0, 0))
    assert p == Momentum(1, 0, 0, 0)


def test_dualize_round_trip():
    x = MinkowskiVec(0.3, -1.2, 2.0, 0.7)
    assert undualize(dualize(x)) == x


def test_dualize_preserves_form():
    rng = np.random.default_rng(40)
    for _ in range(200):
        x = MinkowskiVec.from_coords(rng.normal(size=4))
        assert q_form(x) == q_form(dualize(x))


# --- shell construction ---------------------------------------------------------


def test_shell_point_rest():
    q = shell_point(1.0, 0, 0, 0)
    assert q.p == Momentum(1, 0, 0, 0)


def test_shell_point_dispersion():
    q = shell_point(1.0, 3.0, 0.0, 4.0)
    assert abs(q.p.p0 - math.sqrt(26.0)) <= 1e-15


def test_shell_point_rest_heavier():
    q = shell_point(2.0, 0, 0, 0)
    assert q.p == Momentum(2, 0, 0, 0)
    assert abs(q_form(q.p) - 4.0) <= 1e-15


@pytest.mark.parametrize("m", [0.0, -1.0])
def test_shell_point_rejects_bad_mass(m):
    with pytest.raises(BadMass):
        shell_point(m, 0, 0, 0)


def test_mass_shell_point_rejects_off_shell():
    with pytest.raises(NotOnShell):
        MassShellPoint(Momentum(1.0, 1.0, 0.0, 0.0), 1.0)


# The dispersion defect is nan (inf - inf, with numpy's overflow warnings):
# it is off the shell.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_mass_shell_point_rejects_nan_defect():
    with pytest.raises(NotOnShell):
        MassShellPoint(Momentum(1e308, 0.0, 0.0, 1e308), 1.0)


def test_mass_shell_point_rejects_backward_shell():
    with pytest.raises(NotOnShell):
        MassShellPoint(Momentum(-1.0, 0.0, 0.0, 0.0), 1.0)


def test_dispersion_sweep():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        q = random_shell(rng)
        assert abs(q_form(q.p) - q.m**2) <= 1e-9 * max(1.0, q.m**2)


# --- the boost section ------------------------------------------------------------


def test_boost_rep_rest_is_identity():
    A = boost_rep(shell_point(1.0, 0, 0, 0))
    np.testing.assert_allclose(A.mat, np.eye(2), atol=1e-12)


def test_boost_rep_known_boost():
    # inverse of the diagonal boost that sends (1,0,0,0) to (1.25, 0, 0, 0.75)
    q = MassShellPoint(Momentum(1.25, 0, 0, 0.75), 1.0)
    np.testing.assert_allclose(boost_rep(q).mat, np.diag([SQRT2, 1 / SQRT2]), atol=1e-12)


def test_boost_rep_section_property():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        q = random_shell(rng)
        A = boost_rep(q)
        rest = from_minkowski(MinkowskiVec(q.m, 0, 0, 0))
        moved = pi_act(A, rest).t
        target = from_minkowski(undualize(q.p)).t
        worst = max(worst, np.max(np.abs(moved - target)) / max(1.0, q.p.p0))
    assert worst <= 1e-10


def test_boost_rep_is_positive_hermitian_unimodular():
    rng = np.random.default_rng(43)
    for _ in range(300):
        A = boost_rep(random_shell(rng))
        assert np.max(np.abs(A.mat - A.mat.conj().T)) <= 1e-12
        eigs = np.linalg.eigvalsh(A.mat)
        assert np.all(eigs > 0)
        assert abs(A.det - 1) <= 1e-12


def test_boost_rep_su2_cocycle_is_unitary():
    rng = np.random.default_rng(44)
    for _ in range(200):
        q = random_shell(rng)
        A = random_sl2(rng)
        moved = MassShellPoint(act_momentum(A, q.p), q.m)
        U = boost_rep(moved).inverse() @ A @ boost_rep(q)
        np.testing.assert_allclose(U.mat @ U.mat.conj().T, np.eye(2), atol=1e-10)


def test_boost_rep_rejects_corrupted_point():
    q = shell_point(1.0, 0.5, 0, 0)
    object.__setattr__(q.p, "p0", 2.0)  # simulate corruption past the constructor
    with pytest.raises(NotOnShell):
        boost_rep(q)


def test_boost_rep_rejects_backward_corruption():
    # the backward branch is caught before the square root can degenerate
    q = shell_point(1.0, 0, 0, 0)
    object.__setattr__(q.p, "p0", -1.0)
    with pytest.raises(NotOnShell):
        boost_rep(q)


# --- the action on momenta -----------------------------------------------------------


def test_act_momentum_identity():
    p = Momentum(2.0, 0.1, -0.4, 1.0)
    moved = act_momentum(SL2Element.identity(), p)
    np.testing.assert_allclose(moved.coords, p.coords, atol=1e-15)


def test_act_momentum_preserves_form():
    rng = np.random.default_rng(45)
    worst = 0.0
    for _ in range(500):
        A = random_sl2(rng)
        p = Momentum.from_coords(rng.normal(size=4))
        moved = act_momentum(A, p)
        scale = max(1.0, np.sum(p.coords**2), np.sum(moved.coords**2))
        worst = max(worst, abs(q_form(moved) - q_form(p)) / scale)
    assert worst <= 1e-10


def test_act_momentum_orbit_stays_on_shell():
    rng = np.random.default_rng(46)
    for _ in range(300):
        q = random_shell(rng)
        A = random_sl2(rng)
        MassShellPoint(act_momentum(A, q.p), q.m)  # constructor re-validates


def test_act_momentum_preserves_forward_cone():
    rng = np.random.default_rng(47)
    for _ in range(1000):
        q = random_shell(rng)
        A = random_sl2(rng)
        assert act_momentum(A, q.p).p0 > 0


# --- the stacked kernel under boost_rep ------------------------------------------------


def reference_boost(q):
    # The closed form evaluated on one point through from_minkowski.
    H = SQRT2 * from_minkowski(undualize(q.p)).t / q.m
    tr = (H[0, 0] + H[1, 1]).real
    return (H + np.eye(2)) / math.sqrt(tr + 2.0)


def test_stacked_boosts_equal_scalar_reference():
    rng = np.random.default_rng(46)
    m = 1.3
    spatial = rng.normal(size=(3, 300)) * m * 10.0 ** rng.uniform(-3, 3, 300)
    p = shell_momenta(m, *spatial)
    A = boost_matrices(p, m)
    assert accepted_boosts(p, m, A).all()
    for row, a in zip(p, A):
        q = shell_point(m, *row[1:].tolist())
        assert row.tobytes() == q.p.coords.tobytes()
        expected = reference_boost(q).tobytes()
        assert a.tobytes() == expected
        assert boost_rep(q).mat.tobytes() == expected


@pytest.mark.parametrize("m, lo, hi", [
    (1.0, -14.0, 14.0),
    (0.2038915621465247, -8.745101673433474, 9.051056505008884),
    (1.0, -30.0, 30.0),
    (-1.0, 0.0, 1.0),
])
def test_accepted_boosts_agree_with_scalar_checks(m, lo, hi):
    axis = m * np.sinh(np.linspace(lo, hi, 9))
    p1, p2, p3 = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore"):
        p = shell_momenta(m, p1, p2, p3)
        A = boost_matrices(p, m)
        accepted = accepted_boosts(p, m, A)
    for row, ok in zip(p, accepted.tolist()):
        try:
            boost_rep(shell_point(m, *row[1:].tolist()))
        except ValueError:
            assert not ok
        else:
            assert ok


@pytest.mark.parametrize("m, p3", [(1e-300, 1e10), (1e-315, 3e-7)], ids=["tiny-mass", "subnormal-mass"])
def test_boost_rep_overflow_is_degenerate(m, p3):
    # shell_point accepts these points; the closed form overflows, and no
    # numpy warning is printed (RuntimeWarnings fail the tier-1 run).
    q = shell_point(m, 0.0, 0.0, p3)
    with pytest.raises(Degenerate, match="overflows"):
        boost_rep(q)


# --- the stacked transport kernel under act_momentum -----------------------------


def reference_act_momentum(A, q):
    return dualize(reference_to_minkowski(reference_pi_act(A, from_minkowski(undualize(q)))))


def test_stacked_act_momentum_equals_scalar():
    rng = np.random.default_rng(62)
    mats = sweep_matrices(rng)
    momenta = [Momentum.from_coords(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)) for _ in mats]
    mats.append(SL2Element(np.diag([1e200, 1e-200])))
    momenta.append(Momentum(1.0, 0.0, 0.0, 0.5))
    for A, q in zip(mats, momenta):
        assert outcome(act_momentum, A, q) == outcome(reference_act_momentum, A, q)
