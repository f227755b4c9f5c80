"""The mass shell, the canonical boost section, and the action on momenta."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest

from twospinors import (
    BadMass,
    Degenerate,
    MassShellPoint,
    MinkowskiVec,
    Momentum,
    NotOnShell,
    NumericalDrift,
    SL2Element,
    act_momentum,
    boost_rep,
    from_minkowski,
    pi_act,
    q_form,
    shell_point,
)

from twospinors import momentum
from twospinors.bitensor import _WORLD_STACK, _expand, _transport
from twospinors.momentum import _act_momenta, _shell_test, canonical_boosts

from test_bitensor import outcome, reference_pi_act, reference_to_minkowski, sweep_matrices
from test_spinor import random_sl2

SQRT2 = math.sqrt(2.0)


def random_shell(rng, m=None):
    if m is None:
        m = rng.uniform(0.5, 2.0)
    return shell_point(m, *rng.normal(0, 2 * m, 3))


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


# The dispersion defect is nan (inf - inf): it is off the shell, and the
# refusal is silent (tier-1 turns a RuntimeWarning into a failure).
def test_mass_shell_point_rejects_nan_defect():
    with pytest.raises(NotOnShell):
        MassShellPoint(Momentum(1e308, 0.0, 0.0, 1e308), 1.0)


# A spacelike vector whose defect (|-inf - inf|) and bound both overflow to
# inf: the overflowing defect is refused, silently, one vector and a stack alike.
def test_mass_shell_point_rejects_overflowing_defect():
    p, m = Momentum(1.0, 1e300, 0.0, 0.0), 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotOnShell, match=r"^dispersion defect inf exceeds"):
            MassShellPoint(p, m)
        defect, (on_shell, forward) = _shell_test(np.array([p.coords, [1.0, 0, 0, 0]]),
                                                  np.array([m, 1.0]))
    assert defect[0] == math.inf and forward[0]
    assert on_shell.tolist() == [False, True]


def test_mass_shell_point_rejects_backward_shell():
    with pytest.raises(NotOnShell):
        MassShellPoint(Momentum(-1.0, 0.0, 0.0, 0.0), 1.0)


@pytest.mark.parametrize("p", [(1e160, 0, 0), (0, -1e155, 1e155), (0, 0, math.inf)])
def test_shell_point_refuses_overflowing_energy(p):
    with pytest.raises(NotOnShell, match=r"^momentum coordinates must be finite$"):
        shell_point(1.0, *p)


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
        target = from_minkowski(q.p).t
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
    # A shell point cannot be altered past its constructor, so boost_rep
    # needs no second shell check.
    q = shell_point(1.0, 0.5, 0, 0)
    before = q.p.coords.tolist()
    with pytest.raises(AttributeError):
        q.p.coords = np.array([2.0, 0.5, 0.0, 0.0])
    assert q.p.coords.tolist() == before


def test_boost_rep_rejects_backward_corruption():
    # Nor can it be moved to the backward branch.
    q = shell_point(1.0, 0, 0, 0)
    with pytest.raises(AttributeError):
        q.p.coords = np.array([-1.0, 0.0, 0.0, 0.0])
    assert q.p.coords.tolist() == [1.0, 0.0, 0.0, 0.0]


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
    H = SQRT2 * from_minkowski(q.p).t / q.m
    tr = (H[0, 0] + H[1, 1]).real
    return (H + np.eye(2)) / math.sqrt(tr + 2.0)


def test_stacked_boosts_equal_scalar_reference():
    rng = np.random.default_rng(46)
    m = 1.3
    spatial = rng.normal(size=(3, 300)) * m * 10.0 ** rng.uniform(-3, 3, 300)
    p, A, ok = canonical_boosts(m, *spatial)
    assert ok.all()
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
def test_canonical_boosts_agree_with_scalar_checks(m, lo, hi):
    axis = m * np.sinh(np.linspace(lo, hi, 9))
    p1, p2, p3 = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
    p, A, accepted = canonical_boosts(m, p1, p2, p3)
    # One mass per row gives the one-mass rows bit for bit.
    for one, per_row in zip((p, A, accepted), canonical_boosts(np.full(len(p1), m), p1, p2, p3)):
        assert one.tobytes() == per_row.tobytes()
    # Rows at their own masses: each refused mass (zero, negative, inf, nan),
    # a subnormal one whose boost overflows, non-finite spatial entries, and
    # |p| = 1e155, whose energy overflows; then a row shell_point accepts.
    edges = np.array([
        [0.0, 0.1, 0.2, 0.3], [-1.0, 0.1, 0.2, 0.3], [math.inf, 0.1, 0.2, 0.3], [math.nan, 0.1, 0.2, 0.3],
        [1e-315, 1e-7, 1e-7, 1e-7], [1.0, math.nan, 0.0, 0.0], [1.0, 0.0, math.inf, 0.0],
        [1.0, 0.0, 0.0, -math.inf], [1.0, 1e155, 0.0, 0.0], [2.0, 0.0, -1e155, 0.0], [1.0, 0.3, -0.2, 0.1],
    ])
    _, _, edge_ok = canonical_boosts(*edges.T)
    assert edge_ok.tolist() == [False] * 10 + [True]
    for args, ok in zip([(m, *row[1:].tolist()) for row in p] + edges.tolist(), accepted.tolist() + edge_ok.tolist()):
        try:
            boost_rep(shell_point(*args))
        except ValueError:
            assert not ok
        else:
            assert ok


def test_shell_mask_takes_a_mass_per_row():
    # Each row against its own mass, as MassShellPoint checks one point.
    rng = np.random.default_rng(41)
    rows, masses = [], []
    for _ in range(40):
        q = random_shell(rng)
        rows.append(q.p.coords)
        masses.append(q.m)
    rows += [[1.0, 0, 0, 0], [2.0, 0, 0, 0], [-1.0, 0, 0, 0], [math.inf, 0, 0, 0], [1.0, 0, 0, 0]]
    masses += [1.0, 1.0, 1.0, 1.0, -1.0]
    p, m = np.array(rows), np.array(masses)
    defects, (on_shell, forward) = _shell_test(p, m)
    # The mask: a finite positive mass, finite coordinates, both verdicts.
    mask = np.isfinite(m) & (m > 0) & np.isfinite(p).all(axis=-1) & on_shell & forward
    for row, mass, ok, d in zip(rows, masses, mask.tolist(), defects):
        try:
            MassShellPoint(Momentum(*row), mass)
        except ValueError:
            assert not ok
        else:
            assert ok
        # Each row's defect is the one-vector call's, bit for bit.
        assert np.float64(_shell_test(np.array(row, dtype=float), mass)[0]).tobytes() == d.tobytes()
    assert mask.tolist() == [True] * 41 + [False] * 4


@pytest.mark.parametrize("m, p3", [(1e-300, 1e10), (1e-315, 3e-7)], ids=["tiny-mass", "subnormal-mass"])
def test_boost_rep_overflow_is_degenerate(m, p3):
    # shell_point accepts these points; the closed form overflows, and no
    # numpy warning is printed (RuntimeWarnings fail the tier-1 run).
    q = shell_point(m, 0.0, 0.0, p3)
    with pytest.raises(Degenerate, match="overflows"):
        boost_rep(q)


# --- the boost a shell point keeps ---------------------------------------------------


def test_boost_rep_is_kept_on_the_point():
    q = shell_point(1.5, 0.4, -0.2, 0.9)
    A = boost_rep(q)
    assert boost_rep(q) is A
    # A fresh point of the same momentum computes its own, equal boost.
    assert boost_rep(shell_point(1.5, 0.4, -0.2, 0.9)).mat.tobytes() == A.mat.tobytes()


def test_degenerate_boost_is_refused_on_every_call():
    q = shell_point(1e-300, 1e10, 0, 0)
    for _ in range(2):
        with pytest.raises(Degenerate, match="overflows"):
            boost_rep(q)
    assert set(vars(q)) == {"p", "m"}


def test_threads_filling_one_point_get_one_boost():
    # More threads than cores, switching often, each filling fresh points:
    # every thread must get the same boost of a point, the first one kept.
    points = [shell_point(1.0, 0.1 * k, -0.3, 0.7) for k in range(50)]
    seen = [[] for _ in range(8)]
    start = threading.Barrier(len(seen), timeout=10)

    def fill(out):
        start.wait()
        out.extend(boost_rep(q) for q in points)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=fill, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, q in enumerate(points):
        assert all(out[k] is boost_rep(q) for out in seen)


# --- the stacked transport kernel under act_momentum -----------------------------


def reference_act_momentum(A, q):
    return reference_to_minkowski(reference_pi_act(A, from_minkowski(q)))


def test_stacked_act_momentum_equals_scalar():
    rng = np.random.default_rng(62)
    mats = sweep_matrices(rng)
    momenta = [Momentum.from_coords(rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3)) for _ in mats]
    mats.append(SL2Element(np.diag([1e200, 1e-200])))
    momenta.append(Momentum(1.0, 0.0, 0.0, 0.5))
    for A, q in zip(mats, momenta):
        assert outcome(act_momentum, A, q) == outcome(reference_act_momentum, A, q)


def test_stacked_act_momenta_equal_act_momentum():
    # Each row of the kernel under act_momentum has act_momentum's bits where
    # its mask accepts the row, and act_momentum refuses every rejected row.
    rng = np.random.default_rng(63)
    mats = sweep_matrices(rng) + [SL2Element(np.diag([1e200, 1e-200])), SL2Element.identity()]
    coords = [rng.normal(size=4) * 10.0 ** rng.uniform(-3, 3) for _ in mats[:-1]] + [[1.7e308, 0, 0, 1.7e308]]
    coords[-2] = [1.0, 0.0, 0.0, 0.5]
    # Finite rows whose transport overflows: two with an infinite real part,
    # then one whose real part is nan (inf - inf).
    mats += [SL2Element(np.diag([1e200, 1e-200])), SL2Element([[1e154, 1e154], [0, 1e-154]]),
             SL2Element([[-1e184 - 5e184j, 6e184 + 4e184j], [0, -3.846153846153847e-186 + 1.923076923076923e-185j]])]
    coords += [[1.0, 0.3, 0.0, 0.5], [2.0, 0.0, 0.0, 0.5], [0.9, -0.7, -1.3, -0.6]]
    a, p = np.array([A.mat for A in mats]), np.array(coords)
    with np.errstate(all="ignore"):
        t = _transport(a[-3:], _expand(p[-3:], _WORLD_STACK))
    assert np.isinf(t[:2].real).any(axis=(-2, -1)).all() and np.isnan(t[2].real).any()
    moved, ok = _act_momenta(a, p)
    for A, c, row, accepted in zip(mats, coords, moved, ok.tolist()):
        result = outcome(act_momentum, A, Momentum.from_coords(c))
        assert result == row.tobytes() if accepted else isinstance(result, tuple)
    assert ok[:-5].any() and not ok[-5:].any()


def test_act_momentum_never_returns_its_replay(monkeypatch):
    # A kernel that rejects a momentum the scalar chain accepts is a
    # NumericalDrift: every returned value comes from the kernel.
    monkeypatch.setattr(momentum, "_act_momenta", lambda a, p: (p, False))
    with pytest.raises(NumericalDrift, match=r"^the kernel rejected the action on p = \[1\.0, 0\.0, 0\.0, 0\.5\], "
                                             "which the scalar path accepts$"):
        act_momentum(SL2Element.identity(), Momentum(1.0, 0.0, 0.0, 0.5))
