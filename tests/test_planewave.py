"""Finite-difference residual of the position-space equation."""

import numpy as np
import pytest

from twospinors import BadStep, NumericalDrift, fiber_basis, plane_wave, planewave_residual, shell_point


def test_rest_solution_small_residual():
    q = shell_point(1.0, 0, 0, 0)
    psi = fiber_basis(q)[0]
    r = planewave_residual(q, psi, (0, 0, 0, 0), h=1e-3)
    assert r <= 1e-5


def test_second_order_convergence():
    q = shell_point(1.0, 0.5, 0.3, 0.4)
    psi = fiber_basis(q)[0]
    x = (0.2, -0.1, 0.4, 0.7)
    r1 = planewave_residual(q, psi, x, h=1e-2)
    r2 = planewave_residual(q, psi, x, h=5e-3)
    assert 3.6 <= r1 / r2 <= 4.4


def test_analytic_mode_is_exact():
    q = shell_point(1.0, 0.5, 0.3, 0.4)
    for psi in fiber_basis(q):
        r = planewave_residual(q, psi, (0.2, -0.1, 0.4, 0.7), h=1e-3, analytic=True)
        assert r <= 1e-12


def test_rejects_nonpositive_step():
    q = shell_point(1.0, 0, 0, 0)
    psi = fiber_basis(q)[0]
    with pytest.raises(BadStep):
        planewave_residual(q, psi, (0, 0, 0, 0), h=0.0)
    with pytest.raises(BadStep):
        planewave_residual(q, psi, (0, 0, 0, 0), h=-1e-3)


def test_residual_matches_theory_at_rest():
    # for the rest solution the only derivative is along x0, so the defect
    # is (m - sin(m h)/h) * norm(psi), exactly the central-difference bias
    q = shell_point(1.0, 0, 0, 0)
    psi = fiber_basis(q)[0]
    h = 1e-3
    r = planewave_residual(q, psi, (0, 0, 0, 0), h=h)
    expected = abs(1.0 - np.sin(h) / h) * psi.norm()
    assert abs(r - expected) <= 1e-12


def test_subnormal_step_is_refused_silently():
    # 2h = 1e-323: the difference quotient overflows and the residual is
    # nan; tier-1 turns any warning on the way into a failure.
    q = shell_point(1.0, 0.5, 0, 0)
    psi = fiber_basis(q)[0]
    with pytest.raises(NumericalDrift, match=r"^plane-wave residual nan at step 5e-324 is not finite$"):
        planewave_residual(q, psi, (0, 0, 0, 0), h=5e-324)


@pytest.mark.parametrize("analytic", [False, True])
def test_non_finite_phase_is_refused_silently(analytic):
    # p0 x0 = 1e154 * 1e155 passes the float range; tier-1 turns the
    # overflow warning of the unchecked dot product into a failure.
    q = shell_point(1e154, 1e-8, 5e-324, 1e-8)
    psi = fiber_basis(q)[0]
    x = (1e155, 0.5, 1e-150, 1.0)
    message = r"^plane-wave phase p\.x = inf at x = \[1e\+155, 0\.5, 1e-150, 1\.0\] is not finite$"
    with pytest.raises(NumericalDrift, match=message):
        plane_wave(q, psi, x)
    with pytest.raises(NumericalDrift, match=message):
        planewave_residual(q, psi, x, h=1e-200, analytic=analytic)
