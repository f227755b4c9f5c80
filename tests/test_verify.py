"""The verification report: determinism, coverage, and the corruption hook."""

import numpy as np
import pytest

from twospinors import run_verification
from twospinors.verify import CONVENTIONS, _sweep

EXPECTED_CHECKS = {
    "cyclic identity",
    "symplectic form identities",
    "world-basis signature",
    "polarized form vs dyadic definition",
    "gamma anticommutation table",
    "clifford anticommutation (dyadic sweep)",
    "slash square equals quadratic form",
    "momentum duality preserves the form",
    "clifford-map equivariance",
    "bitensor action commutes with reality involution",
    "covering homomorphism",
    "covering is two-to-one (sign kernel)",
    "lorentz metric orthogonality",
    "rest fiber eigenspace",
    "bundle map well-defined on classes",
    "bundle map round trip",
    "bundle map lands in the fiber",
    "group action preserves fibers",
    "conjugate-pair split equivariance",
    "spin-1/2 character",
}


def test_all_checks_pass():
    report = run_verification(seed=42, samples=60)
    assert report.passed
    assert {c.name for c in report.checks} == EXPECTED_CHECKS


def test_report_embeds_conventions():
    report = run_verification(seed=0, samples=1)
    assert report.conventions["clifford_anticommutator"] == CONVENTIONS["clifford_anticommutator"]
    assert "conventions_version" in report.conventions


def test_deterministic_given_seed():
    a = run_verification(seed=7, samples=40)
    b = run_verification(seed=7, samples=40)
    assert [c.max_defect for c in a.checks] == [c.max_defect for c in b.checks]


def test_single_sample_runs_every_check():
    report = run_verification(seed=1, samples=1)
    assert {c.name for c in report.checks} == EXPECTED_CHECKS
    assert report.passed


def test_rejects_zero_samples():
    with pytest.raises(ValueError):
        run_verification(seed=0, samples=0)


def test_corruption_hook_fails_and_names_relation():
    report = run_verification(seed=0, samples=5, corrupt_gamma=(2, 1, 3))
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any(c.name == "gamma anticommutation table" for c in failing)
    bad = next(c for c in failing if c.name == "gamma anticommutation table")
    assert "gamma(" in bad.detail


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("nan")])
def test_sweep_fails_on_non_finite_defect(bad):
    @_sweep("probe", 1.0)
    def probe(rng):
        yield 0.25
        yield bad
        yield 0.5

    result = probe(np.random.default_rng(0), 1)
    assert not result.passed
    assert result.max_defect == 0.5
    assert result.detail == "non-finite defect at sample 0"


def test_sweep_names_first_non_finite_sample():
    defects = iter([0.1, 0.2, float("nan"), 0.3, float("nan")])

    @_sweep("probe", 1.0)
    def probe(rng):
        yield next(defects)

    result = probe(np.random.default_rng(0), 5)
    assert (result.passed, result.max_defect, result.detail) == (False, 0.3, "non-finite defect at sample 2")
