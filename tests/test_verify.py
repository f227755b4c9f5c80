"""The verification report: determinism, coverage, the corruption hook, and
each stacked check against its scalar reference."""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
import scalar_verify

from twospinors import NumericalDrift, run_verification, sampling, verify, world_basis
from twospinors.bitensor import _polar, lorentz_defect
from twospinors.spinor import _cyclic, _det2, _eps
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


@pytest.mark.parametrize("entry", [(-1, 0, 0), (4, 0, 0), (0, -1, 0), (0, 0, 4),
                                   (0, 0), (0, 0, 0, 0), (1.5, 0, 0)])
def test_corruption_hook_refuses_an_index_outside_the_table(entry):
    # A negative index would wrap around and corrupt gamma(3) instead.
    with pytest.raises(ValueError, match=r"^corrupt_gamma indices must be in 0\.\.3, got "):
        run_verification(seed=0, samples=1, corrupt_gamma=entry)


def test_corruption_hook_fails_and_names_relation():
    report = run_verification(seed=0, samples=5, corrupt_gamma=(2, 1, 3))
    assert not report.passed
    failing = [c for c in report.checks if not c.passed]
    assert any(c.name == "gamma anticommutation table" for c in failing)
    bad = next(c for c in failing if c.name == "gamma anticommutation table")
    assert "gamma(" in bad.detail


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("nan")])
def test_sweep_fails_on_non_finite_defect(bad):
    @_sweep("probe", 1.0, 0)
    def probe(rng, n):
        return np.array([[0.25, bad, 0.5]])

    result = probe(verify._Streams(0), 1)
    assert not result.passed
    assert result.max_defect == 0.5
    assert result.detail == "non-finite defect at sample 0"


def test_sweep_names_first_non_finite_sample():
    @_sweep("probe", 1.0, 0)
    def probe(rng, n):
        return np.array([0.1, 0.2, float("nan"), 0.3, float("nan")])

    result = probe(verify._Streams(0), 5)
    assert (result.passed, result.max_defect, result.detail) == (False, 0.3, "non-finite defect at sample 2")


def test_sweep_reports_no_negative_zero():
    @_sweep("probe", 0.0, 0)
    def probe(rng, n):
        return np.full((n, 2), -0.0)

    result = probe(verify._Streams(0), 3)
    assert result.passed and math.copysign(1.0, result.max_defect) == 1.0


# Stacked kernels on (n, 8) complex rows z; each one's defect is its modulus.
STACKED_KERNELS = {
    "det2": lambda z: _det2(z[:, :4].reshape(-1, 2, 2)),
    "eps": lambda z: _eps(z[:, :2], z[:, 2:4]),
    "cyclic": lambda z: _cyclic(z[:, :2], z[:, 2:4], z[:, 4:6]),
    "polar": lambda z: _polar(z[:, :4].reshape(-1, 2, 2), z[:, 4:].reshape(-1, 2, 2)),
}


@pytest.mark.parametrize("kernel", STACKED_KERNELS.values(), ids=STACKED_KERNELS)
def test_overflowing_stacked_kernel_is_a_non_finite_defect(kernel):
    # Sample 2 scaled to 1e160 overflows each kernel, which numpy warns of
    # (an error in this suite); inside a sweep the overflow is silent, as on
    # the one-value path, and fails the check at that sample.
    def scaled(rng, n):
        z = verify._complexes(rng.normal(0.0, 1.0, (n, 16)))
        z[2] *= 1e160
        return z

    with pytest.raises(RuntimeWarning, match="overflow"):
        kernel(scaled(np.random.default_rng(0), 4))

    @_sweep("probe", 1.0, 0)
    def probe(rng, n):
        return verify._cabs(kernel(scaled(rng, n))).reshape(n, -1)

    result = probe(verify._Streams(0), 4)
    assert (result.passed, result.detail) == (False, "non-finite defect at sample 2")


def test_overflowing_cyclic_check_is_a_non_finite_defect(monkeypatch):
    # The cyclic check itself, fed spinors scaled to 1e150 at sample 1: the
    # products of eps with a coefficient pass the float range.
    draw = verify._uniform_spinors

    def scaled(rng, n):
        g = draw(rng, n)
        g[1] *= 1e150
        return g

    monkeypatch.setattr(verify, "_uniform_spinors", scaled)
    result = verify._check_cyclic(verify._Streams(0), 3)
    assert (result.passed, result.detail) == (False, "non-finite defect at sample 1")


def states(gens) -> list[dict]:
    return [g.bit_generator.state for g in gens]


@pytest.mark.parametrize("samples", [1, 10, 200])
@pytest.mark.parametrize("name", list(scalar_verify.CHECKS))
def test_stacked_check_equals_scalar_reference(name, samples):
    # Same draws (every stream ends in the same state) and the same fold of
    # the same defects, bit for bit, as the scalar API one sample at a time
    # on streams made from their definition.
    reference, stacked = scalar_verify.CHECKS[name], getattr(verify, "_check_" + name)
    for seed in range(8):
        streams = verify._Streams(seed)
        result, gens = reference(seed, samples)
        assert stacked(streams, samples) == result, seed
        assert states(streams.gens[:len(gens)]) == states(gens), seed


@pytest.mark.parametrize("samples", [1, 10])
@pytest.mark.parametrize("seed", range(4))
def test_each_check_run_alone_replays_its_entry(seed, samples):
    # A check's samples depend only on the seed and its index: run alone, it
    # gives its entry of the whole run.
    report = {c.name: c for c in run_verification(seed, samples).checks}
    for name in scalar_verify.CHECKS:
        result = getattr(verify, "_check_" + name)(verify._Streams(seed), samples)
        assert result == report[result.name], name


def test_sweep_indices_are_distinct():
    indices = [getattr(verify, "_check_" + name).index for name in scalar_verify.CHECKS]
    assert len(set(indices)) == len(indices) == 16


def test_every_sampled_check_has_a_reference():
    sampled = {name[len("_check_"):] for name, value in vars(verify).items()
               if name.startswith("_check_") and callable(value)}
    assert sampled - set(scalar_verify.CHECKS) == {"signature", "gamma_relations", "rest_fiber", "spin_character"}


def test_signature_names_the_worst_gram_entry(monkeypatch):
    # Right eigenvalue signs but a Gram defect over the bound: detail names
    # the entry, as the gamma-table check does.
    u = list(world_basis())
    u[2] = u[2] * (1.0 + 1e-12)
    monkeypatch.setattr(verify, "world_basis", lambda: tuple(u))
    result = verify._check_signature(None, 1)
    assert not result.passed
    assert result.detail == "worst entry: u(2), u(2)"


def test_passing_signature_has_no_detail():
    assert verify._check_signature(None, 1).detail == ""


def test_samplers_draw_and_build_as_the_scalar_generators():
    # random_sl2, random_su2 and random_fiber_element wrap the raw draws the
    # stacked checks use; they give the scalar generators' values and leave
    # the generator in the same state.
    for seed in range(8):
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert sampling.random_sl2(r2, 10.0).mat.tobytes() == scalar_verify.random_sl2(r1, 10.0).mat.tobytes()
            assert sampling.random_su2(r2).mat.tobytes() == scalar_verify.random_su2(r1).mat.tobytes()
            f, g = sampling.random_fiber_element(r2), scalar_verify.random_fiber_element(r1)
            assert (f.q.p.coords.tobytes(), f.q.m, f.psi.vec.tobytes()) == (
                g.q.p.coords.tobytes(), g.q.m, g.psi.vec.tobytes())
        assert r2.bit_generator.state == r1.bit_generator.state


def old_sl2_tries(rng, max_norm):
    """The outcome of each try of the two-call draw loop up to its next
    accepted matrix: "singular", "norm" or "accepted"."""
    outcomes = []
    while outcomes[-1:] != ["accepted"]:
        m = rng.normal(0.0, 1.0, (2, 2)) + 1j * rng.normal(0.0, 1.0, (2, 2))
        d = _det2(m)
        if abs(d) < 0.25:
            outcomes.append("singular")
        else:
            outcomes.append("norm" if np.linalg.norm(m / cmath.sqrt(d)) > max_norm else "accepted")
    return outcomes


@pytest.mark.parametrize("max_norm", [4.0, 10.0])
def test_sl2_draw_is_the_two_call_stream(max_norm):
    # One generator call of eight normals per try gives the matrices of the
    # two (2, 2) calls re + 1j * im, and the same generator state after every
    # draw.  The loop counts the rejections the draws pass through; a norm
    # rejection is too rare to meet at max_norm 10 (none in 30,000 draws).
    outcomes = Counter()
    for seed in range(100):
        r1, r2, r3 = (np.random.default_rng(seed) for _ in range(3))
        for _ in range(20):
            assert sampling._sl2_matrix(r2, max_norm).tobytes() == scalar_verify.random_sl2(r1, max_norm).mat.tobytes()
            assert r2.bit_generator.state == r1.bit_generator.state
            outcomes.update(old_sl2_tries(r3, max_norm))
        assert r3.bit_generator.state == r1.bit_generator.state
    assert outcomes["singular"] > 0
    assert outcomes["norm"] > 0 or max_norm == 10.0


class _Tries:
    """A stand-in generator whose normal(0, 1, 8) calls return the rows of g
    in turn, counting them."""

    def __init__(self, g):
        self.rows, self.taken = iter(g), 0

    def normal(self, loc, scale, size):
        self.taken += 1
        return next(self.rows)


@pytest.mark.parametrize("max_norm", [2.0, 4.0, 10.0])
def test_stacked_sl2_test_is_the_scalar_test(max_norm):
    # Each row's verdict and divided matrix are those of _sl2_matrix on that
    # try, bit for bit: singular rows (a zero row among them) and, at max_norm
    # 2, many norm rejections.
    g = np.random.default_rng(3).normal(0.0, 1.0, (3000, 8))
    g[5] = 0.0
    g[6, :4] = -0.0
    mats, ok = sampling._sl2_matrices(g, max_norm)
    tries, accepted = _Tries(g), []
    while True:
        try:
            m = sampling._sl2_matrix(tries, max_norm)
        except StopIteration:
            break
        accepted.append(tries.taken - 1)
        assert m.tobytes() == mats[tries.taken - 1].tobytes()
    assert np.flatnonzero(ok).tolist() == accepted
    assert 5 not in accepted and len(accepted) < 3000


def scalar_uniform_spinors(rng) -> list[float]:
    """The draw of one cyclic-check sample, one try at a time: six (re, im)
    pairs, each uniform in the disc of radius 10 by rejection from the
    square."""
    out = []
    while len(out) < 12:
        re, im = rng.uniform(-10.0, 10.0, 2).tolist()
        if re * re + im * im <= 100.0:
            out += (re, im)
    return out


# The speculative block draws of verify, each with the scalar draw of one
# sample: a stream of random_sl2 tries at each norm bound verify uses, and
# the cyclic check's disc.
BLOCK_LAYOUTS = {
    "sl2 (norm 4)": (verify._sl2s, sampling._sl2_matrix),
    "sl2 (norm 10)": (lambda rng, n: verify._sl2s(rng, n, 10.0), lambda rng: sampling._sl2_matrix(rng, 10.0)),
    "disc (cyclic)": (verify._uniform_spinors, scalar_uniform_spinors),
}
BLOCK_SIZES = [1, 2, 10, 200, 1025]


def same_draws(a, b) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def scalar_draws(seed, draw, sizes):
    """draw(rng) for max(sizes) samples from default_rng(seed), stacked, and
    the generator's state after each count of samples in sizes."""
    rng, rows, states = np.random.default_rng(seed), [], {}
    for n in sizes:
        rows += [draw(rng) for _ in range(n - len(rows))]
        states[n] = rng.bit_generator.state
    return np.array(rows), states


@pytest.mark.parametrize("block, draw", BLOCK_LAYOUTS.values(), ids=BLOCK_LAYOUTS)
def test_block_draws_are_the_scalar_draws(block, draw):
    # The values of n samples and the generator's final state are those of
    # the scalar loop, bit for bit, on seeds 0-49.
    for seed in range(50):
        rows, states = scalar_draws(seed, draw, BLOCK_SIZES)
        for n in BLOCK_SIZES:
            rng = np.random.default_rng(seed)
            assert same_draws(block(rng, n), rows[:n]), (seed, n)
            assert rng.bit_generator.state == states[n], (seed, n)


@pytest.mark.parametrize("block, draw", BLOCK_LAYOUTS.values(), ids=BLOCK_LAYOUTS)
def test_short_blocks_are_refilled(monkeypatch, block, draw):
    # Speculative blocks far too short for their samples: each is given back
    # up to its last whole sample, and the draws still end where the scalar
    # loop's do.
    passes = Counter()
    for name in ("_decode_sl2", "_decode_disc"):
        decode = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, decode=decode: passes.update(["pass"]) or decode(*args))
    monkeypatch.setattr(verify, "_LOOKAHEAD", 0.01)
    for seed in range(50):
        rows, states = scalar_draws(seed, draw, [1, 200])
        for n in (1, 200):
            rng, before = np.random.default_rng(seed), passes["pass"]
            assert same_draws(block(rng, n), rows[:n]), (seed, n)
            assert rng.bit_generator.state == states[n], (seed, n)
            assert passes["pass"] - before > (1 if n > 1 else 0)


@pytest.mark.parametrize("block, draw", BLOCK_LAYOUTS.values(), ids=BLOCK_LAYOUTS)
def test_block_draws_are_a_prefix_of_longer_draws(block, draw):
    # n samples and then m more are the first n + m samples of one draw, and
    # leave the generator in the same state, on seeds 0-49.
    for seed in range(50):
        n, m = [(1, 1), (3, 200), (1024, 1), (10, 1025)][seed % 4]
        r1, r2 = np.random.default_rng(seed), np.random.default_rng(seed)
        assert same_draws(np.concatenate([block(r1, n), block(r1, m)]), block(r2, n + m)), seed
        assert r1.bit_generator.state == r2.bit_generator.state, seed


def test_rejected_sample_raises_the_constructor_error(monkeypatch):
    # A draw the stacked mask rejects goes to the scalar constructor.
    bad = np.array([[1.0, 0.0], [0.0, 2.0]], dtype=complex)
    monkeypatch.setattr(verify, "_sl2s", lambda rng, n: np.array([bad] * n))
    with pytest.raises(NumericalDrift, match="^determinant \\(2\\+0j\\) differs from 1 by more than 1e-12"):
        verify._check_duality(verify._Streams(0), 3)


def test_mask_rejecting_what_the_scalar_path_accepts_is_reported(monkeypatch):
    monkeypatch.setattr(verify, "_unimodular", lambda a: (_det2(a), np.arange(len(a)) != 1))
    with pytest.raises(NumericalDrift, match="^stacked check rejected sample 1, which the scalar path accepts$"):
        verify._check_covering_hom(verify._Streams(0), 3)


def test_first_failing_mask_raises_its_first_rejected_row(monkeypatch):
    # Sample 1 passes the determinant mask but overflows act_momentum; sample
    # 3 fails the determinant mask, which the check applies first.  The error
    # is sample 3's, as its scalar constructor raises it.
    bad = {1: np.diag([1e200, 1e-200]).astype(complex), 3: np.diag([1.0, 2.0]).astype(complex)}
    monkeypatch.setattr(verify, "_sl2s", lambda rng, n: np.array([bad.get(i, np.eye(2, dtype=complex))
                                                                 for i in range(n)]))
    with pytest.raises(NumericalDrift) as info:
        verify._check_duality(verify._Streams(0), 6)
    assert (type(info.value), str(info.value)) == (
        NumericalDrift, "determinant (2+0j) differs from 1 by more than 1e-12; renormalize first")
    # Alone, sample 1 raises act_momentum's error.
    del bad[3]
    with pytest.raises(ValueError) as info:
        verify._check_duality(verify._Streams(0), 6)
    assert (type(info.value), str(info.value)) == (ValueError, "bitensor entries must be finite")


@pytest.mark.parametrize("name", list(scalar_verify.CHECKS))
def test_blocks_draw_and_fold_as_one_block(monkeypatch, name):
    # A check runs in blocks of _BLOCK samples; blocks of 7 draw the same
    # samples, leave every stream in the same state and fold to the same
    # result as one block.
    check = getattr(verify, "_check_" + name)
    s1, s2 = verify._Streams(5), verify._Streams(5)
    whole = check(s1, 30)
    monkeypatch.setattr(verify, "_BLOCK", 7)
    assert check(s2, 30) == whole
    assert states(s2.gens) == states(s1.gens)


def test_blocks_name_the_first_non_finite_sample(monkeypatch):
    monkeypatch.setattr(verify, "_BLOCK", 2)
    defects = iter([[0.1, 0.2], [0.3, float("nan")], [float("inf")]])

    @_sweep("probe", 1.0, 0)
    def probe(rng, n):
        return np.array(next(defects))

    result = probe(verify._Streams(0), 5)
    assert (result.passed, result.max_defect, result.detail) == (False, 0.3, "non-finite defect at sample 3")


def test_a_rejected_copy_names_its_sample(monkeypatch):
    # The two-to-one check stacks A and -A: row n + i is a copy of sample i.
    # Here the mask rejects -A of sample 1 (row 4 of 6), which lorentz_of
    # accepts.
    monkeypatch.setattr(verify, "_lorentz_test",
                        lambda L: (lorentz_defect(L), None, (np.arange(len(L)) != len(L) // 2 + 1, True, True)))
    with pytest.raises(NumericalDrift, match="^stacked check rejected sample 1, which the scalar path accepts$"):
        verify._check_covering_two_to_one(verify._Streams(0), 3)
