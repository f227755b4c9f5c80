"""Value types are immutable: each invariant is checked once, by the
constructor, and no value can be altered afterwards."""

import copy
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

import twospinors
from twospinors import (
    ETA,
    BiTensor,
    CoSpinor2,
    ConjugatePair,
    FiberElement,
    FourSpinor,
    LorentzMatrix,
    Momentum,
    SL2Element,
    Spinor2,
    beta_inv,
    boost_rep,
    conjugate,
    fiber_basis,
    fiber_residual,
    gamma,
    lorentz_of,
    rest_fiber_basis,
    shell_point,
    slash,
    world_basis,
)
from twospinors import bitensor, bundle, clifford, momentum

_A = SL2Element([[2.0, 0.5j], [0.0, 0.5]])
_Q = shell_point(1.0, 0.3, -0.2, 0.75)
_F = FiberElement(_Q, fiber_basis(_Q)[0])

# Each value with the fields it stores.
VALUES = {
    "Spinor2": (Spinor2(1, 2j), ("vec",)),
    "CoSpinor2": (CoSpinor2(3, -1j), ("vec",)),
    "FourSpinor": (FourSpinor.from_vec([1, 2, -0.0, 4j]), ("vec",)),
    "Momentum": (Momentum(1.25, 0.0, 0.0, 0.75), ("coords",)),
    "BiTensor": (BiTensor([[1, 2j], [-2j, 3]]), ("t",)),
    "SL2Element": (_A, ("mat",)),
    "LorentzMatrix": (LorentzMatrix(lorentz_of(_A).mat), ("mat",)),
    "MassShellPoint": (_Q, ("p", "m")),
    "FiberElement": (_F, ("q", "psi")),
    "AssociatedClassRep": (beta_inv(_F), ("A", "phi_plus", "m")),
    "ConjugatePair": (ConjugatePair(Spinor2(1, 2j), conjugate(Spinor2(1, 2j))), ("s", "sbar")),
}
values = pytest.mark.parametrize("value, names", VALUES.values(), ids=VALUES)
# The seven types that store one array; the rest are frozen dataclasses.
ARRAY_VALUES = {k: v for k, (v, _) in VALUES.items() if not hasattr(v, "__dataclass_fields__")}


def stored_arrays(value):
    """The arrays a value (or a tuple of values) stores, its fields' arrays
    included."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, float):
        return []
    if isinstance(value, tuple):
        return [a for v in value for a in stored_arrays(v)]
    names = getattr(value, "__dataclass_fields__", None) or [
        name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    return [a for name in names for a in stored_arrays(getattr(value, name))]


def same_value(a, b):
    # SL2Element, BiTensor and LorentzMatrix (so AssociatedClassRep too)
    # compare by identity; a repr spells every stored bit, so equal reprs are
    # equal values.
    return type(a) is type(b) and repr(a) == repr(b)


@values
def test_fields_refuse_assignment_and_deletion(value, names):
    before, digest = repr(value), hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before and hash(value) == digest


# The module tables, public and private: each is made once, at import.
TABLES = {
    "ETA": ETA,
    **{f"gamma({mu})": gamma(mu) for mu in range(4)},
    "rest_fiber_basis": rest_fiber_basis(),
    "world_basis": world_basis(),
    "bitensor._WORLD_STACK": bitensor._WORLD_STACK,
    "clifford._DYAD_IMAGES": clifford._DYAD_IMAGES,
    "bundle._REST": bundle._REST,
    "momentum._ID2": momentum._ID2,
}


def base_chain(a):
    """a and every array its .base chain reaches."""
    chain = []
    while isinstance(a, np.ndarray):
        chain.append(a)
        a = a.base
    return chain


@pytest.mark.parametrize("value", [v for v, _ in VALUES.values()] + list(TABLES.values()),
                         ids=list(VALUES) + list(TABLES))
def test_stored_arrays_cannot_be_made_writeable(value):
    # Every read-only array is a copy on an immutable bytes buffer
    # (spinor._sealed), so no array down its .base chain can be unlocked.
    arrays = stored_arrays(value)
    assert arrays
    for chain in map(base_chain, arrays):
        assert isinstance(chain[-1].base, bytes)
        for a in chain:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="cannot set WRITEABLE flag to True"):
                a.setflags(write=True)


@values
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_and_read_only(value, names, duplicate):
    twin = duplicate(value)
    assert same_value(twin, value)
    for a in stored_arrays(twin):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.setflags(write=True)


@pytest.mark.parametrize("value", ARRAY_VALUES.values(), ids=ARRAY_VALUES)
def test_array_values_are_rebuilt_by_their_constructor(value):
    # Copy, deepcopy and pickle go through __reduce__, so they run the checks.
    assert len(ARRAY_VALUES) == 7
    rebuild, args = value.__reduce__()
    assert rebuild is type(value)
    assert same_value(rebuild(*args), value)


def test_altered_pickle_is_refused_when_loaded():
    # Loading runs the constructor's check: a pickle whose entries spell a
    # matrix of determinant 4 does not load.
    one, two = pickle.dumps(1.0, protocol=2)[2:-1], pickle.dumps(2.0, protocol=2)[2:-1]
    data = pickle.dumps(SL2Element.identity(), protocol=2)
    assert data.count(one) == 2
    with pytest.raises(ValueError, match=r"^determinant \(4\+0j\) differs from 1"):
        pickle.loads(data.replace(one, two))


def filled_point():
    """A fresh shell point with both kept values filled: its boost and the
    slash of its fiber tests."""
    q = shell_point(1.5, 0.4, -0.2, 0.9)
    fiber_residual(q, fiber_basis(q)[0])
    assert set(vars(q)) == {"p", "m", "_boost", "_slash"}
    return q


def test_kept_values_reach_no_comparison():
    q, twin = shell_point(1.5, 0.4, -0.2, 0.9), shell_point(1.5, 0.4, -0.2, 0.9)
    before = (repr(q), hash(q))
    fiber_residual(q, fiber_basis(q)[0])
    assert vars(q).keys() > vars(twin).keys()
    assert (repr(q), hash(q)) == before == (repr(twin), hash(twin))
    assert q == twin and twin == q


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
def test_kept_values_are_not_copied(duplicate):
    q = filled_point()
    twin = duplicate(q)
    assert set(vars(twin)) == {"p", "m"} and twin == q
    fiber_residual(twin, fiber_basis(twin)[0])
    # Every array reachable from the twin, its kept ones included, is sealed.
    arrays = stored_arrays(twin) + [boost_rep(twin).mat, vars(twin)["_slash"]]
    for chain in map(base_chain, arrays):
        assert isinstance(chain[-1].base, bytes)
        assert not any(a.flags.writeable for a in chain)


def test_kept_slash_is_not_the_public_slash():
    q = filled_point()
    kept, public = vars(q)["_slash"], slash(q.p)
    assert public is not kept and public.base is None and public.flags.writeable
    assert public.tobytes() == kept.tobytes()
    assert isinstance(base_chain(kept)[-1].base, bytes)


def test_sealed_is_the_one_read_only_path():
    for path in Path(twospinors.__file__).parent.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        assert "setflags(" not in text, path.name
        assert "lru_cache" not in text, path.name


@pytest.mark.parametrize("mat, shape", [(np.eye(3), (3, 3)), ([1, 2, 3, 4], (4,))])
def test_renormalized_checks_the_shape_like_the_constructor(mat, shape):
    message = f"^expected a 2x2 matrix, got shape {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        SL2Element.renormalized(mat)
    with pytest.raises(ValueError, match=message):
        SL2Element(mat)


_BIG = BiTensor(np.diag([1e308, 1e308]))
_WIDE = SL2Element(np.diag([1e200, 1e-200]))

# Public value operations past the float range: each raises its typed error,
# or returns a raw array with non-finite entries, and never warns (a
# RuntimeWarning fails the run).  (call, the error message or None.)
OVERFLOWS = {
    "bitensor-mul": (lambda: _BIG * 10, "bitensor entries must be finite"),
    "bitensor-add": (lambda: _BIG + _BIG, "bitensor entries must be finite"),
    "bitensor-sub": (lambda: _BIG - (-_BIG), "bitensor entries must be finite"),
    "project_real": (lambda: bitensor.project_real(_BIG), "bitensor entries must be finite"),
    "sl2-matmul": (lambda: _WIDE @ _WIDE, "matrix entries must be finite"),
    "act": (lambda: twospinors.act(_WIDE, Spinor2(1e200, 0)), "Spinor2 components must be finite"),
    "act_bar": (lambda: twospinors.act_bar(_WIDE, CoSpinor2(1e200, 0)), "CoSpinor2 components must be finite"),
    "elementary": (lambda: twospinors.elementary(Spinor2(1e200, 0), CoSpinor2(1e200, 0)),
                   "bitensor entries must be finite"),
    "fiber_projector": (lambda: twospinors.fiber_projector(shell_point(1e-300, 1e10, 0, 0)), None),
    "anticommutator_defect": (lambda: twospinors.anticommutator_defect(_BIG, _BIG), None),
    "slash": (lambda: twospinors.slash([1e308] * 4), None),
    "q_form": (lambda: twospinors.q_form([1e200, 0, 0, 0]), None),
    "beta": (lambda: twospinors.beta(twospinors.AssociatedClassRep(
        SL2Element([[2, 0], [0, 0.5]]), FourSpinor.from_vec([1.7e308, 0, 0, -1.7e308]), 1.0)),
        "FourSpinor components must be finite"),
    "boost_matrices": (lambda: momentum.boost_matrices(np.array([[1e10, 1e10, 0, 0]]), 1e-300), None),
    "gamma_relation_residuals": (lambda: clifford.gamma_relation_residuals([np.full((4, 4), 1.7e308)] * 4), None),
}


@pytest.mark.parametrize("call, message", OVERFLOWS.values(), ids=OVERFLOWS)
def test_overflow_is_silent_then_refused(call, message):
    if message is None:
        assert not np.isfinite(call()).all()
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
