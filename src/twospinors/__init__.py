"""Numerical 2-spinor algebra kernel.

Spinor pairs with a symplectic form, bitensors whose Hermitian part carries
the Lorentz quadratic form, a Clifford module map producing the gamma
matrices, the two-to-one covering of the Lorentz group, the Dirac bundle
over the forward mass shell, and its associated-bundle description.
"""

from .bitensor import (
    ETA,
    BiTensor,
    LorentzMatrix,
    MinkowskiVec,
    Momentum,
    elementary,
    from_minkowski,
    h_form,
    involution_J,
    lorentz_of,
    pi_act,
    project_real,
    q_form,
    reality_defect,
    to_minkowski,
    world_basis,
)
from .bundle import (
    AssociatedClassRep,
    ConjugatePair,
    FiberElement,
    beta,
    beta_inv,
    fiber_basis,
    fiber_projector,
    fiber_residual,
    rest_fiber_basis,
    spin_character,
    split_conjugate_pair,
)
from .clifford import (
    FourSpinor,
    anticommutator_defect,
    equivariance_defect,
    gamma,
    phi,
    slash,
    tau,
)
from .errors import (
    BadMass,
    BadStep,
    Degenerate,
    InvalidClassRep,
    NotInFiber,
    NotOnShell,
    NotReal,
    NumericalDrift,
)
from .momentum import (
    MassShellPoint,
    act_momentum,
    boost_rep,
    shell_point,
)
from .planewave import plane_wave, planewave_residual
from .spinor import (
    CoSpinor2,
    SL2Element,
    Spinor2,
    act,
    act_bar,
    conjugate,
    cyclic_defect,
    eps,
    eps_bar,
)
from .verify import CONVENTIONS, CheckResult, VerifyReport, run_verification

__version__ = "0.1.0"
