"""Exception types for violated numerical preconditions."""


class NotReal(ValueError):
    """Bitensor fails the Hermitian (involution-fixed) reality check."""


class NumericalDrift(ValueError):
    """A computed matrix violates its defining identities beyond tolerance."""


class BadMass(ValueError):
    """Mass parameter must be a positive real number."""


class NotOnShell(ValueError):
    """Momentum does not satisfy the mass-shell dispersion relation."""


class Degenerate(ValueError):
    """A square root is degenerate: the canonical boost overflows, or a matrix to renormalize is singular."""


class NotInFiber(ValueError):
    """4-spinor is not a mass eigenvector of the momentum's Clifford image."""


class InvalidClassRep(ValueError):
    """Representative spinor lies outside the positive rest eigenspace."""


class BadStep(ValueError):
    """Finite-difference step must be positive."""
