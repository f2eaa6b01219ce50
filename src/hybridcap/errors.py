"""Exception hierarchy shared by all hybridcap modules."""


class HybridcapError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(HybridcapError):
    """Operands act on Hilbert spaces of different dimension."""


class NonHermitianInput(HybridcapError):
    """A matrix expected to be Hermitian fails the tolerance check."""


class NoConvergence(HybridcapError):
    """LAPACK failed to converge on an eigendecomposition."""


class NegativeEigenvalue(HybridcapError):
    """A matrix expected to be positive semidefinite has an eigenvalue below -1e-9."""


class ZeroProbabilityOutcome(HybridcapError):
    """Posterior state requested for an outcome with (numerically) zero probability."""


class LabelMismatch(HybridcapError):
    """Hybrid states with different outcome label sets were combined."""


class InfeasibleEnergy(HybridcapError):
    """The energy constraint set {S : Tr SF <= E} is empty."""


class BracketFailure(HybridcapError):
    """Bisection for the Gibbs inverse temperature could not bracket a solution."""


class EnumerationTooLarge(HybridcapError):
    """Exact enumeration over outcome words was requested beyond the size guard."""


class DomainError(HybridcapError):
    """Argument outside the domain of a closed-form capacity expression."""
