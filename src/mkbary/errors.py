"""Exception types shared across the package."""


class MKError(Exception):
    """Base class for all package errors."""


class NegativeWeight(MKError):
    """A weight vector contains a negative entry."""


class NonFinite(MKError):
    """A weight or an atom coordinate is NaN or infinite."""


class MassNotOne(MKError):
    """Weights do not sum to 1 within the admission tolerance."""


class EmptySupport(MKError):
    """A measure would end up with no atoms."""


class SpaceMismatch(MKError):
    """Operands live on incompatible ground spaces."""


class ImageOutsideSpace(MKError):
    """A pushforward map produced a point outside the ground space."""


class UnboundedRatio(MKError):
    """Sampled growth ratio exceeded the configured cap."""


class ConstructionFailed(MKError):
    """Relaxed-constant construction violated its inequality on the grid.

    Carries the witness triple in ``args[1]`` when available.
    """


class NumericalFailure(MKError):
    """LP solver failed to close the duality gap."""


class CertificateViolation(MKError):
    """A transport plan fails its marginal, sign, objective or dual check."""


class TooLarge(MKError):
    """Problem exceeds the brute-force size cap."""


class MarginalMismatch(MKError):
    """Plans disagree on the marginal they are glued along."""


class NotConvexCost(MKError):
    """Solver requires a convex translation-invariant cost."""


class NotOneDimensional(MKError):
    """Solver requires a one-dimensional euclidean ground space."""
