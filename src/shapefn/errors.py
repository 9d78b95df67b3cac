"""Exception types shared across the package."""


class ShapeFnError(Exception):
    """Base class for all package errors."""


class UnsupportedRepresentationError(ShapeFnError):
    """Body variant / dimension combination not supported by this operation."""


class RankDeficiencyError(ShapeFnError):
    """Input points do not affinely span the ambient space."""


class StuckWalkError(ShapeFnError):
    """A walk-on-spheres trajectory exceeded the step budget."""


class DegenerateEstimateError(ShapeFnError):
    """A Monte Carlo estimate carries no information (e.g. zero hits)."""


class InternalConsistencyError(ShapeFnError):
    """A self-check that should never fail did fail."""


class ValidationError(ShapeFnError):
    """Invalid argument or body description."""
