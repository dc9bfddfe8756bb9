"""Exception types shared across the library.

Domain errors carry a stable kebab-case ``code`` so front ends can report
them in a machine-parsable way.
"""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""

    code = "domain-error"


class MixedRadicands(DomainError):
    """Surd arithmetic attempted across two different quadratic fields."""

    code = "mixed-radicands"


class NonPositive(DomainError):
    """A positive value was required."""

    code = "non-positive"


class NoRealRoots(DomainError):
    """Negative discriminant: the quadratic has no real solutions."""

    code = "no-real-roots"


class NoRealRoot(DomainError):
    """Even-degree root of a negative quantity."""

    code = "no-real-root"


class DegenerateIdentity(DomainError):
    """The equation collapses to a constant identity or contradiction."""

    code = "degenerate-identity"


class InputTooLarge(DomainError):
    """A value of the equation beyond the float range of the first refinement stage, or an
    input above a documented bound: ``surds.MAX_RADICAND`` or a catalog size bound.
    """

    code = "input-too-large"


class NoConvergence(RuntimeError):
    """Root refinement exhausted its iteration budget (internal failure)."""


class CrossCheckFailed(RuntimeError):
    """Two independent computations of the same quantity disagree (internal failure)."""
