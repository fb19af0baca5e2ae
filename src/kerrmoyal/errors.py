"""Typed exceptions shared across the package."""


class KerrMoyalError(Exception):
    """Base class for all package-specific errors."""


class DegenerateQuadraticForm(KerrMoyalError):
    """The Fresnel-regularized Gaussian form stays singular (|det| below tolerance)."""


class DivergentIntegral(KerrMoyalError):
    """A phase-space integral has no finite Fresnel continuation."""


class DegreeCapExceeded(KerrMoyalError):
    """Polynomial degree of a symbol exceeds the configured cap."""


class IndexCapExceeded(KerrMoyalError):
    """Observable index (s, m) exceeds the configured cap."""


class SingularTime(KerrMoyalError):
    """Evaluation requested at a singular time, where kerr.checked_cos refuses cos t~."""


class InvalidState(KerrMoyalError):
    """State parameters outside their admissible range (e.g. squeeze factor s <= 0)."""


class TruncationInsufficient(KerrMoyalError):
    """Fock-space truncation leaves more tail mass than tolerated at the dimension cap."""


class ToleranceNotMet(KerrMoyalError):
    """Adaptive quadrature could not reach the requested error estimate."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved
