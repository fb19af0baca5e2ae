"""Typed exceptions shared across the package, and the two rules on the
deformation parameter xi that every boundary applies, each a ValueError."""

import math


class KerrMoyalError(Exception):
    """Base class for all package-specific errors."""


class DivergentIntegral(KerrMoyalError):
    """A Gaussian integral has no finite Fresnel continuation: the trace
    pairing's 2x2 form, or the Berezin star product's 4x4 form, has an
    eigenvalue on the non-negative real axis or one that is not finite."""


class DegreeCapExceeded(KerrMoyalError):
    """Polynomial degree of a symbol exceeds the configured cap."""


class IndexCapExceeded(KerrMoyalError):
    """Observable index (s, m) exceeds the configured cap."""


class SingularTime(KerrMoyalError):
    """Evaluation requested at a singular time, where kerr.checked_cos refuses cos t~."""


class InvalidState(KerrMoyalError):
    """A SqueezedState whose s^2 = exp(-4 xi |tau|) underflows below the smallest
    normal float, so that 1/s^2 would not be finite."""


class TruncationInsufficient(KerrMoyalError):
    """A truncated Fock vector misses more than fock.TAIL_TOL of its mass,
    |1 - ||v||^2|: at the given dimension in squeezed_vector, at every
    dimension up to the cap in fock_space_for."""


class ToleranceNotMet(KerrMoyalError):
    """The quadrature's error estimate, ``achieved``, is not within the
    requested tolerance, or its grid would exceed the node bound (``achieved``
    is then inf); or the trace pairing's rounding bound, ``achieved``, is not
    small against its value."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def check_xi(xi: float) -> None:
    """ValueError unless 0 < xi < inf: every params, state, Fock space, star engine and pairing."""
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi!r}")


def check_same_xi(xi: float, other: float) -> None:
    """ValueError unless two operands' xi are equal floats: no tolerance on a scale parameter."""
    if xi != other:
        raise ValueError(f"operands carry different xi ({xi!r} != {other!r})")
