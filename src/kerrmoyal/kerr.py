"""Exact phase-space dynamics of the single-mode Kerr oscillator.

The Hamiltonian is Wick ordered, H_hat = w2 (a^dag)^2 a^2 + w1 a^dag a, with
[a, a^dag] = xi.  The Weyl symbols Theta_sm(t|x) of the complete operator
set (a^dag)^s a^m evolve in closed form, solve d_t Theta = {Theta, H}_M and
{Theta, a^dag a}_M = -i(m-s) Theta (validate checks both through the star
engines), and carry the secant amplitude that diverges periodically at
cos((m-s) xi w2 t) = 0.

moyal_solution_symbolic is the one implementation of Theta_sm: a
GaussPolySymbol, built on Python scalars with cmath, that star products pair
and that is called at a PhasePoint for a pointwise value.  initial_symbol
(t = 0) and quantum_trajectory ((s, m) = (0, 1)) are written out separately,
as references to check it against.

All evaluators here are pure functions of their arguments; at a periodic
singular time they raise SingularTime (see checked_cos), never return an
overflowed float.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IndexCapExceeded, SingularTime
from .phase_space import GaussPolySymbol, PhasePoint, ZPoly

# |cos t~| below this is treated as a singular time; only checked_cos reads it.
SINGULAR_COS_WINDOW = 1e-9

# Largest s or m of an observable index.
INDEX_CAP = 30

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class KerrParams:
    """Linear frequency w1, Kerr coefficient w2 and deformation parameter xi."""

    w1: float
    w2: float
    xi: float

    def __post_init__(self):
        for name in ("w1", "w2", "xi"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"Kerr parameter {name} must be finite, got {value!r}")
        if self.xi <= 0:
            raise ValueError("deformation parameter xi must be positive")


@dataclass(frozen=True)
class ObservableIndex:
    """Index (s, m) of the observable (a^dag)^s a^m.

    Each field is stored as the Python int operator.index gives; a value
    it refuses (a float, say) raises ValueError naming the field.
    """

    s: int
    m: int

    def __post_init__(self):
        for name in ("s", "m"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"observable index {name} must be an integer, "
                                 f"got {value!r}") from None
        if self.s < 0 or self.m < 0:
            raise IndexCapExceeded("s and m must be non-negative")
        if self.s > INDEX_CAP or self.m > INDEX_CAP:
            raise IndexCapExceeded(f"(s, m) = ({self.s}, {self.m}) exceeds cap {INDEX_CAP}")

    def t_tilde(self, t: float, params: KerrParams) -> float:
        return kerr_angle(self.m - self.s, t, params)


def kerr_angle(n: int, t: float, params: KerrParams) -> float:
    """t~ = n xi w2 t.  n = 0 (s = m, a constant of motion) gives 0 however
    large w2 t is, and w2 t is formed first, so t = 0 gives 0 for every
    finite w2 instead of inf * 0 = NaN once xi w2 overflows.  Any other t~
    that is not finite (the product overflows) raises OverflowError."""
    if n == 0:
        return 0.0
    tt = n * params.xi * (params.w2 * t)
    if not math.isfinite(tt):
        raise OverflowError(f"t~ = {n} xi w2 t is not finite ({tt!r}) at t = {t!r}")
    return tt


def checked_cos(t_tilde: float) -> float:
    """cos t~, or SingularTime when |cos t~| < SINGULAR_COS_WINDOW."""
    cos_tt = math.cos(t_tilde)
    if abs(cos_tt) < SINGULAR_COS_WINDOW:
        raise SingularTime(f"cos(t~) = {cos_tt:.3e} at t~ = {t_tilde!r}")
    return cos_tt


def w_coefficient(m: int, s: int, l: int) -> float:
    """W(m, s, l) = s! m! / [l! (s-l)! (m-l)!] = C(s, l) C(m, l) l!.

    An exact integer, rounded once to float.
    """
    if l < 0 or l > min(s, m):
        return 0.0
    return float(math.comb(s, l) * math.comb(m, l) * math.factorial(l))


# ---------------------------------------------------------------------------
# Initial symbol
# ---------------------------------------------------------------------------

def initial_symbol(idx: ObservableIndex, xi: float, x: PhasePoint) -> complex:
    """Theta_sm(0|x) = sum_l W(m,s,l) (-xi/2)^l abar^{s-l} a^{m-l}.

    W is formed here from its factorials by exact integer division, not by
    w_coefficient, so that the t = 0 check of the symbol does not share it.
    """
    s, m = idx.s, idx.m
    a = x.z / _SQRT2
    abar = x.zbar / _SQRT2
    total = 0.0 + 0.0j
    for l in range(min(s, m) + 1):
        w = (math.factorial(s) * math.factorial(m)
             // (math.factorial(l) * math.factorial(s - l) * math.factorial(m - l)))
        total += float(w) * (-0.5 * xi) ** l * abar ** (s - l) * a ** (m - l)
    return total


# ---------------------------------------------------------------------------
# Exact Moyal solution
# ---------------------------------------------------------------------------

def moyal_solution_symbolic(idx: ObservableIndex, t: float,
                            params: KerrParams) -> GaussPolySymbol:
    """Theta_sm(t|.) in closed form, the one evaluator of the Moyal solution:

        Theta_sm(t|x) = e^{-i(m-s) w1 t} sec^{s+m+1}(t~) e^{2i t~} e^{-(i/xi) tan(t~) x^2}
                        sum_l W(m,s,l) [-(xi/2) e^{-i t~} cos t~]^l abar^{s-l} a^{m-l}

    with a = z/sqrt(2).  The Gaussian factor is the symbol's quadratic form;
    the amplitude and the series base are folded into the polynomial
    coefficients, one per l at the distinct key (m - l, s - l).  Call the
    result at a PhasePoint for the pointwise value.

    Raises SingularTime at a pole of sec t~, and OverflowError where the
    form's entry tan(t~)/xi, the secant power or a power of the series base
    overflows.  For s = m, t~ = 0: the solution is a constant of motion and
    never singular.  w1 t is formed before the factor m - s, so the phase is
    finite wherever w1 t is; where (m - s) w1 t is not finite, every
    coefficient is NaN and nothing is raised.  Every entry is a Python
    complex, formed with cmath.
    """
    tt = idx.t_tilde(t, params)
    cos_tt = checked_cos(tt)
    arg = -1j * (idx.m - idx.s) * (params.w1 * t)
    phase = cmath.exp(arg) if cmath.isfinite(arg) else complex(math.nan, math.nan)
    pref = phase * (1.0 / cos_tt) ** (idx.s + idx.m + 1) * cmath.exp(2j * tt)
    base = -0.5 * params.xi * cmath.exp(-1j * tt) * cos_tt
    coeffs = {(idx.m - l, idx.s - l): (pref * w_coefficient(idx.m, idx.s, l) * base ** l
                                       * 2.0 ** (-(idx.s + idx.m - 2 * l) / 2.0))
              for l in range(min(idx.s, idx.m) + 1)}
    tan_xi = math.tan(tt) / params.xi
    if not math.isfinite(tan_xi):
        raise OverflowError(f"tan(t~)/xi is not finite at t~ = {tt!r}, xi = {params.xi!r}")
    diag = -1j * tan_xi
    return GaussPolySymbol(((diag, 0j), (0j, diag)), (0j, 0j), 0j, ZPoly(coeffs))


# ---------------------------------------------------------------------------
# Classical flow and semiclassics
# ---------------------------------------------------------------------------

def classical_amplitude(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """a_cl(t|x) = exp(-i (w2 x^2 + w1) t) (q + i p)/sqrt(2).

    The angle is x^2 (w2 t) + w1 t, so t = 0 gives 0 for every finite w2.
    """
    angle = x.x2 * (params.w2 * t) + params.w1 * t
    return np.exp(-1j * angle) * x.z / _SQRT2


def quantum_phase(x: PhasePoint, t: float, params: KerrParams) -> float:
    """Phi = 2 xi w2 t + x^2 (w2 t - tan(xi w2 t)/xi); vanishes as xi -> 0."""
    tt = kerr_angle(1, t, params)
    checked_cos(tt)
    return 2.0 * tt + x.x2 * (params.w2 * t - math.tan(tt) / params.xi)


def quantum_trajectory(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """Theta_01(t|x) = sec^2(xi w2 t) exp(i Phi) a_cl(t|x).

    Real and imaginary parts give [q_hat(t)]_w / sqrt(2) and
    [p_hat(t)]_w / sqrt(2) respectively.
    """
    sec2 = 1.0 / checked_cos(kerr_angle(1, t, params)) ** 2
    phi = quantum_phase(x, t, params)
    return sec2 * np.exp(1j * phi) * classical_amplitude(t, x, params)


def flow_correction_z1(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """Leading semiclassical correction z1 = d Theta_01/d xi at xi = 0: 2i w2 t a_cl.

    It solves the linearized classical flow along a_cl with the source of
    h1 = -w2 x^2 and z1(0|x) = 0 (see jacobi_residual).
    """
    return 2j * params.w2 * t * classical_amplitude(t, x, params)


def semiclassical_trajectory(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """Small-xi expansion of Theta_01 to first order: a_cl + xi z1."""
    return classical_amplitude(t, x, params) + params.xi * flow_correction_z1(t, x, params)


def jacobi_residual(t: float, x: PhasePoint, params: KerrParams) -> float:
    """Residual of the linearized flow along a_cl driven by h1 = -w2 x^2:

        dz1/dt = -i (4 w2 |a|^2 + w1) z1 - 2i w2 a^2 conj(z1) + 2i w2 a,

    which is [d/dt - J H_cl''] z1 = J grad(h1) for H_cl = w2 x^4/4 + w1 x^2/2
    in the complex amplitude (the real form divided by sqrt(2)).  The time
    derivative of z1 is a central difference; the result is xi-independent.
    """
    h_t = 1e-5
    z1_dot = (flow_correction_z1(t + h_t, x, params)
              - flow_correction_z1(t - h_t, x, params)) / (2 * h_t)
    a = classical_amplitude(t, x, params)
    z1 = flow_correction_z1(t, x, params)
    w1, w2 = params.w1, params.w2
    rhs = (-1j * (4.0 * w2 * abs(a) ** 2 + w1) * z1
           - 2j * w2 * a * a * np.conj(z1) + 2j * w2 * a)
    return float(abs(z1_dot - rhs))
