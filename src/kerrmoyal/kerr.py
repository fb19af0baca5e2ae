"""Exact phase-space dynamics of the single-mode Kerr oscillator.

The Hamiltonian is Wick ordered, H_hat = w2 (a^dag)^2 a^2 + w1 a^dag a, with
the xi-scaled algebra [a, a^dag] = xi.  The Weyl symbols of the complete
operator set (a^dag)^s a^m evolve in closed form; the solution
Theta_sm(t|x) is an eigenfunction of the rotation generator (x.J d_x) and
carries the characteristic secant amplitude that diverges periodically at
cos((m-s) xi w2 t) = 0.

All evaluators here are pure functions of their arguments; at a periodic
singular time they raise SingularTime (see checked_cos), never return an
overflowed float.
"""

from __future__ import annotations

import math
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
    """Index (s, m) of the observable (a^dag)^s a^m."""

    s: int
    m: int

    def __post_init__(self):
        if self.s < 0 or self.m < 0:
            raise IndexCapExceeded("s and m must be non-negative")
        if self.s > INDEX_CAP or self.m > INDEX_CAP:
            raise IndexCapExceeded(f"(s, m) = ({self.s}, {self.m}) exceeds cap {INDEX_CAP}")

    def t_tilde(self, t: float, params: KerrParams) -> float:
        return kerr_angle(self.m - self.s, t, params)


def kerr_angle(n: int, t: float, params: KerrParams) -> float:
    """t~ = n xi w2 t.  w2 t is formed first, so t = 0 gives 0 for every
    finite w2 instead of inf * 0 = NaN once xi w2 overflows.  A t~ that is
    not finite (the product overflows) raises OverflowError."""
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
    """Theta_sm(0|x) = sum_l W(m,s,l) (-xi/2)^l abar^{s-l} a^{m-l}."""
    a = x.z / _SQRT2
    abar = x.zbar / _SQRT2
    total = 0.0 + 0.0j
    for l in range(min(idx.s, idx.m) + 1):
        total += (w_coefficient(idx.m, idx.s, l) * (-0.5 * xi) ** l
                  * abar ** (idx.s - l) * a ** (idx.m - l))
    return total


# ---------------------------------------------------------------------------
# Exact Moyal solution
# ---------------------------------------------------------------------------

def _theta_parts(idx: ObservableIndex, t: float,
                 params: KerrParams) -> tuple[float, complex, complex]:
    """(t~, amplitude, base) of Theta_sm: the amplitude
    exp(-i(m-s) w1 t) sec^{s+m+1} t~ and the series base -(xi/2) e^{-i t~} cos t~.

    Raises SingularTime at a pole of sec t~.  w1 t is formed before the
    factor m - s, so the phase is finite wherever w1 t is.
    """
    tt = idx.t_tilde(t, params)
    cos_tt = checked_cos(tt)
    amplitude = (np.exp(-1j * (idx.m - idx.s) * (params.w1 * t))
                 * (1.0 / cos_tt) ** (idx.s + idx.m + 1))
    base = -0.5 * params.xi * np.exp(-1j * tt) * cos_tt
    return tt, amplitude, base


def moyal_solution(idx: ObservableIndex, t: float, x: PhasePoint,
                   params: KerrParams) -> complex:
    """Theta_sm(t|x) in closed form.

    Raises SingularTime at a pole of sec t~.  For s = m, t~ = 0: the solution
    is a constant of motion and never singular.
    """
    tt, amplitude, base = _theta_parts(idx, t, params)
    a = x.z / _SQRT2
    abar = x.zbar / _SQRT2
    series = 0.0 + 0.0j
    for l in range(min(idx.s, idx.m) + 1):
        series += (w_coefficient(idx.m, idx.s, l) * base ** l
                   * abar ** (idx.s - l) * a ** (idx.m - l))
    return (amplitude * np.exp(2j * tt - 1j * x.x2 * math.tan(tt) / params.xi)
            * series)


def moyal_solution_symbolic(idx: ObservableIndex, t: float,
                            params: KerrParams) -> GaussPolySymbol:
    """Theta_sm(t|.) packaged as a GaussPolySymbol for star-product work.

    The Gaussian factor is exp(-(i/xi) tan(t~) x^2); the secant amplitude and
    phases are folded into the polynomial coefficients, one per l at the
    distinct key (m - l, s - l).
    """
    tt, amplitude, base = _theta_parts(idx, t, params)
    pref = amplitude * np.exp(2j * tt)
    coeffs = {(idx.m - l, idx.s - l): (pref * w_coefficient(idx.m, idx.s, l) * base ** l
                                       * 2.0 ** (-(idx.s + idx.m - 2 * l) / 2.0))
              for l in range(min(idx.s, idx.m) + 1)}
    quad = (-1j * math.tan(tt) / params.xi) * np.eye(2)
    return GaussPolySymbol(quad, np.zeros(2), 0.0, ZPoly(coeffs))


# ---------------------------------------------------------------------------
# Finite-difference consistency checks
# ---------------------------------------------------------------------------

def _theta_value(idx, t, q, p, params) -> complex:
    return moyal_solution(idx, t, PhasePoint(q, p), params)


def _d1(fun, u0: float, h: float) -> complex:
    # 4th-order central first derivative
    return (-fun(u0 + 2 * h) + 8 * fun(u0 + h) - 8 * fun(u0 - h) + fun(u0 - 2 * h)) / (12 * h)


def _d2(fun, u0: float, h: float) -> complex:
    # 4th-order central second derivative
    return (-fun(u0 + 2 * h) + 16 * fun(u0 + h) - 30 * fun(u0)
            + 16 * fun(u0 - h) - fun(u0 - 2 * h)) / (12 * h * h)


def _x_step(x: PhasePoint) -> float:
    return 1e-4 * max(1.0, math.sqrt(x.x2))


def moyal_residual(idx: ObservableIndex, t: float, x: PhasePoint,
                   params: KerrParams) -> float:
    """Normalized residual of the reduced equation of motion.

    Checks d_t Theta = -i(m-s)[w2 K + w1] Theta with
    K = x^2 - 2 xi - xi^2 dz dz* (i.e. the real-coordinate Laplacian enters
    with weight xi^2/4), using a 2nd-order stencil in t and 4th-order in x.
    The time step keeps the stencil truncation below the 1e-5
    residual target for indices up to s, m = 2 even close to a singular
    window, where the effective frequency grows like tan^2.
    """
    h_t, h_x = 5e-6, _x_step(x)
    xi = params.xi
    theta0 = _theta_value(idx, t, x.q, x.p, params)
    dt = (_theta_value(idx, t + h_t, x.q, x.p, params)
          - _theta_value(idx, t - h_t, x.q, x.p, params)) / (2 * h_t)
    lap = (_d2(lambda q: _theta_value(idx, t, q, x.p, params), x.q, h_x)
           + _d2(lambda p: _theta_value(idx, t, x.q, p, params), x.p, h_x))
    k_theta = (x.x2 - 2 * xi) * theta0 - 0.25 * xi * xi * lap
    resid = dt + 1j * (idx.m - idx.s) * (params.w2 * k_theta + params.w1 * theta0)
    return float(abs(resid) / max(abs(theta0), 1e-300))


def angular_eigenvalue_residual(idx: ObservableIndex, t: float, x: PhasePoint,
                                params: KerrParams) -> float:
    """Relative residual of (x.J d_x) Theta_sm = i(m-s) Theta_sm."""
    h_x = _x_step(x)
    theta0 = _theta_value(idx, t, x.q, x.p, params)
    dq = _d1(lambda u: _theta_value(idx, t, u, x.p, params), x.q, h_x)
    dp = _d1(lambda u: _theta_value(idx, t, x.q, u, params), x.p, h_x)
    resid = (x.q * dp - x.p * dq) - 1j * (idx.m - idx.s) * theta0
    return float(abs(resid) / max(abs(theta0), 1e-300))


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
