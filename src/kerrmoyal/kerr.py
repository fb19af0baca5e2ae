"""Exact phase-space dynamics of the single-mode Kerr oscillator.

The Hamiltonian is Wick ordered, H_hat = w2 (a^dag)^2 a^2 + w1 a^dag a, with
the xi-scaled algebra [a, a^dag] = xi.  The Weyl symbols of the complete
operator set (a^dag)^s a^m evolve in closed form; the solution
Theta_sm(t|x) is an eigenfunction of the rotation generator (x.J d_x) and
carries the characteristic secant amplitude that diverges periodically at
cos((m-s) xi w2 t) = 0.

All evaluators here are pure functions of their arguments; the periodic
singular times are reported through typed values or errors, never as
overflowed floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexCapExceeded, SingularTime, SingularWindow
from .phase_space import POISSON_J, GaussPolySymbol, PhasePoint, ZPoly

# |cos t~| below this is treated as a singular time.
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
    cap: int = INDEX_CAP

    def __post_init__(self):
        if self.s < 0 or self.m < 0:
            raise IndexCapExceeded("s and m must be non-negative")
        if self.s > self.cap or self.m > self.cap:
            raise IndexCapExceeded(f"(s, m) = ({self.s}, {self.m}) exceeds cap {self.cap}")

    def t_tilde(self, t: float, params: KerrParams) -> float:
        return (self.m - self.s) * params.xi * params.w2 * t


@dataclass(frozen=True)
class MoyalValue:
    """Value of Theta_sm(t|x), or a singular-time marker carrying t~."""

    value: complex | None
    singular_t_tilde: float | None = None

    @property
    def is_singular(self) -> bool:
        return self.value is None

    @classmethod
    def singular(cls, t_tilde: float) -> "MoyalValue":
        return cls(None, t_tilde)


@dataclass(frozen=True)
class ClassicalState:
    """Point of the classical Kerr flow; x^2 is conserved along it."""

    q_cl: float
    p_cl: float

    @property
    def a_cl(self) -> complex:
        return (self.q_cl + 1j * self.p_cl) / _SQRT2

    def as_array(self) -> np.ndarray:
        return np.array([self.q_cl, self.p_cl], dtype=float)


def w_coefficient(m: int, s: int, l: int) -> float:
    """W(m, s, l) = s! m! / [l! (s-l)! (m-l)!] = C(s, l) C(m, l) l!.

    An exact integer, rounded once to float.
    """
    if l < 0 or l > min(s, m):
        return 0.0
    return float(math.comb(s, l) * math.comb(m, l) * math.factorial(l))


# ---------------------------------------------------------------------------
# Static symbols
# ---------------------------------------------------------------------------

def hamiltonian_symbol(params: KerrParams, x: PhasePoint) -> float:
    """H(xi, x) = w2 [x^4/4 - xi x^2 + xi^2/2] + w1 [x^2/2 - xi/2]."""
    x2 = x.x2
    xi = params.xi
    return (params.w2 * (0.25 * x2 * x2 - xi * x2 + 0.5 * xi * xi)
            + params.w1 * (0.5 * x2 - 0.5 * xi))


def hamiltonian_classical(params: KerrParams, x: PhasePoint) -> float:
    """xi-independent part: H_cl = w2 x^4/4 + w1 x^2/2."""
    x2 = x.x2
    return 0.25 * params.w2 * x2 * x2 + 0.5 * params.w1 * x2


def hamiltonian_h1(params: KerrParams, x: PhasePoint) -> float:
    """Coefficient of xi in the expansion of H whose gradient drives z1: -w2 x^2."""
    return -params.w2 * x.x2


def hamiltonian_h2(params: KerrParams) -> float:
    """x-independent xi^2 coefficient of H, w2/2."""
    return 0.5 * params.w2


def number_symbol(xi: float, x: PhasePoint) -> float:
    """Symbol of the number operator, (x^2 - xi)/2."""
    return 0.5 * (x.x2 - xi)


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

def moyal_solution(idx: ObservableIndex, t: float, x: PhasePoint,
                   params: KerrParams) -> MoyalValue:
    """Theta_sm(t|x) in closed form.

    Returns a SingularTime marker whenever |cos t~| < 1e-9 and s != m;
    for s = m the solution is a constant of motion and never singular.
    """
    tt = idx.t_tilde(t, params)
    cos_tt = math.cos(tt)
    if idx.s != idx.m and abs(cos_tt) < SINGULAR_COS_WINDOW:
        return MoyalValue.singular(tt)
    sec_tt = 1.0 / cos_tt
    xi = params.xi
    a = x.z / _SQRT2
    abar = x.zbar / _SQRT2
    pref = (np.exp(-1j * (idx.m - idx.s) * params.w1 * t)
            * sec_tt ** (idx.s + idx.m + 1)
            * np.exp(2j * tt - 1j * x.x2 * math.tan(tt) / xi))
    series = 0.0 + 0.0j
    base = -0.5 * xi * np.exp(-1j * tt) * cos_tt
    for l in range(min(idx.s, idx.m) + 1):
        series += (w_coefficient(idx.m, idx.s, l) * base ** l
                   * abar ** (idx.s - l) * a ** (idx.m - l))
    return MoyalValue(pref * series)


def moyal_solution_symbolic(idx: ObservableIndex, t: float,
                            params: KerrParams) -> GaussPolySymbol:
    """Theta_sm(t|.) packaged as a GaussPolySymbol for star-product work.

    The Gaussian factor is exp(-(i/xi) tan(t~) x^2); the secant amplitude and
    phases are folded into the polynomial coefficients.
    """
    tt = idx.t_tilde(t, params)
    cos_tt = math.cos(tt)
    if idx.s != idx.m and abs(cos_tt) < SINGULAR_COS_WINDOW:
        raise SingularTime(f"cos(t~) = {cos_tt:.3e} at t~ = {tt!r}")
    xi = params.xi
    sec_tt = 1.0 / cos_tt
    pref = (np.exp(-1j * (idx.m - idx.s) * params.w1 * t)
            * sec_tt ** (idx.s + idx.m + 1) * np.exp(2j * tt))
    base = -0.5 * xi * np.exp(-1j * tt) * cos_tt
    coeffs: dict[tuple[int, int], complex] = {}
    for l in range(min(idx.s, idx.m) + 1):
        c = (pref * w_coefficient(idx.m, idx.s, l) * base ** l
             * 2.0 ** (-(idx.s + idx.m - 2 * l) / 2.0))
        key = (idx.m - l, idx.s - l)
        coeffs[key] = coeffs.get(key, 0.0) + c
    quad = (-1j * math.tan(tt) / xi) * np.eye(2)
    return GaussPolySymbol(quad, np.zeros(2), 0.0, ZPoly(coeffs))


# ---------------------------------------------------------------------------
# Finite-difference consistency checks
# ---------------------------------------------------------------------------

def _theta_value(idx, t, q, p, params) -> complex:
    val = moyal_solution(idx, t, PhasePoint(q, p), params)
    if val.is_singular:
        raise SingularWindow(f"stencil point at singular t~ = {val.singular_t_tilde!r}")
    return val.value


def _d1(fun, u0: float, h: float) -> complex:
    # 4th-order central first derivative
    return (-fun(u0 + 2 * h) + 8 * fun(u0 + h) - 8 * fun(u0 - h) + fun(u0 - 2 * h)) / (12 * h)


def _d2(fun, u0: float, h: float) -> complex:
    # 4th-order central second derivative
    return (-fun(u0 + 2 * h) + 16 * fun(u0 + h) - 30 * fun(u0)
            + 16 * fun(u0 - h) - fun(u0 - 2 * h)) / (12 * h * h)


def default_step(x: PhasePoint) -> float:
    return 1e-4 * max(1.0, math.sqrt(x.x2))


def moyal_residual(idx: ObservableIndex, t: float, x: PhasePoint, params: KerrParams,
                   h_t: float = 5e-6, h_x: float | None = None) -> float:
    """Normalized residual of the reduced equation of motion.

    Checks d_t Theta = -i(m-s)[w2 K + w1] Theta with
    K = x^2 - 2 xi - xi^2 dz dz* (i.e. the real-coordinate Laplacian enters
    with weight xi^2/4), using a 2nd-order stencil in t and 4th-order in x.
    The default time step keeps the stencil truncation below the 1e-5
    residual target for indices up to s, m = 2 even close to a singular
    window, where the effective frequency grows like tan^2.
    """
    if h_x is None:
        h_x = default_step(x)
    xi = params.xi
    theta0 = _theta_value(idx, t, x.q, x.p, params)
    dt = (_theta_value(idx, t + h_t, x.q, x.p, params)
          - _theta_value(idx, t - h_t, x.q, x.p, params)) / (2 * h_t)
    lap = (_d2(lambda q: _theta_value(idx, t, q, x.p, params), x.q, h_x)
           + _d2(lambda p: _theta_value(idx, t, x.q, p, params), x.p, h_x))
    k_theta = (x.x2 - 2 * xi) * theta0 - 0.25 * xi * xi * lap
    resid = dt + 1j * (idx.m - idx.s) * (params.w2 * k_theta + params.w1 * theta0)
    return float(abs(resid) / max(abs(theta0), 1e-300))


def moyal_residual_third_order(idx: ObservableIndex, t: float, x: PhasePoint,
                               params: KerrParams, h_t: float = 1e-4,
                               h_x: float | None = None) -> float:
    """Normalized residual of the third-order form with the (x.J d_x) factor.

    d_t Theta + [w2 (x^2 - 2 xi - (xi^2/4) Lap) + w1] (x.J d_x) Theta = 0,
    with nested central stencils.  The default x-step is larger than for
    :func:`moyal_residual` because two stencil levels amplify rounding.
    """
    if h_x is None:
        h_x = 10.0 * default_step(x)
    xi = params.xi

    def rot(q: float, p: float) -> complex:
        # (x.J d_x) Theta = q dp Theta - p dq Theta at (q, p)
        dq = _d1(lambda u: _theta_value(idx, t, u, p, params), q, h_x)
        dp = _d1(lambda u: _theta_value(idx, t, q, u, params), p, h_x)
        return q * dp - p * dq

    theta0 = _theta_value(idx, t, x.q, x.p, params)
    dt = (_theta_value(idx, t + h_t, x.q, x.p, params)
          - _theta_value(idx, t - h_t, x.q, x.p, params)) / (2 * h_t)
    rot0 = rot(x.q, x.p)
    lap_rot = (_d2(lambda q: rot(q, x.p), x.q, h_x)
               + _d2(lambda p: rot(x.q, p), x.p, h_x))
    k_rot = (x.x2 - 2 * xi) * rot0 - 0.25 * xi * xi * lap_rot
    resid = dt + params.w2 * k_rot + params.w1 * rot0
    return float(abs(resid) / max(abs(theta0), 1e-300))


def angular_eigenvalue_residual(idx: ObservableIndex, t: float, x: PhasePoint,
                                params: KerrParams, h_x: float | None = None) -> float:
    """Relative residual of (x.J d_x) Theta_sm = i(m-s) Theta_sm."""
    if h_x is None:
        h_x = default_step(x)
    theta0 = _theta_value(idx, t, x.q, x.p, params)
    dq = _d1(lambda u: _theta_value(idx, t, u, x.p, params), x.q, h_x)
    dp = _d1(lambda u: _theta_value(idx, t, x.q, u, params), x.p, h_x)
    resid = (x.q * dp - x.p * dq) - 1j * (idx.m - idx.s) * theta0
    return float(abs(resid) / max(abs(theta0), 1e-300))


def ansatz_ode_check(m: int, t: float, params: KerrParams,
                     h_t: float = 1e-6) -> tuple[float, float]:
    """Residuals of the coupled ODEs for g(t) and f(t) in the one-sided ansatz.

    g(t) = -(i/xi) tan(m xi w2 t) and f(t) = sec^{m+1}(m xi w2 t) must satisfy
    g' = i m w2 (-1 + xi^2 g^2) and f' = i m (m+1) xi^2 w2 g f.
    """
    xi, w2 = params.xi, params.w2

    def g(u: float) -> complex:
        phase = m * xi * w2 * u
        if abs(math.cos(phase)) < SINGULAR_COS_WINDOW:
            raise SingularWindow(f"cos(m xi w2 t) vanishes at t = {u!r}")
        return -1j * math.tan(phase) / xi

    def f(u: float) -> complex:
        phase = m * xi * w2 * u
        if abs(math.cos(phase)) < SINGULAR_COS_WINDOW:
            raise SingularWindow(f"cos(m xi w2 t) vanishes at t = {u!r}")
        return (1.0 / math.cos(phase)) ** (m + 1)

    g_dot = (g(t + h_t) - g(t - h_t)) / (2 * h_t)
    f_dot = (f(t + h_t) - f(t - h_t)) / (2 * h_t)
    res_g = abs(g_dot - 1j * m * w2 * (-1.0 + xi * xi * g(t) ** 2))
    res_f = abs(f_dot - 1j * m * (m + 1) * xi * xi * w2 * g(t) * f(t))
    return float(res_g), float(res_f)


# ---------------------------------------------------------------------------
# Classical flow and semiclassics
# ---------------------------------------------------------------------------

def classical_flow(t: float, x: PhasePoint, params: KerrParams) -> ClassicalState:
    """Rotation of x by the amplitude-dependent angle (w2 x^2 + w1) t."""
    angle = (params.w2 * x.x2 + params.w1) * t
    c, s = math.cos(angle), math.sin(angle)
    return ClassicalState(c * x.q + s * x.p, -s * x.q + c * x.p)


def classical_amplitude(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """a_cl(t|x) = exp(-i (w2 x^2 + w1) t) (q + i p)/sqrt(2)."""
    angle = (params.w2 * x.x2 + params.w1) * t
    return np.exp(-1j * angle) * x.z / _SQRT2


def quantum_phase(xi: float, x: PhasePoint, t: float, params: KerrParams) -> float:
    """Phi = 2 xi w2 t + x^2 (w2 t - tan(xi w2 t)/xi); vanishes as xi -> 0."""
    phase = xi * params.w2 * t
    if abs(math.cos(phase)) < SINGULAR_COS_WINDOW:
        raise SingularWindow(f"cos(xi w2 t) vanishes at t = {t!r}")
    return 2.0 * xi * params.w2 * t + x.x2 * (params.w2 * t - math.tan(phase) / xi)


def quantum_trajectory(t: float, x: PhasePoint, params: KerrParams) -> complex:
    """Theta_01(t|x) = sec^2(xi w2 t) exp(i Phi) a_cl(t|x).

    Real and imaginary parts give [q_hat(t)]_w / sqrt(2) and
    [p_hat(t)]_w / sqrt(2) respectively.
    """
    phase = params.xi * params.w2 * t
    if abs(math.cos(phase)) < SINGULAR_COS_WINDOW:
        raise SingularWindow(f"cos(xi w2 t) vanishes at t = {t!r}")
    sec2 = 1.0 / math.cos(phase) ** 2
    phi = quantum_phase(params.xi, x, t, params)
    return sec2 * np.exp(1j * phi) * classical_amplitude(t, x, params)


def semiclassical_trajectory(t: float, x: PhasePoint, params: KerrParams,
                             order: int = 1) -> complex:
    """Small-xi expansion of Theta_01: a_cl at order 0, a_cl (1 + 2i w2 t xi) at order 1."""
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    a_cl = classical_amplitude(t, x, params)
    if order == 0:
        return a_cl
    return a_cl * (1.0 + 2j * params.w2 * t * params.xi)


def flow_correction_z1(t: float, x: PhasePoint, params: KerrParams) -> np.ndarray:
    """Leading semiclassical flow correction z1 = d Z(t, xi|x)/d xi at xi = 0.

    In complex form the correction is 2i w2 t a_cl, i.e. the vector
    -2 w2 t J Z_cl(t|x); it solves the inhomogeneous Jacobi equation with
    source J grad(h1) along the classical flow and z1(0|x) = 0.
    """
    z_cl = classical_flow(t, x, params).as_array()
    return -2.0 * params.w2 * t * (POISSON_J @ z_cl)


def classical_hessian(z_cl: np.ndarray, params: KerrParams) -> np.ndarray:
    """Hessian of H_cl at a point of the flow."""
    x2 = float(z_cl @ z_cl)
    return (params.w2 * (x2 * np.eye(2) + 2.0 * np.outer(z_cl, z_cl))
            + params.w1 * np.eye(2))


def jacobi_residual(t: float, x: PhasePoint, params: KerrParams,
                    h_t: float = 1e-5) -> float:
    """Residual of [d/dt - J H_cl''(Z_cl)] z1 = J grad(h1)(Z_cl).

    The time derivative of z1 is taken by a central difference with step h_t;
    the result is xi-independent.
    """
    z1_dot = (flow_correction_z1(t + h_t, x, params)
              - flow_correction_z1(t - h_t, x, params)) / (2 * h_t)
    z_cl = classical_flow(t, x, params).as_array()
    lhs = z1_dot - POISSON_J @ classical_hessian(z_cl, params) @ flow_correction_z1(t, x, params)
    rhs = POISSON_J @ (-2.0 * params.w2 * z_cl)
    return float(np.linalg.norm(lhs - rhs))
