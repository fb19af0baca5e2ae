"""Squeezed-state expectation values of the evolving annihilation symbol.

The closed form for <a(t)> is a generalized Gaussian integral of the Moyal
solution Theta_01 against the squeezed Wigner density.  It is evaluated in
pole-cleared variables: with t~ = xi w2 t, c = cos t~, sigma = sin t~ and

    n12 = (s^2 c + i sigma)(c / s^2 + i sigma),

the amplitude factor is G^{3/2} = (e^{-2i t~} n12)^{-3/2} and the Gaussian
exponent is -2i |alpha|^2 sigma (i sigma + A c) / (xi n12), where
A = cos^2(Delta_phi/2) / s^2 + s^2 sin^2(Delta_phi/2).  Since

    Re(e^{-2i t~} n12) = 1 + 2 sigma^2 c^2 (s - 1/s)^2 >= 1

for every t~, the principal 3/2 power is the continuous branch from t = 0
(where it equals 1), and n12 never vanishes (n12 = -1 at c = 0).  Nothing in
the formula has a pole, so <a(t)> is evaluated the same way at the singular
times of the Moyal solution as anywhere else.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .kerr import (KerrParams, ObservableIndex, checked_cos, classical_amplitude,
                   kerr_angle)
from .phase_space import PhasePoint
from .states import SqueezedState

_SQRT2 = math.sqrt(2.0)

# Quadrature domain: on each principal axis the window center +- RADIUS_SCALE
# sqrt(xi / scale), at whose ends the envelope exp(-scale (y - center)^2 / xi)
# has fallen to exp(-RADIUS_SCALE^2) <= eps / 2 of its peak, half an ulp, so
# no node beyond them could change a float64 sum that holds the peak.  The
# same margin sets _axis_step, the step at which the axis sums converge.
RADIUS_SCALE = math.sqrt(-math.log(sys.float_info.epsilon / 2.0))
# Refine levels the quadrature may take after level 0 before it gives up.
MAX_REFINE = 4
# Most nodes one axis may take at one refine level.  Near a pole the count
# grows as |tan t~| without limit.  The acceptance grid and the oracle
# benchmark workloads need at most 4.8e4 (s = 0.1, |alpha| = 1.5,
# Delta_phi = 0 at t~ = 11 pi/24, refine level 0); the bound leaves 2800x
# headroom.
MAX_AXIS_NODES = 2**27
# Nodes per numpy pass in _axis_sums, so the pass's float64 temporaries
# (128 kB each, about six alive at once: nodes, envelope, h = tan(phi/2),
# h^2, 1 + h^2, envelope times y) stay in L2 cache, and memory stays fixed
# however many nodes an axis takes.  On a Xeon with 2 MB of L2 per core, the
# oracle-strong pool ran 12% slower in passes of 2**15 nodes, and the kernel
# alone 30% slower in passes of 2**16.
_CHUNK = 2**14


@dataclass(frozen=True)
class ExpectationResult:
    """<a(t)> together with the canonical means."""

    value: complex

    @property
    def mean_q(self) -> float:
        return _SQRT2 * self.value.real

    @property
    def mean_p(self) -> float:
        return _SQRT2 * self.value.imag


def branch_winding(t: float, params: KerrParams) -> int:
    """Number of tan poles of xi w2 t crossed on the way from 0 to t."""
    tt = kerr_angle(1, t, params)
    count = int(math.floor((abs(tt) + math.pi / 2.0) / math.pi))
    return count if tt >= 0 else -count


def expectation_a_closed(t: float, state: SqueezedState,
                         params: KerrParams) -> ExpectationResult:
    """Closed-form <a(t)> for a squeezed coherent state.

    alpha G^{3/2} [cos(t~ - Delta_phi/2)/s + i s sin(t~ - Delta_phi/2)]
    exp(-i(w1 t + t~ - Delta_phi/2)) exp(exponent), in the pole-cleared
    variables of the module docstring: one formula, finite and smooth for
    every t and s > 0, singular times included (there G^{3/2} = 1 and the
    exponent is -2|alpha|^2/xi).
    """
    state.check_xi(params.xi)
    s = state.s
    xi = params.xi
    alpha = state.alpha
    half = 0.5 * state.delta_phi
    tt = kerr_angle(1, t, params)
    c, sigma = math.cos(tt), math.sin(tt)
    s2 = s * s

    n12 = (s2 * c + 1j * sigma) * (c / s2 + 1j * sigma)
    rot = complex(c, -sigma)
    z = rot * rot * n12                      # Re z >= 1: principal branch
    a_coef = math.cos(half) ** 2 / s2 + s2 * math.sin(half) ** 2
    exponent = (-2j * abs(alpha) ** 2 * sigma * (1j * sigma + a_coef * c)
                / (xi * n12))
    bracket = complex(math.cos(tt - half) / s, s * math.sin(tt - half))
    value = (alpha * bracket
             * cmath.exp(exponent - 1j * (params.w1 * t + tt - half))
             / z / cmath.sqrt(z))      # z * sqrt(z) overflows once |z| > ~3e205
    return ExpectationResult(complex(value))


def expectation_a_semiclassical(t: float, state: SqueezedState,
                                params: KerrParams) -> complex:
    """First-order small-xi expansion of <a(t)> around the classical flow.

    a_cl(t|xbar) {1 + xi [2|tau| e^{i dphi}
                          - 2|alpha|^2 w2 t (w2 t + 4i |tau| cos dphi)]}.
    """
    xbar = state.mean_x
    a_cl = classical_amplitude(t, PhasePoint(xbar[0], xbar[1]), params)
    tau_abs = state.tau_abs
    dphi = state.delta_phi
    w2t = params.w2 * t
    corr = (2.0 * tau_abs * np.exp(1j * dphi)
            - 2.0 * abs(state.alpha) ** 2 * w2t * (w2t + 4j * tau_abs * math.cos(dphi)))
    return complex(a_cl * (1.0 + params.xi * corr))


# ---------------------------------------------------------------------------
# Direct phase-space quadrature
# ---------------------------------------------------------------------------

def _axis_step(scale: float, center: float, big_t: float, xi: float) -> float:
    """Trapezoidal step at which one axis's sum has converged to rounding.

    f(y) = exp((-scale (y - center)^2 - i T y^2) / xi) is entire, and |f^|,
    the modulus of its Fourier transform, is a Gaussian about
    omega = 2 center T / xi that falls to exp(-RADIUS_SCALE^2) = eps / 2 of
    its peak at 2 RADIUS_SCALE sqrt((scale^2 + T^2) / (xi scale)) from it.
    The trapezoidal sum with step h errs by f^ at the aliases 2 pi k / h,
    k != 0, so this step puts the first alias that far out:
    2 pi / h = 2 |center T| / xi + 2 RADIUS_SCALE sqrt(...).
    """
    spread = math.sqrt((scale * scale + big_t * big_t) / (xi * scale))
    return math.pi / (abs(center * big_t) / xi + RADIUS_SCALE * spread)


def _axis_sums(step: float, half_width: float, scale: float, center: float,
               big_t: float, xi: float) -> list[list[complex]]:
    """(sum w f, sum w y f) for f(y) = exp((-scale (y - center)^2 - i T y^2) / xi).

    The nodes are y_j = center + j step, |j| <= floor(half_width / step), so
    they are symmetric about the window's centre.  One pass gives two pairs:
    the trapezoidal sums with weight w = step on every node, then those with
    w = 2 step on the even j, the sums at twice the step.  Real arithmetic
    with one real exp and one tan per node.  The envelope is written with
    its square completed, so its exponent is never positive and nothing
    overflows however small xi is.  With h = tan(phi / 2) of the chirp phase
    phi = -T y^2 / xi, cos phi = (1 - h^2) / (1 + h^2) and
    sin phi = 2 h / (1 + h^2); the common 1 / (1 + h^2) goes into the real
    envelope amp = exp(-scale (y - center)^2 / xi) / (1 + h^2), and each
    step's two sums are four real dot products (amp and amp y, each against
    1 - h^2 and h).  The nodes are taken _CHUNK at a time.  The node count is
    known before any array is built; past MAX_AXIS_NODES the call raises
    instead.
    """
    n = math.floor(half_width / step)
    if 2 * n + 1 > MAX_AXIS_NODES:
        raise ToleranceNotMet(
            f"quadrature needs {2 * n + 1:.3e} nodes on one axis at step "
            f"{step:.3e} (|tan t~| = {abs(big_t):.3e}), above {MAX_AXIS_NODES}",
            achieved=math.inf)
    # both exponents take the factor 1/xi last, as numpy rounds the complex
    # exponent of f, so a chirp phase of thousands of radians matches it; the
    # halving of phi is exact in binary and keeps that rounding
    inv_xi = 1.0 / xi
    half_t = -0.5 * big_t
    # every chunk starts at j = -n + k _CHUNK, so its even j start at n % 2
    grids = (slice(None), slice(n % 2, None, 2))
    sums = [[0j, 0j] for _ in grids]
    for start in range(-n, n + 1, _CHUNK):
        # the envelope takes the offset j step itself, so the rounding of y
        # does not reach it
        amp = np.arange(start, min(start + _CHUNK, n + 1), dtype=float)
        amp *= step
        y = amp + center
        y2 = y * y
        amp *= amp
        amp *= -scale
        amp *= inv_xi
        np.exp(amp, out=amp)
        h = np.multiply(y2, half_t, out=y2)
        h *= inv_xi
        np.tan(h, out=h)
        h2 = h * h
        amp /= 1.0 + h2
        cos = np.subtract(1.0, h2, out=h2)
        amp_y = amp * y
        for pair, nodes in zip(sums, grids):
            a, a_y, c, s = amp[nodes], amp_y[nodes], cos[nodes], h[nodes]
            pair[0] += complex(a @ c, 2.0 * (a @ s))
            pair[1] += complex(a_y @ c, 2.0 * (a_y @ s))
    return [[weight * value for value in pair]
            for weight, pair in zip((step, 2.0 * step), sums)]


def expectation_a_quadrature(t: float, state: SqueezedState, params: KerrParams,
                             tol: float = 1e-8) -> complex:
    """<a(t)> by adaptive tensor quadrature of the phase-space integral.

    Works in the rotated coordinates y = R(-phi) x, where the squeezed
    Wigner weight is a product of one Gaussian per axis,
    exp(-scale (y - center)^2 / xi) with scale = s^2, 1/s^2 and center =
    ybar_0 / s, s ybar_1.  The domain is the tensor product of the per-axis
    windows center +- RADIUS_SCALE sqrt(xi / scale), outside which the
    Gaussian is below exp(-RADIUS_SCALE^2) <= eps / 2 of its peak, too
    small to change a float64 sum.  Each axis is a trapezoidal sum on a
    uniform grid centred on its window; the integrand is entire and decays
    fast, so the sum converges geometrically as the step shrinks.  Refine
    level r returns the sums with step h = _axis_step / 2^(r + 1), and its
    error estimate is their distance to the sums with step 2h on the even
    nodes.  At level 0, 2h is _axis_step's step, where the sums have already
    converged, so the estimate reads their rounding.  A level whose estimate
    is within tol is accepted, level 0 included; otherwise h is halved, at
    most MAX_REFINE times.  tol must be finite and non-negative, or ValueError
    is raised; at a pole of Theta_01 SingularTime is.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    state.check_xi(params.xi)
    s = state.s
    xi = params.xi
    tt = kerr_angle(1, t, params)
    cos_tt = checked_cos(tt)
    big_t = math.tan(tt)
    # R(-phi) rotates the mean x = sqrt(2) (Re alpha, Im alpha) by -phi / 2
    half_turn = cmath.exp(0.5j * state.tau_phase)
    ybar = _SQRT2 * state.alpha / half_turn
    # Theta_01(t|y) = pref * exp(-i|y|^2 T/xi) * (y1 + i y2)/sqrt(2)
    pref = cmath.exp(-1j * (params.w1 * t)) / cos_tt ** 2 * cmath.exp(2j * tt)
    norm = half_turn / (math.pi * xi) * pref / _SQRT2
    axes = [(_axis_step(scale, center, big_t, xi),
             RADIUS_SCALE * math.sqrt(xi / scale), scale, center)
            for scale, center in ((s * s, ybar.real / s), (1.0 / (s * s), s * ybar.imag))]

    err = math.inf
    for refine in range(MAX_REFINE + 1):
        shrink = 0.5 ** (refine + 1)
        try:
            axis0, axis1 = (_axis_sums(shrink * step, half_width, scale, center, big_t, xi)
                            for step, half_width, scale, center in axes)
        except ToleranceNotMet as exc:  # node bound: report the last estimate
            raise ToleranceNotMet(str(exc), achieved=err) from None
        value, check = (norm * (sum1_0 * sum0_1 + 1j * sum0_0 * sum1_1)
                        for (sum0_0, sum1_0), (sum0_1, sum1_1) in zip(axis0, axis1))
        err = abs(value - check)
        if err <= tol:
            return value
    raise ToleranceNotMet(f"quadrature error estimate {err:.3e} > tol {tol:.3e}",
                          achieved=err)


# ---------------------------------------------------------------------------
# Coherent matrix elements
# ---------------------------------------------------------------------------

def matrix_element(idx: ObservableIndex, t: float, alpha: complex, beta: complex,
                   params: KerrParams) -> complex:
    """<alpha|(a^dag(t))^s a(t)^m|beta> in closed form; finite for all t.

    (alpha*)^s beta^m e^{-i(m-s) t (w1 + (m+s-1) xi w2)}
    exp{-(|alpha|^2 + |beta|^2)/(2 xi) + (beta alpha*/xi) e^{-2i(m-s) xi w2 t}}.
    """
    xi = params.xi
    s, m = idx.s, idx.m
    rotated = beta * np.conj(alpha) / xi * np.exp(-2j * kerr_angle(m - s, t, params))
    phase = (m - s) * (params.w1 * t) + kerr_angle((m - s) * (m + s - 1), t, params)
    return complex(np.conj(alpha) ** s * beta ** m * np.exp(-1j * phase)
                   * np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / (2.0 * xi) + rotated))
