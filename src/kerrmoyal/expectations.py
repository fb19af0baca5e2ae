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
from dataclasses import dataclass

import numpy as np

from .errors import ToleranceNotMet
from .kerr import (KerrParams, ObservableIndex, checked_cos, classical_amplitude,
                   kerr_angle)
from .phase_space import PhasePoint
from .states import SqueezedState

_SQRT2 = math.sqrt(2.0)

# Quadrature domain: on each principal axis the window center +- RADIUS_SCALE
# sqrt(xi / scale), outside which the envelope exp(-scale (y - center)^2 / xi)
# is below exp(-RADIUS_SCALE^2).
RADIUS_SCALE = 8.0
# Refine levels the quadrature may take after level 0 before it gives up.
MAX_REFINE = 4
# Most Gauss-Legendre nodes one axis may take at one refine level.  Near a
# pole the count grows as |tan t~| without limit.  The acceptance grid and
# the oracle benchmark workloads need at most 1.92e5 (s = 0.1 at
# t~ = 11 pi/24, refine level 1, on the closed-form edges of _axis_edges);
# the bound leaves 700x headroom.
MAX_AXIS_NODES = 2**27
# Level-0 panels: width / (4 sigma) plus chirp phase rise / (8 pi) at most 1;
# each refine level halves both units.  On panels this size the 24-point
# rule at level 0 is within 1e-12 of level 1 over the oracle benchmark
# pools, so level 1 only confirms level 0.
_PANEL_PHASE = 8.0 * math.pi
_PANEL_SIGMAS = 4.0
_GL_X, _GL_W = np.polynomial.legendre.leggauss(24)
# Panels per numpy pass in _axis_sums: about 16384 nodes, so the pass's
# float64 temporaries (128 kB each, about six alive at once: nodes, envelope,
# h = tan(phi/2), h^2, 1 + h^2, envelope times y) stay in L2 cache, and
# memory stays set by the edge array however many nodes an axis takes.  On
# a Xeon with 2 MB of L2 per core, the oracle-strong pool ran 12% slower in
# passes of 2**15 nodes, and the kernel alone 30% slower in passes of 2**16.
_PANEL_CHUNK = 2**14 // _GL_X.size


@dataclass(frozen=True)
class ExpectationResult:
    """<a(t)> together with the canonical means and the pole count."""

    value: complex
    branch_winding: int

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
             / (z * cmath.sqrt(z)))
    return ExpectationResult(complex(value), branch_winding(t, params))


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

def _axis_edges(center: float, sigma: float, half_width: float, big_t: float,
                xi: float, refine: int) -> np.ndarray:
    """Composite Gauss-Legendre panel edges on one principal axis.

    The window is center +- half_width.  With base = _PANEL_SIGMAS sigma /
    2^refine and dphase = _PANEL_PHASE / 2^refine, the edges inside it are
    where g(y) = y / base + sign(y) |T| y^2 / (xi dphase), odd and increasing,
    crosses an integer k: y_k = 2k / (b + sqrt(b^2 + 4a|k|)) with b = 1 / base
    and a = |T| / (xi dphase), written without cancellation (at T = 0 the
    uniform grid k base).  So the edges come out sorted, y = 0, where the
    chirp phase |T| y^2 / xi turns, is one of them whenever the window holds
    it, and on every panel width / base + phase rise / dphase <= 1.  The
    window ends close the grid.  The panel count is known before any array
    is built; past MAX_AXIS_NODES nodes the call raises instead.
    """
    lo = center - half_width
    hi = center + half_width
    b = 2.0**refine / (_PANEL_SIGMAS * sigma)
    a = abs(big_t) * 2.0**refine / (xi * _PANEL_PHASE)
    k_lo = math.floor(math.copysign(abs(lo) * (b + a * abs(lo)), lo))
    k_hi = math.ceil(math.copysign(abs(hi) * (b + a * abs(hi)), hi))
    n_nodes = _GL_X.size * (k_hi - k_lo)
    if n_nodes > MAX_AXIS_NODES:
        raise ToleranceNotMet(
            f"quadrature needs {n_nodes:.3e} nodes on one axis at refine level "
            f"{refine} (|tan t~| = {abs(big_t):.3e}), above {MAX_AXIS_NODES}",
            achieved=math.inf)
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    edges = 2.0 * k / (b + np.sqrt(b * b + 4.0 * a * np.abs(k)))
    # the root next to either end can round onto it or past it
    edges = edges[int(edges[1] <= lo):edges.size - int(edges[-2] >= hi)]
    edges[0], edges[-1] = lo, hi
    return edges


def _axis_sums(edges: np.ndarray, scale: float, center: float, big_t: float,
               xi: float) -> tuple[complex, complex]:
    """(sum w f, sum w y f) for f(y) = exp((-scale (y - center)^2 - i T y^2) / xi).

    A plain Gauss-Legendre sum in real arithmetic with one real exp and one
    tan per node.  The envelope is written with its square completed, so its
    exponent is never positive and nothing overflows however small xi is.
    With h = tan(phi / 2) of the chirp phase phi = -T y^2 / xi,
    cos phi = (1 - h^2) / (1 + h^2) and sin phi = 2 h / (1 + h^2); the common
    1 / (1 + h^2) goes into the real envelope amp = w exp(-scale (y - center)^2
    / xi) / (1 + h^2), and the two sums are four real dot products (amp and
    amp y, each against 1 - h^2 and h).  The panels are taken _PANEL_CHUNK at
    a time, nodes laid out node-major so each broadcast runs along the panels.
    """
    # both exponents take the factor 1/xi last, as numpy rounds the complex
    # exponent of f, so a chirp phase of thousands of radians matches it; the
    # halving of phi is exact in binary and keeps that rounding
    inv_xi = 1.0 / xi
    half_t = -0.5 * big_t
    sum0 = sum1 = 0j
    for start in range(0, edges.size - 1, _PANEL_CHUNK):
        part = edges[start:start + _PANEL_CHUNK + 1]
        mid = 0.5 * (part[1:] + part[:-1])
        half = 0.5 * (part[1:] - part[:-1])
        y = (_GL_X[:, None] * half + mid).ravel()
        y2 = y * y
        amp = y - center
        amp *= amp
        amp *= -scale
        amp *= inv_xi
        np.exp(amp, out=amp)
        amp *= (_GL_W[:, None] * half).ravel()
        h = np.multiply(y2, half_t, out=y2)
        h *= inv_xi
        np.tan(h, out=h)
        h2 = h * h
        amp /= 1.0 + h2
        cos = np.subtract(1.0, h2, out=h2)
        amp_y = amp * y
        sum0 += complex(amp @ cos, 2.0 * (amp @ h))
        sum1 += complex(amp_y @ cos, 2.0 * (amp_y @ h))
    return sum0, sum1


def expectation_a_quadrature(t: float, state: SqueezedState, params: KerrParams,
                             tol: float = 1e-8) -> complex:
    """<a(t)> by adaptive tensor quadrature of the phase-space integral.

    Works in the rotated coordinates y = R(-phi) x, where the squeezed
    Wigner weight is a product of one Gaussian per axis,
    exp(-scale (y - center)^2 / xi) with scale = s^2, 1/s^2 and center =
    ybar_0 / s, s ybar_1.  The domain is the tensor product of the per-axis
    windows center +- RADIUS_SCALE sqrt(xi / scale), outside which the
    Gaussian is below exp(-RADIUS_SCALE^2).  Each axis is a composite
    24-point Gauss-Legendre sum on the closed-form panel edges of
    _axis_edges; refines by panel halving, at most MAX_REFINE times, until
    the change is below tol.  tol must be finite and non-negative, or
    ValueError is raised; at a pole of Theta_01 SingularTime is.
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
    axes = [(scale, center, math.sqrt(xi / (2.0 * scale)),
             RADIUS_SCALE * math.sqrt(xi / scale))
            for scale, center in ((s * s, ybar.real / s), (1.0 / (s * s), s * ybar.imag))]

    def tensor_value(refine: int) -> complex:
        (sum0_0, sum1_0), (sum0_1, sum1_1) = (
            _axis_sums(_axis_edges(center, sigma, half_width, big_t, xi, refine),
                       scale, center, big_t, xi)
            for scale, center, sigma, half_width in axes)
        return norm * (sum1_0 * sum0_1 + 1j * sum0_0 * sum1_1)

    prev = tensor_value(0)
    err = math.inf
    for refine in range(1, MAX_REFINE + 1):
        try:
            cur = tensor_value(refine)
        except ToleranceNotMet as exc:  # node bound: report the last estimate
            raise ToleranceNotMet(str(exc), achieved=err) from None
        err = abs(cur - prev)
        if err <= tol:
            return cur
        prev = cur
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
