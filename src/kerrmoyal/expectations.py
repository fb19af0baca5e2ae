"""Squeezed-state expectation values of the evolving annihilation symbol.

The closed form for <a(t)> is a generalized Gaussian integral of the Moyal
solution Theta_01 against the squeezed Wigner density.  It is evaluated in
pole-cleared variables: with t~ = xi w2 t, c = cos t~, sigma = sin t~ and

    n12 = (s^2 c + i sigma)(c / s^2 + i sigma),

the amplitude factor is G^{3/2} = (e^{-2i t~} n12)^{-3/2} and the Gaussian
exponent is -2i |alpha|^2 sigma (i sigma + A c) / (xi n12), where
A = cos^2(Delta_phi/2) / s^2 + s^2 sin^2(Delta_phi/2) is the state's
amplitude_noise.  The factors that do not depend on t (s, s^2, Delta_phi/2,
alpha, -2i |alpha|^2 and A) are derived once per SqueezedState and cached on
it as one tuple, closed_form_constants, so a call does only the work that
depends on t, and it returns an ExpectationResult, a complex.  Since

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

import numpy as np

from .errors import ToleranceNotMet, check_same_xi
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
# Most nodes one axis may take.  Near a pole the count grows as |tan t~|
# without limit.  The acceptance grid and the oracle benchmark workloads
# need at most 4.8e4 (s = 0.1, |alpha| = 1.5, Delta_phi = 0 at
# t~ = 11 pi/24); the bound leaves 2800x headroom.
MAX_AXIS_NODES = 2**27
# Nodes per numpy pass in _quadrature_sums, of whichever axes, so the pass's
# float64 rows (128 kB each, five alive at once: the (4, m) buffer and one
# temporary) stay in L2 cache, and memory stays fixed however many nodes an
# axis takes.  On a Xeon with 2 MB of L2 per core, the oracle-strong pool ran
# 12% slower in passes of 2**15 nodes, and the kernel alone 30% slower in
# passes of 2**16.
_CHUNK = 2**14


class ExpectationResult(complex):
    """<a(t)> as an immutable complex, together with the canonical means.

    It is built by complex's own constructor and adds no instance state, so
    it equals and hashes as its value and takes no attribute.
    """

    __slots__ = ()

    @property
    def value(self) -> complex:
        return complex(self)

    @property
    def mean_q(self) -> float:
        return _SQRT2 * self.real

    @property
    def mean_p(self) -> float:
        return _SQRT2 * self.imag


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
    exponent is -2|alpha|^2/xi).  The state's t-independent factors come
    from its closed_form_constants, unpacked once; errors.check_same_xi and
    kerr_angle's overflow check run on every call, and so does one on the
    phase w1 t + t~ - Delta_phi/2, which raises OverflowError where it is
    not finite; t~ - Delta_phi/2 is formed before its cos and sin, which
    stay accurate where an addition formula over t~ and Delta_phi/2 would
    not.
    """
    check_same_xi(state.xi, params.xi)
    s, s2, half, alpha, exp_scale, noise = state.closed_form_constants
    tt = kerr_angle(1, t, params)
    c, sigma = math.cos(tt), math.sin(tt)
    i_sigma = 1j * sigma

    n12 = (s2 * c + i_sigma) * (c / s2 + i_sigma)
    rot = complex(c, -sigma)
    z = rot * rot * n12                      # Re z >= 1: principal branch
    exponent = exp_scale * sigma * (i_sigma + noise * c) / (params.xi * n12)
    bracket = complex(math.cos(tt - half) / s, s * math.sin(tt - half))
    phase = params.w1 * t + tt - half
    if not math.isfinite(phase):
        raise OverflowError(f"w1 t + t~ - Delta_phi/2 is not finite ({phase!r}) at t = {t!r}")
    return ExpectationResult(
        alpha * bracket
        * cmath.exp(exponent - 1j * phase)
        / z / cmath.sqrt(z))           # z * sqrt(z) overflows once |z| > ~3e205


def expectation_a_semiclassical(t: float, state: SqueezedState,
                                params: KerrParams) -> complex:
    """First-order small-xi expansion of <a(t)> around the classical flow.

    a_cl(t|xbar) {1 + xi [2|tau| e^{i dphi}
                          - 2|alpha|^2 w2 t (w2 t + 4i |tau| cos dphi)]},
    xbar = sqrt(2) (Re alpha, Im alpha); xi is checked as in the closed form.
    """
    check_same_xi(state.xi, params.xi)
    xbar = PhasePoint(_SQRT2 * state.alpha.real, _SQRT2 * state.alpha.imag)
    a_cl = classical_amplitude(t, xbar, params)
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


def _quadrature_sums(axes: list[tuple[float, float, float, float]], big_t: float,
                     xi: float) -> list[list[list[complex]]]:
    """(sum f, sum y f) on each axis, f(y) = exp((-scale (y - center)^2 - i T y^2) / xi).

    axes holds one (step, half_width, scale, center) per axis, whose nodes
    y_j = center + j step, |j| <= floor(half_width / step), are symmetric
    about its window's centre.  Each axis gets two pairs, the sums over every
    node and over the even j (twice the step); the caller applies the
    trapezoidal weights.  Per node one real exp of the envelope, whose
    completed square keeps its exponent <= 0, so nothing overflows however
    small xi is, and one tan: with h = tan(phi / 2) of the chirp phase
    phi = -T y^2 / xi, cos phi = (1 - h^2) / (1 + h^2), sin phi = 2 h / (1 + h^2)
    and amp = exp(-scale (y - center)^2 / xi) / (1 + h^2), a grid's two sums
    are one 2x2 product, rows [amp y, amp] against columns [h, 1 - h^2],
    whose entries np.vecdot sums as dot products.  The nodes of all axes run
    one after another through passes of _CHUNK nodes: only y and the
    envelope's exponent are formed per axis, every other step once per pass.
    Node counts are checked per axis, against MAX_AXIS_NODES, before any array is built.
    """
    counts = [2 * math.floor(half_width / step) + 1 for step, half_width, _, _ in axes]
    for (step, *_), count in zip(axes, counts):
        if count > MAX_AXIS_NODES:
            raise ToleranceNotMet(
                f"quadrature needs {count:.3e} nodes on one axis at step "
                f"{step:.3e} (|tan t~| = {abs(big_t):.3e}), above {MAX_AXIS_NODES}",
                achieved=math.inf)
    # both exponents take the factor 1/xi last, as numpy rounds the complex
    # exponent of f, so a chirp phase of thousands of radians matches it; the
    # halving of phi is exact in binary and keeps that rounding
    inv_xi = 1.0 / xi
    half_t = -0.5 * big_t
    sums = [[[0j, 0j], [0j, 0j]] for _ in axes]
    total = sum(counts)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        part = np.empty((4, hi - lo))
        amp_y, amp, h, cos = part[0], part[1], part[2], part[3]
        pieces, start = [], 0
        for (step, _, scale, center), count, axis_sums in zip(axes, counts, sums):
            first, stop = max(lo, start), min(hi, start + count)
            if first < stop:
                j, col, take = first - start - count // 2, first - lo, stop - first
                pieces.append((axis_sums, j, col, take))
                # the envelope takes the offset j step itself, so the rounding
                # of y does not reach it
                offset = amp[col:col + take]
                np.multiply(np.arange(j, j + take, dtype=float), step, out=offset)
                np.add(offset, center, out=amp_y[col:col + take])
                offset *= offset
                offset *= -scale
            start += count
        np.multiply(amp_y, amp_y, out=h)
        h *= half_t
        part[1:3] *= inv_xi
        np.exp(amp, out=amp)
        np.tan(h, out=h)
        np.multiply(h, h, out=cos)
        amp /= 1.0 + cos
        np.subtract(1.0, cos, out=cos)
        amp_y *= amp
        rows, cols = part[:2, None], part[None, 2:]
        for axis_sums, j, col, take in pieces:
            # the even j of a piece start one column in when its first j is odd
            grids = (slice(col, col + take), slice(col + j % 2, col + take, 2))
            for pair, nodes in zip(axis_sums, grids):
                (y_s, y_c), (a_s, a_c) = np.vecdot(rows[..., nodes], cols[..., nodes]).tolist()
                pair[0] += complex(a_c, 2.0 * a_s)
                pair[1] += complex(y_c, 2.0 * y_s)
    return sums


def expectation_a_quadrature(t: float, state: SqueezedState, params: KerrParams,
                             tol: float = 1e-8) -> complex:
    """<a(t)> by tensor quadrature of the phase-space integral.

    Works in the rotated coordinates y = R(-phi) x, where the squeezed
    Wigner weight is a product of one Gaussian per axis,
    exp(-scale (y - center)^2 / xi) with scale = s^2, 1/s^2 and center =
    ybar_0 / s, s ybar_1.  The domain is the tensor product of the per-axis
    windows center +- RADIUS_SCALE sqrt(xi / scale), outside which the
    Gaussian is below exp(-RADIUS_SCALE^2) <= eps / 2 of its peak, too
    small to change a float64 sum.  Each axis is a trapezoidal sum on a
    uniform grid centred on its window with step h = _axis_step / 2.  The
    integrand is entire and decays fast, so the sum converges geometrically
    as the step shrinks, and it has converged to rounding at _axis_step's
    step already; the error estimate is the value's distance to the sums at
    that step, 2h, on the even nodes, so it reads their rounding.  A finer
    step could only read the same rounding, so the estimate gates the
    value: past tol, or NaN, ToleranceNotMet is raised with the estimate as
    ``achieved``.  tol must be finite and non-negative, or ValueError is
    raised, as it is by errors.check_same_xi; at a pole SingularTime is.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    check_same_xi(state.xi, params.xi)
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
    axes = [(0.5 * _axis_step(scale, center, big_t, xi), RADIUS_SCALE * math.sqrt(xi / scale),
             scale, center)
            for scale, center in ((s * s, ybar.real / s), (1.0 / (s * s), s * ybar.imag))]
    axis0, axis1 = _quadrature_sums(axes, big_t, xi)
    # the trapezoidal weights: each axis's step on every node, twice it on the even j
    weight = norm * axes[0][0] * axes[1][0]
    value, check = (w * (sum1_0 * sum0_1 + 1j * sum0_0 * sum1_1)
                    for w, (sum0_0, sum1_0), (sum0_1, sum1_1)
                    in zip((weight, 4.0 * weight), axis0, axis1))
    err = abs(value - check)
    if not err <= tol:
        raise ToleranceNotMet(f"quadrature error estimate {err:.3e} > tol {tol:.3e}",
                              achieved=err)
    return value


# ---------------------------------------------------------------------------
# Coherent matrix elements
# ---------------------------------------------------------------------------

def matrix_element(idx: ObservableIndex, t: float, alpha: complex, beta: complex,
                   params: KerrParams) -> complex:
    """<alpha|(a^dag(t))^s a(t)^m|beta> in closed form; finite for all t.
    At (s, m) = (0, 0) it is the coherent overlap <alpha|beta> at every t.

    (alpha*)^s beta^m e^{-i(m-s) t (w1 + (m+s-1) xi w2)}
    exp{-(|alpha|^2 + |beta|^2)/(2 xi) + (beta alpha*/xi) e^{-2i(m-s) xi w2 t}}.

    The phase follows kerr_angle's rule: 0 for s = m however large w1 t is,
    and OverflowError where it is not finite.
    """
    xi = params.xi
    s, m = idx.s, idx.m
    rotated = beta * np.conj(alpha) / xi * np.exp(-2j * kerr_angle(m - s, t, params))
    linear = (m - s) * (params.w1 * t) if m != s else 0.0
    phase = linear + kerr_angle((m - s) * (m + s - 1), t, params)
    if not math.isfinite(phase):
        raise OverflowError(f"(m - s) w1 t + t~ is not finite ({phase!r}) at t = {t!r}")
    return complex(np.conj(alpha) ** s * beta ** m * np.exp(-1j * phase)
                   * np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / (2.0 * xi) + rotated))
