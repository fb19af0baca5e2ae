"""Coherent and squeezed states of a single mode with xi-scaled algebra.

A squeezed state |tau alpha> = V(tau) D(alpha) |0> is one SqueezedState of
the coherent amplitude alpha and the Bogoliubov parameter tau = |tau| e^{i phi}
(a coherent state has |tau| = 0), checked once when it is built; the squeeze
factor s = exp(-2 xi |tau|) in (0, 1] is always derived, never an
independent input.  The combination that the dynamics actually sees is
Delta_phi = phi - 2 arg(alpha), reduced to (-pi, pi] so that number
squeezing sits at Delta_phi = pi and phase squeezing at Delta_phi = 0.
s, Delta_phi, the amplitude-quadrature noise and the tuple of t-independent
factors that the closed form of <a(t)> reads are derived once per state, on
first use, and cached on it.  squeezed_projector builds its symbol on Python
scalars, as the rest of the symbol path does.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidState
from .phase_space import GaussPolySymbol, PhasePoint, ZPoly


def _reduce_angle(angle: float) -> float:
    """Reduce to (-pi, pi]."""
    reduced = math.fmod(angle, 2.0 * math.pi)
    if reduced > math.pi:
        reduced -= 2.0 * math.pi
    elif reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


@dataclass(frozen=True)
class SqueezedState:
    """|tau alpha> = V(tau) D(alpha)|0> at deformation parameter xi.

    tau = tau_abs e^{i tau_phase}; tau_phase is normalized to [0, 2 pi) and
    alpha to a Python complex.  Every field must be finite, tau_abs >= 0 and
    xi > 0 (ValueError), and s^2 = exp(-4 xi tau_abs) must be a normal float
    (InvalidState), so that 1/s^2 is finite wherever the state is used.
    The derived values s, delta_phi, amplitude_noise and
    closed_form_constants are computed on first read from the stored fields
    and cached in the instance; they are not fields, so == and hash see the
    four fields alone.
    """

    alpha: complex
    tau_abs: float
    tau_phase: float
    xi: float

    def __post_init__(self):
        if not cmath.isfinite(self.alpha):
            raise ValueError(f"coherent amplitude alpha must be finite, got {self.alpha!r}")
        for name, value in (("squeeze magnitude", self.tau_abs),
                            ("squeeze phase", self.tau_phase),
                            ("deformation parameter xi", self.xi)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.tau_abs < 0:
            raise ValueError("squeeze magnitude |tau| must be non-negative")
        if self.xi <= 0:
            raise ValueError("deformation parameter xi must be positive")
        if self.s * self.s < sys.float_info.min:
            raise InvalidState(f"squeeze factor s^2 = exp(-4 xi |tau|) underflows "
                               f"at xi |tau| = {self.xi * self.tau_abs!r}")
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "tau_phase", float(self.tau_phase) % (2.0 * math.pi))

    @classmethod
    def from_values(cls, alpha: complex, tau_abs: float, tau_phase: float,
                    xi: float) -> "SqueezedState":
        """The constructor under its older name, which perfbench/adapters.py calls."""
        return cls(alpha, tau_abs, tau_phase, xi)

    @functools.cached_property
    def s(self) -> float:
        return math.exp(-2.0 * self.xi * self.tau_abs)

    @functools.cached_property
    def delta_phi(self) -> float:
        return _reduce_angle(self.tau_phase - 2.0 * cmath.phase(self.alpha))

    @functools.cached_property
    def amplitude_noise(self) -> float:
        """cos^2(Delta_phi/2) / s^2 + s^2 sin^2(Delta_phi/2): the variance of
        the quadrature along alpha in units of its coherent value xi/2, s^2
        for number squeezing and 1/s^2 for phase squeezing."""
        s2 = self.s * self.s
        half = 0.5 * self.delta_phi
        return math.cos(half) ** 2 / s2 + s2 * math.sin(half) ** 2

    @functools.cached_property
    def closed_form_constants(self) -> tuple[float, float, float, complex, complex, float]:
        """(s, s^2, Delta_phi/2, alpha, -2i |alpha|^2, amplitude_noise): the
        factors of expectations.expectation_a_closed that do not depend on t,
        one tuple that a call unpacks at once.  Each is a subexpression that
        the formula evaluates before any t-dependent term enters it
        (-2i |alpha|^2 leads a left-to-right product), so reading it from
        here changes no bit of the result."""
        s = self.s
        alpha = self.alpha
        return (s, s * s, 0.5 * self.delta_phi, alpha, -2j * abs(alpha) ** 2,
                self.amplitude_noise)

    @property
    def mean_x(self) -> np.ndarray:
        """Phase-space mean (sqrt(2) Re alpha, sqrt(2) Im alpha)."""
        return np.array([math.sqrt(2.0) * self.alpha.real,
                         math.sqrt(2.0) * self.alpha.imag])

    def check_xi(self, xi: float) -> None:
        """ValueError unless xi (of the params or Fock space the state meets)
        equals the state's xi exactly: no tolerance on a scale parameter."""
        if xi != self.xi:
            raise ValueError(f"state and operand carry different xi "
                             f"({self.xi!r} != {xi!r})")


# ---------------------------------------------------------------------------
# Symplectic matrix of the metaplectic action
# ---------------------------------------------------------------------------

def squeeze_matrix(tau_abs: float, phi: float, xi: float) -> np.ndarray:
    """S(tau) with V(tau) x_hat V(tau)^dag = S(tau) x_hat, tau = tau_abs e^{i phi}.

    Symmetric, positive definite, det = 1; equals
    R(phi) Lambda(s) R(-phi) with R(phi) the rotation by the half angle phi/2
    and Lambda(s) = diag(s, 1/s), s = exp(-2 xi |tau|).
    """
    s11, s12, s22 = _squeeze_entries(tau_abs, phi, xi)
    return np.array([[s11, s12], [s12, s22]])


def _squeeze_entries(tau_abs: float, phi: float, xi: float) -> tuple[float, float, float]:
    """The entries S11, S12 = S21 and S22 of squeeze_matrix, as floats."""
    s = math.exp(-2.0 * xi * tau_abs)
    c2, s2 = math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2
    return s * c2 + s2 / s, -0.5 * (1.0 / s - s) * math.sin(phi), c2 / s + s * s2


# ---------------------------------------------------------------------------
# Projector symbols
# ---------------------------------------------------------------------------

def coherent_projector_symbol(alpha: complex, xi: float, x: PhasePoint) -> float:
    """[|alpha><alpha|]_w(x) = 2 exp{-(1/xi)[(q - qbar)^2 + (p - pbar)^2]}."""
    qbar = math.sqrt(2.0) * alpha.real
    pbar = math.sqrt(2.0) * alpha.imag
    return 2.0 * math.exp(-((x.q - qbar) ** 2 + (x.p - pbar) ** 2) / xi)


def squeezed_projector(state: SqueezedState) -> GaussPolySymbol:
    """2 exp{(1/xi)[-x.S(2 tau) x + 2 x.S(tau) xbar - xbar.xbar]}.

    At tau = 0 this is the coherent projector [|alpha><alpha|]_w.
    """
    xi = state.xi
    qbar, pbar = math.sqrt(2.0) * state.alpha.real, math.sqrt(2.0) * state.alpha.imag
    s11, s12, s22 = _squeeze_entries(state.tau_abs, state.tau_phase, xi)
    d11, d12, d22 = _squeeze_entries(2.0 * state.tau_abs, state.tau_phase, xi)
    quad = ((-d11 / xi, -d12 / xi), (-d12 / xi, -d22 / xi))
    lin = ((2.0 / xi) * (s11 * qbar + s12 * pbar), (2.0 / xi) * (s12 * qbar + s22 * pbar))
    const = -(qbar * qbar + pbar * pbar) / xi
    return GaussPolySymbol(quad, lin, const, ZPoly.constant(2.0))


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def variances(state: SqueezedState) -> tuple[float, float, float]:
    """(var q, var p, symmetrized covariance) of |tau alpha>.

    var q = (xi/2)(s^-2 cos^2(phi/2) + s^2 sin^2(phi/2)),
    var p = (xi/2)(s^2 cos^2(phi/2) + s^-2 sin^2(phi/2)),
    cov   = (xi/4)(s^-2 - s^2) sin(phi).
    The Schroedinger-Robertson bound is saturated:
    var_q var_p - cov^2 = xi^2/4 identically.
    """
    xi = state.xi
    s = state.s
    phi = state.tau_phase
    c2, s2 = math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2
    var_q = 0.5 * xi * (c2 / s**2 + s**2 * s2)
    var_p = 0.5 * xi * (s**2 * c2 + s2 / s**2)
    cov_f = 0.25 * xi * (1.0 / s**2 - s**2) * math.sin(phi)
    return var_q, var_p, cov_f


def mean_photon_number(state: SqueezedState) -> float:
    """<a^dag a> = xi sinh^2(2 xi |tau|) + |alpha cosh(2 xi |tau|) + alpha* e^{i phi} sinh(2 xi |tau|)|^2.

    The vacuum-fluctuation term carries the commutator scale xi (it reduces
    to the familiar sinh^2 at xi = 1, the photon-physics value).
    """
    xi = state.xi
    theta = 2.0 * xi * state.tau_abs
    ch, sh = math.cosh(theta), math.sinh(theta)
    alpha = state.alpha
    shifted = alpha * ch + np.conj(alpha) * np.exp(1j * state.tau_phase) * sh
    return xi * sh * sh + float(abs(shifted)) ** 2

