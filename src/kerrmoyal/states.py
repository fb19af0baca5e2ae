"""Coherent and squeezed states of a single mode with xi-scaled algebra.

A squeezed state |tau alpha> = V(tau) D(alpha) |0> is one SqueezedState of
the coherent amplitude alpha and the Bogoliubov parameter tau = |tau| e^{i phi}
(a coherent state has |tau| = 0), checked once when it is built; the squeeze
factor s = exp(-2 xi |tau|) in (0, 1] is always derived, never an
independent input.  The combination that the dynamics actually sees is
Delta_phi = phi - 2 arg(alpha), reduced to (-pi, pi] so that number
squeezing sits at Delta_phi = pi and phase squeezing at Delta_phi = 0.
"""

from __future__ import annotations

import cmath
import math
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

    tau = tau_abs e^{i tau_phase}; tau_phase is normalized to [0, 2 pi).
    Every field must be finite, tau_abs >= 0 and xi > 0 (ValueError), and
    s = exp(-2 xi tau_abs) must not underflow to 0 (InvalidState).
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
        if self.s <= 0:
            raise InvalidState(f"squeeze factor s = exp(-2 xi |tau|) underflows to 0 "
                               f"at xi |tau| = {self.xi * self.tau_abs!r}")
        object.__setattr__(self, "tau_phase", float(self.tau_phase) % (2.0 * math.pi))

    @classmethod
    def from_values(cls, alpha: complex, tau_abs: float, tau_phase: float,
                    xi: float) -> "SqueezedState":
        """The constructor under its older name, which perfbench/adapters.py calls."""
        return cls(alpha, tau_abs, tau_phase, xi)

    @property
    def s(self) -> float:
        return math.exp(-2.0 * self.xi * self.tau_abs)

    @property
    def delta_phi(self) -> float:
        return _reduce_angle(self.tau_phase - 2.0 * cmath.phase(self.alpha))

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
# Symplectic matrices of the metaplectic action
# ---------------------------------------------------------------------------

def rotation_matrix(phi: float) -> np.ndarray:
    """R(phi): rotation by the half angle phi/2; R(phi)^T = R(-phi)."""
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    return np.array([[c, -s], [s, c]])


def squeeze_matrix(tau_abs: float, phi: float, xi: float) -> np.ndarray:
    """S(tau) with V(tau) x_hat V(tau)^dag = S(tau) x_hat, tau = tau_abs e^{i phi}.

    Symmetric, positive definite, det = 1; equals
    R(phi) Lambda(s) R(-phi) with Lambda(s) = diag(s, 1/s), s = exp(-2 xi |tau|).
    """
    s = math.exp(-2.0 * xi * tau_abs)
    c2, s2 = math.cos(phi / 2.0) ** 2, math.sin(phi / 2.0) ** 2
    off = -0.5 * (1.0 / s - s) * math.sin(phi)
    return np.array([[s * c2 + s2 / s, off],
                     [off, c2 / s + s * s2]])


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
    xbar = state.mean_x
    s_tau = squeeze_matrix(state.tau_abs, state.tau_phase, xi)
    s_2tau = squeeze_matrix(2.0 * state.tau_abs, state.tau_phase, xi)
    quad = -s_2tau / xi
    lin = (2.0 / xi) * (s_tau @ xbar)
    const = -float(xbar @ xbar) / xi
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


def coherent_overlap(alpha: complex, beta: complex, xi: float) -> complex:
    """<alpha|beta> = exp[-(|alpha|^2/2 + |beta|^2/2 - alpha* beta)/xi]."""
    return np.exp((-0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2
                   + np.conj(alpha) * beta) / xi)
