"""Independent truncated-Fock-space ground truth for the Kerr dynamics.

Works in the xi-scaled number basis, <n-1|a|n> = sqrt(xi n).  Every state
(a coherent state is the squeezed state with tau = 0) is built by one
routine, coefficient by coefficient from the eigen-equation of its squeezed
annihilator: a three-term recurrence started from the closed-form vacuum
amplitude.  So the kept coefficients do not depend on the truncation, and
1 - ||v||^2 is the mass the truncation misses, the one tail test.  The Kerr
Hamiltonian is diagonal, so Heisenberg evolution is an exact elementwise
phase multiplication with no time-stepping error, and (a^dag)^s a^m is a
single band at offset m - s: a sweep over times is one phase array against
that band.  This is what makes the basis a trustworthy oracle for the
closed-form results.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficient
from .kerr import KerrParams, ObservableIndex
from .states import SqueezedState

# Largest dimension fock_space_for tries.  The photon number of a state grows
# like 1/xi: s = 0.2, |alpha| = 1 needs dim 2048 at xi = 0.1 and 4096 at 0.02.
DIM_CAP = 2 ** 13
TAIL_TOL = 1e-12
_START_DIM = 64
_RESCALE_AT = 1e16


@dataclass(frozen=True)
class FockSpace:
    """Truncated number basis of dimension dim at deformation parameter xi."""

    dim: int
    xi: float

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if self.xi <= 0:
            raise ValueError("xi must be positive")


def squeezed_vector(state: SqueezedState, space: FockSpace) -> np.ndarray:
    """|tau alpha> = V(tau) D(alpha)|0> in dim entries, then renormalized.

    With b = a/sqrt(xi), beta = alpha/sqrt(xi) and r = 2 xi |tau|, the state
    solves (cosh r b - e^{i phi} sinh r b^dag)|psi> = beta|psi>, that is

        c_{n+1} = (beta c_n + e^{i phi} sinh r sqrt(n) c_{n-1}) / (cosh r sqrt(n+1)),

    started from the SU(1,1) disentangled vacuum amplitude
    c_0 = exp(-|beta|^2/2 - e^{-i phi} tanh r beta^2/2) / sqrt(cosh r).
    A coherent state is the case tau = 0.  No coefficient depends on dim, and
    c_0 is exact, so 1 - ||v||^2 is the probability mass past the kept
    entries: TruncationInsufficient when its size exceeds TAIL_TOL.
    """
    state.check_xi(space.xi)
    beta = complex(state.alpha) / math.sqrt(space.xi)
    r = 2.0 * space.xi * state.tau_abs
    rot = cmath.exp(1j * state.tau_phase)
    cosh_r, tanh_r = math.cosh(r), math.tanh(r)
    drive = beta / cosh_r
    mixing = rot * tanh_r
    # c_0 underflows once |beta|^2 passes ~1490, so the recurrence runs on
    # rescaled coefficients: c_n = scaled_n exp(log_c0 + shift_n)
    log_c0 = (-0.5 * abs(beta) ** 2 - 0.5 * rot.conjugate() * tanh_r * beta * beta
              - 0.5 * math.log(cosh_r))
    scaled = [0j] * space.dim
    shift = [0.0] * space.dim
    prev, cur, log_scale = 1.0 + 0j, drive, 0.0
    scaled[0], scaled[1] = prev, cur
    for n in range(1, space.dim - 1):
        prev, cur = cur, (drive * cur + mixing * math.sqrt(n) * prev) / math.sqrt(n + 1)
        if abs(cur) > _RESCALE_AT:
            size = abs(cur)
            prev, cur, log_scale = prev / size, cur / size, log_scale + math.log(size)
        scaled[n + 1], shift[n + 1] = cur, log_scale
    v = np.array(scaled) * np.exp(log_c0 + np.array(shift))
    norm = np.linalg.norm(v)
    missing = 1.0 - norm * norm
    if abs(missing) > TAIL_TOL:
        raise TruncationInsufficient(
            f"squeezed vector misses mass {missing:.3e} at dim {space.dim}")
    return v / norm


def fock_space_for(state: SqueezedState, cap: int = DIM_CAP) -> FockSpace:
    """The first dimension 64 * 2^k <= cap at which squeezed_vector accepts
    the state, i.e. misses at most TAIL_TOL of its mass."""
    dim = _START_DIM
    while dim <= cap:
        space = FockSpace(dim, state.xi)
        try:
            squeezed_vector(state, space)
            return space
        except TruncationInsufficient:
            dim *= 2
    raise TruncationInsufficient(
        f"no dimension up to {cap} misses at most {TAIL_TOL} of the mass")


def _band(idx: ObservableIndex, space: FockSpace) -> np.ndarray:
    """<l+s|(a^dag)^s a^m|l+m> for l = 0 .. dim-1-max(s, m).

    a^m and (a^dag)^s each contribute prod_{i=1}^{k} sqrt(xi (l + i)).
    """
    l = np.arange(space.dim - max(idx.s, idx.m), dtype=float)
    band = np.ones_like(l)
    for k in (idx.m, idx.s):
        for i in range(1, k + 1):
            band *= np.sqrt(space.xi * (l + i))
    return band


def _evolved_band(idx: ObservableIndex, times, v_left: np.ndarray,
                  v_right: np.ndarray, space: FockSpace,
                  params: KerrParams) -> np.ndarray:
    """<v_left| e^{iHt/xi} (a^dag)^s a^m e^{-iHt/xi} |v_right> at every t in times.

    The operator maps |l+m> to band_l |l+s>, so the value at t is
    sum_l exp(-i (E_{l+m} - E_{l+s}) t/xi) conj(vl_{l+s}) band_l vr_{l+m}, with
    E_n - E_k = (n - k)(w2 xi^2 (n + k - 1) + w1 xi) taken as one difference
    rather than as two large phases E_n t/xi that cancel.  The space and the
    params must carry the same xi, compared exactly as SqueezedState.check_xi
    does, or ValueError is raised.
    """
    if params.xi != space.xi:
        raise ValueError(f"Fock space and params carry different xi "
                         f"({space.xi!r} != {params.xi!r})")
    band = _band(idx, space)
    n = np.arange(band.size) + idx.m
    k = np.arange(band.size) + idx.s
    weights = np.conj(v_left[k]) * band * v_right[n]
    gaps = (n - k) * (params.w2 * space.xi**2 * (n + k - 1) + params.w1 * space.xi)
    t = np.asarray(times, dtype=float).ravel()
    return np.exp(-1j * np.outer(t, gaps) / space.xi) @ weights


def heisenberg_matrix_element(idx: ObservableIndex, t: float, v_left: np.ndarray,
                              v_right: np.ndarray, space: FockSpace,
                              params: KerrParams) -> complex:
    """<v_left| e^{iHt/xi} (a^dag)^s a^m e^{-iHt/xi} |v_right>.

    H is diagonal, so the evolution is an exact phase on each band entry.
    """
    return complex(_evolved_band(idx, [t], v_left, v_right, space, params)[0])


def heisenberg_expectation_sweep(idx: ObservableIndex, times, v: np.ndarray,
                                 space: FockSpace, params: KerrParams) -> np.ndarray:
    """<v|(a^dag(t))^s a(t)^m|v> over a time grid: one phase array, one reduction."""
    return _evolved_band(idx, times, v, v, space, params)
