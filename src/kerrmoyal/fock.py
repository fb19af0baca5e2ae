"""Independent truncated-Fock-space ground truth for the Kerr dynamics.

Works in the xi-scaled number basis, <n-1|a|n> = sqrt(xi n).  Every state
(a coherent state is the squeezed state with tau = 0) is built by one
routine, coefficient by coefficient from the eigen-equation of its squeezed
annihilator: a three-term recurrence started from the closed-form vacuum
amplitude.  So the kept coefficients do not depend on the truncation, and
1 - ||v||^2 is the mass the truncation misses, the one tail test.  It also
means the amplitudes of the last state built can be kept and extended: a
larger dimension for the same state runs the recurrence only over the
entries it adds, and a smaller one takes a prefix.  The Kerr
Hamiltonian is diagonal, so Heisenberg evolution is an exact elementwise
phase multiplication with no time-stepping error, and (a^dag)^s a^m is a
single band at offset m - s.  Its energy gap is linear along the band, so a
sweep over times factors each phase into a block phase and an offset phase:
about 2 sqrt(L) exponentials per time for a band of length L.  This is what
makes the basis a trustworthy oracle for the closed-form results.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import TruncationInsufficient, check_same_xi, check_xi
from .kerr import KerrParams, ObservableIndex
from .states import SqueezedState

# Largest dimension fock_space_for tries.  The photon number of a state grows
# like 1/xi: s = 0.2, |alpha| = 1 needs dim 2048 at xi = 0.1 and 4096 at 0.02.
DIM_CAP = 2 ** 13
TAIL_TOL = 1e-12
_START_DIM = 64
_RESCALE_AT = 1e16
# The last state squeezed_vector built, its unnormalized amplitudes
# c_n = scaled_n exp(log_c0 + shift_n) as a read-only array, and the
# recurrence's tail (prev, cur, log_scale) after the last of them.  One slot,
# read once per call and replaced whole, never mutated once published; a
# build past DIM_CAP is not kept, so it holds at most 128 kB.
_NONE_BUILT = (None, np.zeros(0, dtype=complex), None)
_last = _NONE_BUILT


@dataclass(frozen=True)
class FockSpace:
    """Truncated number basis of dimension dim >= 2, an int, at deformation parameter xi."""

    dim: int
    xi: float

    def __post_init__(self):
        try:
            object.__setattr__(self, "dim", operator.index(self.dim))
        except TypeError:
            raise ValueError(f"dim must be an integer, got {self.dim!r}") from None
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        check_xi(self.xi)


def squeezed_vector(state: SqueezedState, space: FockSpace) -> np.ndarray:
    """|tau alpha> = V(tau) D(alpha)|0> in dim entries, then renormalized.

    With b = a/sqrt(xi), beta = alpha/sqrt(xi) and r = 2 xi |tau|, the state
    solves (cosh r b - e^{i phi} sinh r b^dag)|psi> = beta|psi>, that is

        c_{n+1} = (beta c_n + e^{i phi} sinh r sqrt(n) c_{n-1}) / (cosh r sqrt(n+1)),

    started from the SU(1,1) disentangled vacuum amplitude
    c_0 = exp(-|beta|^2/2 - e^{-i phi} tanh r beta^2/2) / sqrt(cosh r).
    A coherent state is the case tau = 0.  No coefficient depends on dim, and
    c_0 is exact, so 1 - ||v||^2 is the probability mass past the kept
    entries: TruncationInsufficient when its size exceeds TAIL_TOL.  The
    amplitudes of the last state built are kept (see _last): a call for an
    equal state (==) takes their first dim, running the recurrence on from
    where it stopped if they are fewer, and any other state replaces them.
    Every call returns a new array, bit-identical to a build from n = 0.
    """
    global _last
    check_same_xi(state.xi, space.xi)
    last = _last
    _, amps, tail = last if last[0] == state else _NONE_BUILT
    if amps.size < space.dim:
        beta = complex(state.alpha) / math.sqrt(space.xi)
        r = 2.0 * space.xi * state.tau_abs
        rot = cmath.exp(1j * state.tau_phase)
        cosh_r, tanh_r = math.cosh(r), math.tanh(r)
        drive = beta / cosh_r
        mixing = rot * tanh_r
        # c_0 underflows once |beta|^2 passes ~1490, so the recurrence runs
        # on rescaled coefficients: c_n = scaled_n exp(log_c0 + shift_n)
        log_c0 = (-0.5 * abs(beta) ** 2 - 0.5 * rot.conjugate() * tanh_r * beta * beta
                  - 0.5 * math.log(cosh_r))
        # a new state starts from c_0 = 1 and c_1 = drive in these units
        prev, cur, log_scale = tail or (1.0 + 0j, drive, 0.0)
        scaled = [] if tail else [prev, cur]
        shift = np.full(space.dim - amps.size, log_scale)
        # root starts at sqrt(n) of the last amplitude known; np.sqrt is
        # correctly rounded, as math.sqrt is, so one list of sqrt(n) leaves
        # every coefficient bit-identical to a per-step sqrt
        root = np.sqrt(np.arange(amps.size + len(scaled) - 1, space.dim)).tolist()
        for root_n, root_next in zip(root, root[1:]):
            prev, cur = cur, (drive * cur + mixing * root_n * prev) / root_next
            if abs(cur) > _RESCALE_AT:
                size = abs(cur)
                prev, cur, log_scale = prev / size, cur / size, log_scale + math.log(size)
                shift[len(scaled):] = log_scale
            scaled.append(cur)
        amps = np.concatenate((amps, np.array(scaled) * np.exp(log_c0 + shift)))
        amps.flags.writeable = False
        if amps.size <= DIM_CAP:
            _last = (state, amps, (prev, cur, log_scale))
    v = amps[:space.dim]
    norm = np.linalg.norm(v)
    missing = 1.0 - norm * norm
    if abs(missing) > TAIL_TOL:
        raise TruncationInsufficient(
            f"squeezed vector misses mass {missing:.3e} at dim {space.dim}")
    return v / norm


def fock_space_for(state: SqueezedState, cap: int = DIM_CAP) -> FockSpace:
    """The first dimension 64 * 2^k <= cap at which squeezed_vector accepts
    the state, i.e. misses at most TAIL_TOL of its mass.  Each rung extends
    the amplitudes squeezed_vector keeps, so the ladder and the caller's build
    at the dimension returned run the recurrence once over its entries."""
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
    rather than as two large phases E_n t/xi that cancel.  That gap is linear
    in l with slope 2 (m - s) w2 xi^2, so with l = W a + b, W = ceil(sqrt(L))
    for a band of length L, its phase is block_phase[t, a], that of the block
    start l = W a, times offset_phase[t, b], that of the offset b: 2W
    exponentials per time instead of L, neither of a larger phase than the
    whole.  The weights are padded with zeros to a whole number of blocks.
    The space and the params must pass errors.check_same_xi, and each
    vector must have shape (dim,), or ValueError is raised.  For s = m the
    gaps are 0 however large w1 or w2 is; OverflowError is raised where a
    phase is not finite.
    """
    check_same_xi(space.xi, params.xi)
    for v in (v_left, v_right):
        if np.shape(v) != (space.dim,):
            raise ValueError(f"Fock vector of shape {np.shape(v)} does not fit "
                             f"the space's shape ({space.dim},)")
    t = np.asarray(times, dtype=float).ravel()
    band = _band(idx, space)
    width = math.isqrt(max(band.size - 1, 0)) + 1   # ceil(sqrt(L)); 1 if L = 0
    blocks = -(-band.size // width)
    l = np.arange(band.size)
    weights = np.zeros(blocks * width, dtype=complex)
    weights[:band.size] = np.conj(v_left[l + idx.s]) * band * v_right[l + idx.m]
    d = idx.m - idx.s
    start = width * np.arange(blocks)
    with np.errstate(over="ignore", invalid="ignore"):   # checked below
        if d:
            start_gaps = d * (params.w2 * space.xi**2 * (2 * start + idx.m + idx.s - 1)
                              + params.w1 * space.xi)
            offset_gaps = 2 * d * params.w2 * space.xi**2 * np.arange(width)
        else:  # s = m: no gap however large w1 or w2 is
            start_gaps, offset_gaps = np.zeros(blocks), np.zeros(width)
        # a finite phase has a finite exponential, a non-finite one a NaN
        block_phase = np.exp(-1j * np.outer(t, start_gaps) / space.xi)
        offset_phase = np.exp(-1j * np.outer(t, offset_gaps) / space.xi)
    if not (np.isfinite(block_phase).all() and np.isfinite(offset_phase).all()):
        raise OverflowError(f"a phase (E_n - E_k) t / xi is not finite at w1 = "
                            f"{params.w1!r}, w2 = {params.w2!r}, xi = {space.xi!r}")
    return ((offset_phase @ weights.reshape(blocks, width).T) * block_phase).sum(axis=1)


def heisenberg_matrix_element(idx: ObservableIndex, t: float, v_left: np.ndarray,
                              v_right: np.ndarray, space: FockSpace,
                              params: KerrParams) -> complex:
    """<v_left| e^{iHt/xi} (a^dag)^s a^m e^{-iHt/xi} |v_right>.

    H is diagonal, so the evolution is an exact phase on each band entry.
    """
    return complex(_evolved_band(idx, [t], v_left, v_right, space, params)[0])


def heisenberg_expectation_sweep(idx: ObservableIndex, times, v: np.ndarray,
                                 space: FockSpace, params: KerrParams) -> np.ndarray:
    """<v|(a^dag(t))^s a(t)^m|v> over a time grid.

    Per time, 2 ceil(sqrt(L)) exponentials and O(L) multiply-adds for a band
    of length L (see _evolved_band).
    """
    return _evolved_band(idx, times, v, v, space, params)
