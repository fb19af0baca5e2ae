"""Dense truncated-Fock references for the tests.

These build the ladder, number, Hamiltonian and squeeze operators as dense
dim x dim matrices, and coherent states from their closed-form coefficients,
independently of the banded routes and the recurrence in kerrmoyal.fock
that the tests check against them.  In them [a, a^dag] = xi I except in the
last diagonal entry, which truncation corrupts.  squeezed_vector_reference
runs that recurrence the plain way, one sqrt per step, for a bitwise
comparison.
"""

import cmath
import math

import numpy as np
from scipy.linalg import expm

import kerrmoyal as km


def annihilation_matrix(space):
    n = np.arange(1, space.dim)
    return np.diag(np.sqrt(space.xi * n), k=1).astype(complex)


def coherent_coefficients(alpha, space):
    """c_n = e^{-|alpha|^2/(2 xi)} alpha^n / sqrt(xi^n n!) for n < dim.

    The closed form, assembled on a log scale so that alpha^n / sqrt(n!)
    does not overflow; neither truncated nor renormalized.
    """
    if alpha == 0:
        return np.eye(1, space.dim, dtype=complex)[0]
    n = np.arange(space.dim)
    log_mag = (n * math.log(abs(alpha)) - 0.5 * n * math.log(space.xi)
               - 0.5 * np.array([math.lgamma(k + 1) for k in n])
               - abs(alpha) ** 2 / (2.0 * space.xi))
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


def energies(space, params):
    """Diagonal of H in the number basis: w2 xi^2 n(n-1) + w1 xi n."""
    n = np.arange(space.dim, dtype=float)
    return params.w2 * space.xi**2 * n * (n - 1) + params.w1 * space.xi * n


def build_operators(space, params):
    """(a, a_dag, N, H) as dense matrices.

    H is diagonal with entries w2 xi^2 n(n-1) + w1 xi n; N = a^dag a has
    diagonal xi n.
    """
    a = annihilation_matrix(space)
    adag = a.conj().T
    n_op = np.diag(space.xi * np.arange(space.dim)).astype(complex)
    h_op = np.diag(energies(space, params)).astype(complex)
    return a, adag, n_op, h_op


def _squeeze_generator(tau, space):
    """tau (a^dag)^2 - tau* a^2; couples n to n +/- 2 only."""
    s = np.sqrt(space.xi * np.arange(1, space.dim))
    band = s[:-1] * s[1:]
    return (np.diag(tau * band, k=-2) - np.diag(np.conj(tau) * band, k=2)).astype(complex)


def squeeze_operator(tau, space):
    """Dense V(tau) = expm[tau (a^dag)^2 - tau* a^2] with a unitarity post-check."""
    v_op = expm(_squeeze_generator(tau, space))
    defect = np.max(np.abs(v_op.conj().T @ v_op - np.eye(space.dim)))
    if defect > 1e-10:
        raise km.TruncationInsufficient(
            f"squeeze operator unitarity defect {defect:.3e} at dim {space.dim}")
    return v_op


def squeezed_vector_reference(state, space):
    """squeezed_vector's recurrence with math.sqrt(n) taken at every step and
    the log-scale shift stored at every entry; normalized, with no tail test.

    c_{n+1} = (drive c_n + mixing sqrt(n) c_{n-1}) / sqrt(n+1) on coefficients
    rescaled by their size whenever it passes 1e16, so that c_0 may
    underflow.
    """
    beta = complex(state.alpha) / math.sqrt(space.xi)
    r = 2.0 * space.xi * state.tau_abs
    rot = cmath.exp(1j * state.tau_phase)
    cosh_r, tanh_r = math.cosh(r), math.tanh(r)
    drive = beta / cosh_r
    mixing = rot * tanh_r
    log_c0 = (-0.5 * abs(beta) ** 2 - 0.5 * rot.conjugate() * tanh_r * beta * beta
              - 0.5 * math.log(cosh_r))
    scaled = [0j] * space.dim
    shift = [0.0] * space.dim
    prev, cur, log_scale = 1.0 + 0j, drive, 0.0
    scaled[0], scaled[1] = prev, cur
    for n in range(1, space.dim - 1):
        prev, cur = cur, (drive * cur + mixing * math.sqrt(n) * prev) / math.sqrt(n + 1)
        if abs(cur) > 1e16:
            size = abs(cur)
            prev, cur, log_scale = prev / size, cur / size, log_scale + math.log(size)
        scaled[n + 1], shift[n + 1] = cur, log_scale
    v = np.array(scaled) * np.exp(log_c0 + np.array(shift))
    return v / np.linalg.norm(v)
