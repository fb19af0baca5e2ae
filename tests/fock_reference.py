"""Dense truncated-Fock references for the tests.

These build the ladder, number, Hamiltonian and squeeze operators as dense
dim x dim matrices, and coherent states from their closed-form coefficients,
independently of the banded routes and the recurrence in kerrmoyal.fock
that the tests check against them.  In them [a, a^dag] = xi I except in the
last diagonal entry, which truncation corrupts.
"""

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
