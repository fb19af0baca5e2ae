"""Dense truncated-Fock references for the tests.

These build the ladder, number, Hamiltonian and squeeze operators as dense
dim x dim matrices, independently of the banded routes in kerrmoyal.fock
that the tests check against them.  In them [a, a^dag] = xi I except in the
last diagonal entry, which truncation corrupts.
"""

import numpy as np
from scipy.linalg import expm

import kerrmoyal as km


def annihilation_matrix(space):
    n = np.arange(1, space.dim)
    return np.diag(np.sqrt(space.xi * n), k=1).astype(complex)


def build_operators(space, params):
    """(a, a_dag, N, H) as dense matrices.

    H is diagonal with entries w2 xi^2 n(n-1) + w1 xi n; N = a^dag a has
    diagonal xi n.
    """
    a = annihilation_matrix(space)
    adag = a.conj().T
    n_op = np.diag(space.xi * np.arange(space.dim)).astype(complex)
    h_op = np.diag(km.fock.energies(space, params)).astype(complex)
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
