"""Truncated Fock-basis oracle: algebra fidelity and exact eigen-evolution."""

import math

import numpy as np
import pytest

import kerrmoyal as km
from kerrmoyal import TruncationInsufficient

from fock_reference import (annihilation_matrix, build_operators,
                            coherent_coefficients, energies, squeeze_operator)

XI = 1.0
PARAMS = km.KerrParams(w1=1.0, w2=0.1, xi=XI)


def _coherent(alpha, space):
    """|alpha> as the squeezed vector at tau = 0."""
    return km.squeezed_vector(km.SqueezedState(alpha, 0.0, 0.0, space.xi), space)


def test_commutator_on_leading_block():
    space = km.FockSpace(48, XI)
    a = annihilation_matrix(space)
    comm = a @ a.conj().T - a.conj().T @ a
    block = comm[:-1, :-1]
    assert np.max(np.abs(block - XI * np.eye(space.dim - 1))) <= 1e-12
    # truncation corrupts only the last diagonal entry
    assert comm[-1, -1] == pytest.approx(-XI * (space.dim - 1), rel=1e-12)


def test_number_commutators():
    space = km.FockSpace(40, 0.6)
    a, adag, n_op, _ = build_operators(space, km.KerrParams(1.0, 0.1, 0.6))
    lhs = (n_op @ a - a @ n_op)[:-1, :-1]
    assert np.max(np.abs(lhs - (-0.6) * a[:-1, :-1])) <= 1e-12
    lhs = (n_op @ adag - adag @ n_op)[1:, 1:]
    assert np.max(np.abs(lhs - 0.6 * adag[1:, 1:])) <= 1e-12


def test_hamiltonian_diagonal():
    space = km.FockSpace(16, XI)
    _, _, n_op, h_op = build_operators(space, PARAMS)
    vac = np.zeros(16)
    vac[0] = 1.0
    assert np.allclose(h_op @ vac, 0.0)
    two = np.zeros(16)
    two[2] = 1.0
    expected = 2.0 * PARAMS.w2 * XI**2 + 2.0 * PARAMS.w1 * XI
    assert np.allclose(h_op @ two, expected * two)
    assert np.allclose(np.diag(n_op), XI * np.arange(16))
    # H equals the Wick-ordered operator built from the ladder matrices
    a, adag, _, _ = build_operators(space, PARAMS)
    wick = PARAMS.w2 * adag @ adag @ a @ a + PARAMS.w1 * adag @ a
    assert np.max(np.abs(h_op - wick)) <= 1e-12


def test_coherent_vector_properties():
    space = km.FockSpace(64, XI)
    alpha = 1.0
    v = _coherent(alpha, space)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    a = annihilation_matrix(space)
    # eigenvector property within truncation error
    resid = a @ v - alpha * v
    assert np.linalg.norm(resid[:-1]) <= 1e-10
    n_op = np.diag(XI * np.arange(space.dim))
    assert float(np.real(np.conj(v) @ (n_op @ v))) == pytest.approx(
        abs(alpha) ** 2, abs=1e-10)
    vac = _coherent(0.0, space)
    assert vac[0] == 1.0 and not np.any(vac[1:])
    assert np.max(np.abs(v - coherent_coefficients(alpha, space))) <= 1e-15


def _missing_mass(state, dim):
    """Mass of the state past dim, read off a build at dim 4096."""
    v = km.squeezed_vector(state, km.FockSpace(4096, state.xi))
    return float(np.sum(np.abs(v[dim:]) ** 2))


def test_missing_mass_values():
    # |1> at xi = 1 misses about 4.5e-83 of its mass at dim 60
    coherent = km.SqueezedState(1.0, 0.0, 0.0, XI)
    km.squeezed_vector(coherent, km.FockSpace(60, XI))
    assert _missing_mass(coherent, 60) < 1e-80
    # the first doubled dimension whose missing mass is within TAIL_TOL: s = 0.1
    # squeezing at xi = 1 genuinely needs a basis past 1024 states; a window of
    # the last kept entries would take 512 for the second state, which misses
    # 2.1e-12, and 128 for the third, where 64 misses 8.1e-13
    for state, dim in (
            (km.SqueezedState(1.0, -math.log(0.1) / 2.0, math.pi, XI), 2048),
            (km.SqueezedState(1.5 + 0.5j, -math.log(0.2) / 4.0, 0.0, 2.0), 1024),
            (km.SqueezedState(0.5, -math.log(0.5) / 2.0, 0.0, 1.0), 64)):
        assert km.fock_space_for(state, cap=2048).dim == dim
        assert _missing_mass(state, dim) <= km.fock.TAIL_TOL < _missing_mass(state, dim // 2)


def test_truncation_insufficient_raises():
    space = km.FockSpace(8, XI)
    with pytest.raises(TruncationInsufficient):
        _coherent(2.5, space)
    state = km.SqueezedState.from_values(1.0, -math.log(0.1) / 2.0, 0.0, XI)
    with pytest.raises(TruncationInsufficient):
        km.fock_space_for(state, cap=256)


def test_squeeze_operator_unitary():
    space = km.FockSpace(56, XI)
    v_op = squeeze_operator(0.25 * np.exp(0.4j), space)
    assert np.max(np.abs(v_op.conj().T @ v_op - np.eye(space.dim))) < 1e-10


def _dense_squeezed(state, dim):
    """V(tau)|alpha> by dense expm at 2 dim, truncated to dim.

    expm of the generator truncated at dim itself is off by ~1e-12 in its
    last coefficients; doubling the basis pushes that error out of the kept
    block.
    """
    big = km.FockSpace(2 * dim, state.xi)
    tau = state.tau_abs * np.exp(1j * state.tau_phase)
    return (squeeze_operator(tau, big)
            @ coherent_coefficients(state.alpha, big))[:dim]


def test_squeezed_vector_matches_dense_operator():
    state = km.SqueezedState.from_values(0.6, 0.3, 1.2, XI)
    space = km.FockSpace(96, XI)
    via_vector = km.squeezed_vector(state, space)
    assert np.max(np.abs(via_vector - _dense_squeezed(state, 96))) <= 1e-13


@pytest.mark.parametrize("alpha", [3.8, 3.9])
def test_squeezed_vector_past_vacuum_underflow(alpha):
    # |beta|^2 = 1444 and 1521 at xi = 0.01: c_0 = e^{-|beta|^2/2} is subnormal
    # or zero in double precision, yet the state fits the 2048 basis
    xi = 0.01
    coherent = km.SqueezedState.from_values(alpha, 0.0, 0.0, xi)
    space = km.fock_space_for(coherent, cap=2048)
    v = km.squeezed_vector(coherent, space)
    assert np.max(np.abs(v - coherent_coefficients(alpha, space))) <= 1e-12
    squeezed = km.SqueezedState.from_values(alpha, 10.0, math.pi, xi)
    space = km.fock_space_for(squeezed, cap=2048)
    v = km.squeezed_vector(squeezed, space)
    mean_n = xi * np.sum(np.arange(space.dim) * np.abs(v) ** 2)
    assert mean_n == pytest.approx(km.mean_photon_number(squeezed), abs=1e-12)


def test_squeezed_vector_moments_match_closed_forms():
    state = km.SqueezedState.from_values(1.0, -math.log(0.5) / 2.0, math.pi, XI)
    space = km.fock_space_for(state)
    v = km.squeezed_vector(state, space)
    a = annihilation_matrix(space)
    q_op = (a + a.conj().T) / math.sqrt(2.0)
    p_op = (a - a.conj().T) / (1j * math.sqrt(2.0))
    mq = float(np.real(np.conj(v) @ (q_op @ v)))
    mp = float(np.real(np.conj(v) @ (p_op @ v)))
    var_q = float(np.real(np.conj(v) @ (q_op @ q_op @ v))) - mq * mq
    var_p = float(np.real(np.conj(v) @ (p_op @ p_op @ v))) - mp * mp
    sym = q_op @ p_op + p_op @ q_op
    cov = 0.5 * float(np.real(np.conj(v) @ (sym @ v))) - mq * mp
    ref_q, ref_p, ref_cov = km.variances(state)
    assert var_q == pytest.approx(ref_q, abs=1e-8)
    assert var_p == pytest.approx(ref_p, abs=1e-8)
    assert cov == pytest.approx(ref_cov, abs=1e-8)
    assert var_q * var_p - cov**2 == pytest.approx(XI**2 / 4.0, abs=1e-8)


def test_heisenberg_number_conserved():
    space = km.FockSpace(64, XI)
    v = _coherent(0.9, space)
    idx = km.ObservableIndex(1, 1)
    ref = km.heisenberg_matrix_element(idx, 0.0, v, v, space, PARAMS)
    for t in (0.7, 3.0, 12.0):
        assert km.heisenberg_matrix_element(idx, t, v, v, space, PARAMS) == pytest.approx(
            ref, abs=1e-12)


def test_heisenberg_harmonic_rotation():
    params = km.KerrParams(w1=1.1, w2=0.0, xi=XI)
    space = km.FockSpace(64, XI)
    v = _coherent(1.0, space)
    for t in (0.4, 2.2):
        val = km.heisenberg_matrix_element(km.ObservableIndex(0, 1), t, v, v, space, params)
        assert val == pytest.approx(np.exp(-1j * params.w1 * t), abs=1e-10)


def test_heisenberg_time_reversible():
    space = km.FockSpace(96, XI)
    state = km.SqueezedState.from_values(0.8, 0.2, 0.5, XI)
    v = km.squeezed_vector(state, space)
    idx = km.ObservableIndex(0, 1)
    base = km.heisenberg_matrix_element(idx, 0.0, v, v, space, PARAMS)
    t = 1.7
    forward = km.heisenberg_matrix_element(idx, t, v, v, space, PARAMS)
    # evolving the evolved observable backwards restores the t = 0 value
    phase = np.exp(-1j * energies(space, PARAMS) * t / XI)
    w = phase * v
    undone = km.heisenberg_matrix_element(idx, -t, w, w, space, PARAMS)
    assert undone == pytest.approx(base, abs=1e-12)
    assert forward != pytest.approx(base, abs=1e-3)  # the dynamics is nontrivial


def test_sweep_band_matches_dense_products():
    space = km.FockSpace(96, XI)
    v = km.squeezed_vector(km.SqueezedState.from_values(0.8, 0.2, 0.5, XI), space)
    a = annihilation_matrix(space)
    adag = a.conj().T
    times = np.array([0.0, 0.3, 1.7, 4.2])
    phases = np.exp(-1j * np.outer(times, energies(space, PARAMS)) / XI)
    for s in range(4):
        for m in range(4 - s):
            idx = km.ObservableIndex(s, m)
            dense = (np.linalg.matrix_power(adag, s)
                     @ np.linalg.matrix_power(a, m))
            ref = np.array([np.conj(w) @ (dense @ w) for w in phases * v])
            swept = km.heisenberg_expectation_sweep(idx, times, v, space, PARAMS)
            assert np.max(np.abs(swept - ref)) <= 1e-13, idx
            # the band is the dense product's diagonal at offset m - s, past
            # its leading min(s, m) zeros
            diagonal = np.diagonal(dense, offset=m - s)
            assert not np.any(diagonal[:min(s, m)]), idx
            band = km.fock._band(idx, space)
            assert np.max(np.abs(diagonal[min(s, m):] - band)) <= 1e-12, idx


@pytest.mark.parametrize("s", [0.5, 0.1])
def test_closed_form_matches_fock_at_singular_time(s):
    # t~ = pi/2 + delta, down to delta = 0: the closed form has no window
    # or limit substitution, so it holds the Fock value right at the pole
    state = km.SqueezedState.from_values(1.0, -math.log(s) / (2.0 * XI), math.pi, XI)
    space = km.fock_space_for(state, cap=2048)
    v = km.squeezed_vector(state, space)
    deltas = np.array([-1e-7, -5e-10, 0.0, 1e-12, 5e-10, 1e-7])
    times = (math.pi / 2.0 + deltas) / (XI * PARAMS.w2)
    oracle = km.heisenberg_expectation_sweep(km.ObservableIndex(0, 1), times, v,
                                             space, PARAMS)
    for t, ref in zip(times, oracle):
        closed = km.expectation_a_closed(float(t), state, PARAMS).value
        assert abs(closed - ref) <= 1e-12 * abs(ref), t


def test_expectation_bounded_through_singular_time():
    # phase averaging keeps <a(t)> finite where the symbol diverges
    t_sing = (math.pi / 2.0) / (XI * PARAMS.w2)
    space = km.FockSpace(80, XI)
    v = _coherent(1.0, space)
    ts = t_sing + np.linspace(-0.2, 0.2, 9) / PARAMS.w2
    vals = km.heisenberg_expectation_sweep(km.ObservableIndex(0, 1), ts, v,
                                           space, PARAMS)
    assert np.max(np.abs(vals)) <= 1.0  # never exceeds the coherent amplitude
