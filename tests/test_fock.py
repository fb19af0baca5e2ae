"""Truncated Fock-basis oracle: algebra fidelity and exact eigen-evolution."""

import math
import re

import mpmath
import numpy as np
import pytest

import kerrmoyal as km
from kerrmoyal import TruncationInsufficient

from fock_reference import (annihilation_matrix, build_operators,
                            coherent_coefficients, energies, squeeze_operator,
                            squeezed_vector_reference)

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
    state = km.SqueezedState(1.0, -math.log(0.1) / 2.0, 0.0, XI)
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
    state = km.SqueezedState(0.6, 0.3, 1.2, XI)
    space = km.FockSpace(96, XI)
    via_vector = km.squeezed_vector(state, space)
    assert np.max(np.abs(via_vector - _dense_squeezed(state, 96))) <= 1e-13


@pytest.mark.parametrize("alpha", [3.8, 3.9])
def test_squeezed_vector_past_vacuum_underflow(alpha):
    # |beta|^2 = 1444 and 1521 at xi = 0.01: c_0 = e^{-|beta|^2/2} is subnormal
    # or zero in double precision, yet the state fits the 2048 basis
    xi = 0.01
    coherent = km.SqueezedState(alpha, 0.0, 0.0, xi)
    space = km.fock_space_for(coherent, cap=2048)
    v = km.squeezed_vector(coherent, space)
    assert np.max(np.abs(v - coherent_coefficients(alpha, space))) <= 1e-12
    squeezed = km.SqueezedState(alpha, 10.0, math.pi, xi)
    space = km.fock_space_for(squeezed, cap=2048)
    v = km.squeezed_vector(squeezed, space)
    mean_n = xi * np.sum(np.arange(space.dim) * np.abs(v) ** 2)
    assert mean_n == pytest.approx(km.mean_photon_number(squeezed), abs=1e-12)


def test_squeezed_vector_moments_match_closed_forms():
    state = km.SqueezedState(1.0, -math.log(0.5) / 2.0, math.pi, XI)
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


def test_heisenberg_rejects_params_of_another_xi():
    # the rule of SqueezedState.check_xi: equal floats, no tolerance
    space = km.FockSpace(64, XI)
    v = _coherent(0.9, space)
    idx = km.ObservableIndex(0, 1)
    for other_xi in (0.5, XI + 2.0**-52):
        params = km.KerrParams(w1=1.0, w2=0.1, xi=other_xi)
        with pytest.raises(ValueError, match="different xi"):
            km.heisenberg_matrix_element(idx, 1.0, v, v, space, params)
        with pytest.raises(ValueError, match="different xi"):
            km.heisenberg_expectation_sweep(idx, [0.0, 1.0], v, space, params)


def test_heisenberg_rejects_vectors_of_another_shape():
    # a longer vector was cut to dim, a shorter one raised a bare IndexError
    space = km.FockSpace(64, XI)
    v = _coherent(0.9, space)
    idx = km.ObservableIndex(0, 1)
    longer = _coherent(0.9, km.FockSpace(65, XI))
    for bad in (longer, v[:10], v.reshape(8, 8), v[None, :]):
        shapes = re.escape(f"shape {bad.shape} does not fit the space's shape (64,)")
        with pytest.raises(ValueError, match=shapes):
            km.heisenberg_matrix_element(idx, 1.0, v, bad, space, PARAMS)
        with pytest.raises(ValueError, match=shapes):
            km.heisenberg_matrix_element(idx, 1.0, bad, v, space, PARAMS)
        with pytest.raises(ValueError, match=shapes):
            km.heisenberg_expectation_sweep(idx, [0.0, 1.0], bad, space, PARAMS)


def test_heisenberg_time_reversible():
    space = km.FockSpace(96, XI)
    state = km.SqueezedState(0.8, 0.2, 0.5, XI)
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
    v = km.squeezed_vector(km.SqueezedState(0.8, 0.2, 0.5, XI), space)
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


# (dim, (s, m)) for band lengths dim - max(s, m) of 0, 1, a perfect square
# and a prime; (s, s) has no energy gap, so every phase is 1
@pytest.mark.parametrize("dim, sm", [
    (2, (2, 0)), (2, (1, 2)), (2, (0, 1)), (2, (1, 1)),
    (16, (0, 0)), (18, (1, 2)), (16, (0, 3)), (16, (3, 0))])
def test_sweep_edge_band_lengths(dim, sm):
    space = km.FockSpace(dim, XI)
    idx = km.ObservableIndex(*sm)
    rng = np.random.default_rng(dim + 10 * sm[0] + 100 * sm[1])
    v_left, v_right = (w / np.linalg.norm(w)
                       for w in rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim)))
    times = np.array([0.0, -0.7, 3.1, 12.0])
    swept = km.fock._evolved_band(idx, times, v_left, v_right, space, PARAMS)
    assert swept.shape == times.shape
    a = annihilation_matrix(space)
    dense = np.linalg.matrix_power(a.conj().T, idx.s) @ np.linalg.matrix_power(a, idx.m)
    phases = np.exp(-1j * np.outer(times, energies(space, PARAMS)) / XI)
    ref = np.array([np.conj(p * v_left) @ (dense @ (p * v_right)) for p in phases])
    assert np.max(np.abs(swept - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref))), idx
    if dim <= max(idx.s, idx.m):
        assert not np.any(swept)
    if idx.s == idx.m:
        assert np.max(np.abs(swept - swept[0])) <= 1e-15 * np.max(np.abs(swept))


def _mpmath_band_sum(idx, times, v, space, params):
    """sum_l w_l exp(-i t (E_{l+m} - E_{l+s}) / xi) at 40 digits, from the
    float weights w_l = conj(v_{l+s}) band_l v_{l+m} and the float inputs.

    The gap is d (w2 xi^2 (2l + m + s - 1) + w1 xi) with d = m - s, so the
    phase of entry l is that of entry 0 times rho^l, summed by Horner's rule.
    """
    band = km.fock._band(idx, space)
    l = np.arange(band.size)
    weights = [mpmath.mpc(complex(w)) for w in np.conj(v[l + idx.s]) * band * v[l + idx.m]]
    d = idx.m - idx.s
    xi, w1, w2 = (mpmath.mpf(x) for x in (space.xi, params.w1, params.w2))
    out = []
    with mpmath.workdps(40):
        for t in times:
            t = mpmath.mpf(float(t))
            rho = mpmath.expj(-t * 2 * d * w2 * xi)
            acc = mpmath.mpc(0)
            for w in reversed(weights):
                acc = acc * rho + w
            gap0 = d * (w2 * xi**2 * (idx.m + idx.s - 1) + w1 * xi)
            out.append(complex(acc * mpmath.expj(-t * gap0 / xi)))
    return np.array(out)


def test_sweep_matches_40_digit_sum():
    # the oracle-strong benchmark's dim-2048 state (s = 0.1, |alpha| = 0.5,
    # number squeezing) over the 24 acceptance times; phases reach ~5e4 rad
    # for (0, 4), so an ulp of the phase sets the float floor
    state = km.SqueezedState(0.5, -math.log(0.1) / (2.0 * XI), math.pi, XI)
    space = km.fock_space_for(state)
    assert space.dim == 2048
    v = km.squeezed_vector(state, space)
    times = [k * math.pi / 24.0 / (XI * PARAMS.w2) for k in range(25) if k != 12]
    # readings 3.9e-15, 3.2e-12, 4.9e-12
    for sm, bound in (((0, 1), 1e-13), ((1, 3), 1e-10), ((0, 4), 1e-10)):
        idx = km.ObservableIndex(*sm)
        ref = _mpmath_band_sum(idx, times, v, space, PARAMS)
        swept = km.heisenberg_expectation_sweep(idx, times, v, space, PARAMS)
        assert np.max(np.abs(swept - ref) / (1.0 + np.abs(ref))) <= bound, sm


@pytest.mark.parametrize("state, dim", [
    (km.SqueezedState(0.8, 0.2, 0.5, XI), 96),
    # |beta|^2 = 2250: c_0 = e^{-1125} underflows, so the rescaling runs
    (km.SqueezedState(1.5, 0.0, 0.0, 1e-3), 4096),
    (km.SqueezedState(1.5, 50.0, math.pi, 1e-3), 4096)])
def test_squeezed_vector_matches_per_step_recurrence(state, dim):
    space = km.FockSpace(dim, state.xi)
    assert np.array_equal(km.squeezed_vector(state, space),
                          squeezed_vector_reference(state, space))


def _build(state, dim):
    """squeezed_vector at dim as bytes, or its TruncationInsufficient message."""
    try:
        return km.squeezed_vector(state, km.FockSpace(dim, state.xi)).tobytes()
    except TruncationInsufficient as err:
        return str(err)


def _fresh_build(state, dim):
    """_build after the vacuum at another xi has replaced the amplitudes that
    squeezed_vector keeps, so that the recurrence runs from n = 0."""
    _build(km.SqueezedState(0.0, 0.0, 0.0, 2.0 * state.xi), 2)
    return _build(state, dim)


# the states of the bitwise test above: the last two rescale, and c_0 =
# e^{-1125} underflows, so their ladder resumes the recurrence past rescales
@pytest.mark.parametrize("state", [
    km.SqueezedState(0.8, 0.2, 0.5, XI),
    km.SqueezedState(1.5, 0.0, 0.0, 1e-3),
    km.SqueezedState(1.5, 50.0, math.pi, 1e-3)])
def test_kept_amplitudes_match_fresh_builds(state):
    ladder = [64 * 2**k for k in range(7)]
    builds = [_fresh_build(state, ladder[0])] + [_build(state, dim) for dim in ladder[1:]]
    # below the 4096 amplitudes kept, a request takes a prefix
    smaller = [4095, 1000, 96, 2]
    builds += [_build(state, dim) for dim in smaller]
    assert km.fock._last[0] == state and km.fock._last[1].size == 4096
    for dim, build in zip(ladder + smaller, builds):
        assert build == _fresh_build(state, dim), dim
    assert isinstance(builds[len(ladder) - 1], bytes)


def test_build_past_fock_space_for_matches_fresh_build():
    # validate_expectation's pairing_vs_fock: the ladder, then a build at 4x
    mild = km.SqueezedState(1.0, -math.log(0.5) / 2.0, math.pi, XI)
    dim = 4 * km.fock_space_for(mild).dim
    assert _build(mild, dim) == _fresh_build(mild, dim)


def test_states_one_ulp_apart_share_no_amplitudes():
    state = km.SqueezedState(0.8, 0.2, 0.5, XI)
    near = km.SqueezedState(0.8, 0.2, math.nextafter(0.5, 1.0), XI)
    _build(state, 96)
    assert _build(near, 64) == _fresh_build(near, 64) != _fresh_build(state, 64)


def test_returned_vector_is_not_kept():
    state = km.SqueezedState(0.8, 0.2, 0.5, XI)
    whole = km.squeezed_vector(state, km.FockSpace(96, XI))
    prefix = km.squeezed_vector(state, km.FockSpace(64, XI))
    expected = whole.copy(), prefix.copy()
    whole[:] = 0.0
    prefix[:] = 0.0
    assert np.array_equal(km.squeezed_vector(state, km.FockSpace(96, XI)), expected[0])
    assert np.array_equal(km.squeezed_vector(state, km.FockSpace(64, XI)), expected[1])


@pytest.mark.parametrize("s", [0.5, 0.1])
def test_closed_form_matches_fock_at_singular_time(s):
    # t~ = pi/2 + delta, down to delta = 0: the closed form has no window
    # or limit substitution, so it holds the Fock value right at the pole
    state = km.SqueezedState(1.0, -math.log(s) / (2.0 * XI), math.pi, XI)
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
