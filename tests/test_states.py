"""Squeezed-state parameters, symplectic matrices, symbols and moments."""

import cmath
import math

import numpy as np
import pytest

import kerrmoyal as km
from kerrmoyal import InvalidState
from kerrmoyal.phase_space import GaussPolySymbol, PhasePoint
from kerrmoyal.states import _reduce_angle

XI = 1.0


def make_state(alpha=1.0, s_target=0.5, delta_phi=math.pi, xi=XI):
    tau_abs = -math.log(s_target) / (2.0 * xi)
    phi = delta_phi + 2.0 * np.angle(alpha)
    return km.SqueezedState(alpha, tau_abs, phi, xi)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_s_factor_derived():
    state = make_state(s_target=0.37)
    assert state.s == pytest.approx(0.37)
    assert km.SqueezedState(1.0, 0.0, 0.0, XI).s == 1.0


def test_from_values_is_the_constructor():
    args = (0.7 - 0.2j, 0.3, 7.5, XI)       # tau_phase normalized to [0, 2 pi)
    assert km.SqueezedState.from_values(*args) == km.SqueezedState(*args)


@pytest.mark.parametrize("cls,args,message", [
    (km.SqueezedState, (1.0, math.nan, 0.0, XI), "magnitude must be finite"),
    (km.SqueezedState, (1.0, math.inf, 0.0, XI), "magnitude must be finite"),
    (km.SqueezedState, (1.0, 0.3, math.inf, XI), "phase must be finite"),
    (km.SqueezedState, (complex(0.5, math.nan), 0.3, 0.0, XI), "alpha must be finite"),
    (km.SqueezedState, (1.0, 0.3, 0.0, math.nan), "xi must be positive and finite"),
    (km.SqueezedState, (1.0, 0.3, 0.0, math.inf), "xi must be positive and finite"),
    (km.KerrParams, (math.inf, 0.1, 1.0), "w1 must be finite"),
    (km.KerrParams, (1.0, math.nan, 1.0), "w2 must be finite"),
    (km.KerrParams, (1.0, 0.1, math.nan), "xi must be positive and finite"),
    (km.FockSpace, (64, math.nan), "xi must be positive and finite"),
    (km.FockSpace, (64, math.inf), "xi must be positive and finite"),
], ids=["magnitude-nan", "magnitude-inf", "phase-inf", "alpha-nan", "state-xi-nan",
        "state-xi-inf", "w1-inf", "w2-nan", "xi-nan", "fock-xi-nan", "fock-xi-inf"])
def test_non_finite_parameters_rejected(cls, args, message):
    # xi, wherever it enters, is checked by the one rule errors.check_xi
    with pytest.raises(ValueError, match=message):
        cls(*args)


def test_invalid_state_rejected():
    # every check runs when the state is built, so no later function meets
    # a state it cannot use
    for args in ((1.0, 0.3, 0.0, 0.0), (1.0, 0.3, 0.0, -1.0)):
        with pytest.raises(ValueError, match="xi must be positive"):
            km.SqueezedState(*args)
    with pytest.raises(ValueError, match="non-negative"):
        km.SqueezedState(1.0, -0.1, 0.0, XI)
    # s^2 = exp(-712) is subnormal, exp(-800) underflows to 0 and so does
    # s = exp(-800) itself
    for tau_abs in (178.0, 200.0, 400.0):
        with pytest.raises(InvalidState, match="underflows"):
            km.SqueezedState(1.0, tau_abs, 0.0, XI)
    # s^2 = exp(-704) is still a normal float
    assert km.SqueezedState(1.0, 176.0, 0.0, XI).s ** 2 > 0.0


def test_delta_phi_reduction():
    # number squeezing lands on +pi, phase squeezing on 0
    num = make_state(alpha=0.5 + 0.5j, delta_phi=math.pi)
    assert num.delta_phi == pytest.approx(math.pi)
    phase = make_state(alpha=0.5 + 0.5j, delta_phi=0.0)
    assert phase.delta_phi == pytest.approx(0.0)
    wrapped = make_state(alpha=1.0, delta_phi=-3.0 * math.pi)
    assert wrapped.delta_phi == pytest.approx(math.pi)
    assert km.SqueezedState(1.0, 0.3, -0.5, XI).tau_phase == 2.0 * math.pi - 0.5


def test_cached_values_leave_equality_and_hash_alone():
    # s, delta_phi, amplitude_noise and closed_form_constants are cached in
    # the instance, not fields: a state whose cache has been read equals and
    # hashes as one whose cache has not
    args = (0.6 - 0.8j, 0.3, -7.5, 0.5)
    read, unread = km.SqueezedState(*args), km.SqueezedState(*args)
    before = hash(read)
    assert (read.s, read.delta_phi, read.amplitude_noise,
            read.closed_form_constants) is not None
    assert "delta_phi" in vars(read) and "delta_phi" not in vars(unread)
    assert "closed_form_constants" in vars(read)
    assert "closed_form_constants" not in vars(unread)
    assert read == unread and hash(read) == hash(unread) == before
    assert read != km.SqueezedState(0.6 - 0.8j, 0.3, -7.4, 0.5)


@pytest.mark.parametrize("alpha,tau_phase", [(1, 0.0), (np.complex128(-0.3 + 0.9j), -7.5),
                                             (0.6 - 0.8j, 13.0), (-2.0, math.pi)])
def test_cached_values_follow_the_stored_fields(alpha, tau_phase):
    # derived from the normalized tau_phase and the complex alpha the state
    # stores, bit for bit as their formulas give them
    state = km.SqueezedState(alpha, 0.4, tau_phase, 0.5)
    assert type(state.alpha) is complex and state.alpha == alpha
    assert 0.0 <= state.tau_phase < 2.0 * math.pi
    assert state.s == math.exp(-2.0 * state.xi * state.tau_abs)
    raw = state.tau_phase - 2.0 * cmath.phase(state.alpha)
    assert state.delta_phi == _reduce_angle(raw)
    assert -math.pi < state.delta_phi <= math.pi
    half, s2 = 0.5 * state.delta_phi, state.s * state.s
    assert state.amplitude_noise == math.cos(half) ** 2 / s2 + s2 * math.sin(half) ** 2
    assert state.closed_form_constants == (state.s, s2, half, state.alpha,
                                           -2j * abs(state.alpha) ** 2,
                                           state.amplitude_noise)


def test_amplitude_noise_is_the_variance_along_alpha():
    # the variance of the quadrature along alpha, in units of xi/2
    for alpha, s_target, delta_phi in ((0.7 + 0.2j, 0.5, 1.1), (1.0, 0.2, math.pi),
                                       (-0.3 + 0.9j, 0.8, 0.0)):
        state = make_state(alpha, s_target, delta_phi)
        var_q, var_p, cov = km.variances(state)
        u = np.array([math.cos(cmath.phase(alpha)), math.sin(cmath.phase(alpha))])
        var = u @ np.array([[var_q, cov], [cov, var_p]]) @ u
        assert state.amplitude_noise == pytest.approx(var / (0.5 * XI), rel=1e-14)


def test_phase_shift_convention():
    # alpha -> alpha e^{-i delta}, tau -> tau e^{-2i delta}: Delta_phi invariant
    # and <a(t)> acquires exactly e^{-i delta}
    params = km.KerrParams(1.0, 0.3, XI)
    state = make_state(alpha=0.8 + 0.4j, s_target=0.6, delta_phi=1.1)
    delta = 0.77
    shifted = km.SqueezedState(
        state.alpha * np.exp(-1j * delta), state.tau_abs,
        state.tau_phase - 2.0 * delta, XI)
    assert shifted.delta_phi == pytest.approx(state.delta_phi)
    assert shifted.alpha == pytest.approx(state.alpha * np.exp(-1j * delta))
    for t in (0.0, 0.9, 2.4):
        base = km.expectation_a_closed(t, state, params).value
        moved = km.expectation_a_closed(t, shifted, params).value
        assert moved == pytest.approx(base * np.exp(-1j * delta), abs=1e-13)


# ---------------------------------------------------------------------------
# symplectic matrices
# ---------------------------------------------------------------------------

def test_squeeze_matrix_identity_at_zero():
    assert np.allclose(km.squeeze_matrix(0.0, 1.3, XI), np.eye(2))


def test_squeeze_matrix_group_law_and_inverse():
    s1 = km.squeeze_matrix(0.41, 2.2, XI)
    s2 = km.squeeze_matrix(0.82, 2.2, XI)
    assert np.max(np.abs(s1 @ s1 - s2)) <= 1e-12
    inv = km.squeeze_matrix(0.41, 2.2 + math.pi, XI)
    # tau -> -tau flips the phase by pi; S(tau) S(-tau) = I
    assert np.max(np.abs(s1 @ inv - np.eye(2))) <= 1e-12


def test_squeeze_matrix_symplectic_and_factorized():
    state = make_state(alpha=0.3 + 0.9j, s_target=0.35, delta_phi=0.7)
    s_mat = km.squeeze_matrix(state.tau_abs, state.tau_phase, XI)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])   # the Poisson matrix
    assert np.max(np.abs(s_mat @ j @ s_mat.T - j)) <= 1e-12
    assert np.max(np.abs(s_mat - s_mat.T)) == 0.0
    assert np.linalg.det(s_mat) == pytest.approx(1.0, abs=1e-12)
    # R(phi) Lambda(s) R(-phi), R(phi) the rotation by the half angle phi/2
    c, s = math.cos(state.tau_phase / 2.0), math.sin(state.tau_phase / 2.0)
    rot = np.array([[c, -s], [s, c]])
    recon = rot @ np.diag([state.s, 1.0 / state.s]) @ rot.T
    assert np.max(np.abs(s_mat - recon)) <= 1e-12


def test_squeeze_matrix_eigenvalues_phi_independent():
    for phi in (0.0, 0.9, 2.5, math.pi):
        eig = np.sort(np.linalg.eigvalsh(km.squeeze_matrix(0.55, phi, XI)))
        s = math.exp(-2.0 * XI * 0.55)
        assert eig[0] == pytest.approx(s, abs=1e-12)
        assert eig[1] == pytest.approx(1.0 / s, abs=1e-12)


# ---------------------------------------------------------------------------
# projector symbols
# ---------------------------------------------------------------------------

def test_coherent_projector_peak_and_reality():
    alpha = 0.6 + 0.3j
    xbar = PhasePoint(math.sqrt(2.0) * alpha.real, math.sqrt(2.0) * alpha.imag)
    peak = km.coherent_projector_symbol(alpha, XI, xbar)
    assert peak == pytest.approx(2.0)
    for q, p in np.random.RandomState(2).uniform(-2, 2, size=(5, 2)):
        val = km.coherent_projector_symbol(alpha, XI, PhasePoint(q, p))
        assert isinstance(val, float) and val > 0.0


def test_coherent_projector_unit_trace():
    proj = km.squeezed_projector(km.SqueezedState(-0.4 + 0.8j, 0.0, 0.0, XI))
    trace = km.phase_space_inner_product(proj, GaussPolySymbol.constant(1.0), XI)
    assert trace / (2.0 * math.pi * XI) == pytest.approx(1.0, abs=1e-12)


def test_squeezed_projector_reduces_to_coherent():
    alpha = 0.5 - 0.7j
    projector = km.squeezed_projector(km.SqueezedState(alpha, 0.0, 0.0, XI))
    for q, p in np.random.RandomState(3).uniform(-2, 2, size=(5, 2)):
        pt = PhasePoint(q, p)
        assert projector(pt) == pytest.approx(
            km.coherent_projector_symbol(alpha, XI, pt), abs=1e-13)


def test_squeezed_projector_covariance_identity():
    rng = np.random.RandomState(4)
    for _ in range(5):
        alpha = complex(*rng.uniform(-1, 1, 2))
        state = km.SqueezedState(alpha, rng.uniform(0, 0.9),
                                 rng.uniform(0, 2 * math.pi), XI)
        s_mat = km.squeeze_matrix(state.tau_abs, state.tau_phase, XI)
        projector = km.squeezed_projector(state)
        for q, p in rng.uniform(-1.5, 1.5, size=(4, 2)):
            pt = PhasePoint(q, p)
            mapped = PhasePoint(*(s_mat @ (pt.q, pt.p)))
            assert projector(pt) == pytest.approx(
                km.coherent_projector_symbol(alpha, XI, mapped), abs=1e-12)


def test_squeezed_projector_unit_trace():
    state = make_state(alpha=0.9, s_target=0.3, delta_phi=0.4)
    trace = km.phase_space_inner_product(km.squeezed_projector(state),
                                         GaussPolySymbol.constant(1.0), XI)
    assert trace / (2.0 * math.pi * XI) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_variances_coherent_minimum():
    state = km.SqueezedState(0.7, 0.0, 0.0, XI)
    var_q, var_p, cov_f = km.variances(state)
    assert (var_q, var_p, cov_f) == (pytest.approx(XI / 2), pytest.approx(XI / 2),
                                     pytest.approx(0.0))


def test_variances_number_squeezed():
    state = make_state(alpha=1.0, s_target=0.4, delta_phi=math.pi)
    var_q, var_p, _ = km.variances(state)
    s = state.s
    assert var_q == pytest.approx(0.5 * XI * s * s)
    assert var_p == pytest.approx(0.5 * XI / (s * s))


def test_schroedinger_robertson_saturation():
    # equality holds identically; the tolerance tracks the conditioning of
    # the cancellation (terms grow like s^-4 for strong squeezing)
    for s_target in (0.9, 0.5, 0.2, 0.1, 0.05):
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            state = km.SqueezedState(
                0.6 + 0.2j, -math.log(s_target) / (2.0 * XI), phi, XI)
            var_q, var_p, cov_f = km.variances(state)
            tol = 1e-12 * max(1.0, var_q * var_p)
            assert var_q * var_p - cov_f**2 == pytest.approx(XI**2 / 4.0, abs=tol)


def test_mean_photon_number_limits():
    assert km.mean_photon_number(km.SqueezedState(0.9 + 0.3j, 0.0, 0.0, XI)) \
        == pytest.approx(abs(0.9 + 0.3j) ** 2)
    vac = km.SqueezedState(0.0, 0.4, 1.0, XI)
    assert km.mean_photon_number(vac) == pytest.approx(XI * math.sinh(2 * XI * 0.4) ** 2)


@pytest.mark.parametrize("xi", [1.0, 0.7])
def test_mean_photon_number_matches_fock(xi):
    state = km.SqueezedState(1.0, -math.log(0.5) / (2.0 * xi), 0.9, xi)
    space = km.fock_space_for(state)
    v = km.squeezed_vector(state, space)
    n_op = np.diag(xi * np.arange(space.dim)).astype(complex)
    oracle = float(np.real(np.conj(v) @ (n_op @ v)))
    assert km.mean_photon_number(state) == pytest.approx(oracle, abs=1e-8)


def test_coherent_overlap_formula():
    alpha, beta = 0.4 + 0.9j, -0.6 + 0.1j
    space = km.FockSpace(72, XI)
    va, vb = (km.squeezed_vector(km.SqueezedState(amp, 0.0, 0.0, XI), space)
              for amp in (alpha, beta))
    ov = complex(np.conj(va) @ vb)
    # the overlap is the (0, 0) coherent matrix element at t = 0
    closed = km.matrix_element(km.ObservableIndex(0, 0), 0.0, alpha, beta,
                               km.KerrParams(1.0, 0.1, XI))
    assert closed == pytest.approx(ov, abs=2e-15)   # reads 6.2e-17
