"""Closed-form expectation values, quadrature route and matrix elements."""

import decimal
import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kerrmoyal as km
from kerrmoyal import ToleranceNotMet
from kerrmoyal import expectations
from kerrmoyal.expectations import _CHUNK, _axis_step, _quadrature_sums, branch_winding
from kerrmoyal.phase_space import PhasePoint

XI = 1.0
PARAMS = km.KerrParams(w1=1.0, w2=0.1, xi=XI)
T_SING = (math.pi / 2.0) / (XI * PARAMS.w2)


def make_state(alpha=1.0, s_target=0.5, delta_phi=math.pi, xi=XI):
    tau_abs = -math.log(s_target) / (2.0 * xi)
    phi = delta_phi + 2.0 * np.angle(alpha)
    return km.SqueezedState(alpha, tau_abs, phi, xi)


def bogoliubov_mean(state):
    # V(tau)^dag a V(tau) acting on |alpha>: the exact t = 0 expectation
    theta = 2.0 * state.xi * state.tau_abs
    return (state.alpha * math.cosh(theta)
            + np.conj(state.alpha) * np.exp(1j * state.tau_phase) * math.sinh(theta))


# ---------------------------------------------------------------------------
# closed form
# ---------------------------------------------------------------------------

def test_branch_winding():
    eps = 1e-9 / PARAMS.w2
    assert branch_winding(T_SING - eps, PARAMS) == 0
    assert branch_winding(T_SING + eps, PARAMS) == 1
    assert branch_winding(3.0 * T_SING + eps, PARAMS) == 2
    assert branch_winding(-(T_SING + eps), PARAMS) == -1


def test_expectation_result_split():
    state = make_state()
    res = km.expectation_a_closed(1.3, state, PARAMS)
    assert res.mean_q == pytest.approx(math.sqrt(2.0) * res.value.real)
    assert res.mean_p == pytest.approx(math.sqrt(2.0) * res.value.imag)
    # an immutable complex: value is the plain complex it equals and hashes as
    assert isinstance(res, complex) and type(res.value) is complex
    assert res == res.value and hash(res) == hash(res.value)
    with pytest.raises(AttributeError):
        res.value = 0j
    with pytest.raises(AttributeError):
        res.note = "extra"


def test_closed_form_t0_is_bogoliubov_mean():
    for state in (make_state(0.7 + 0.2j, 0.5, 1.1), make_state(1.0, 0.2, math.pi),
                  make_state(0.4 - 0.9j, 0.8, 0.0)):
        val = km.expectation_a_closed(0.0, state, PARAMS).value
        assert val == pytest.approx(bogoliubov_mean(state), abs=1e-12)


def test_no_squeeze_reduction():
    state = km.SqueezedState(0.8 + 0.3j, 0.0, 0.0, XI)
    for t in np.linspace(0.0, 2.0 * math.pi / PARAMS.w2, 31):
        val = km.expectation_a_closed(float(t), state, PARAMS).value
        ref = state.alpha * np.exp(
            -1j * PARAMS.w1 * t
            - 2j * abs(state.alpha) ** 2 / XI * math.sin(XI * PARAMS.w2 * t)
            * np.exp(-1j * XI * PARAMS.w2 * t))
        assert abs(val - ref) <= 1e-12


def test_singular_time_limit_magnitude():
    state = make_state(1.0, 0.1, math.pi)
    val = km.expectation_a_closed(T_SING, state, PARAMS).value
    assert abs(val) == pytest.approx(10.0 * math.exp(-2.0), abs=1e-8)


def test_smooth_through_singular_time():
    state = make_state(1.0, 0.1, math.pi)
    ts = T_SING + np.linspace(-5e-6, 5e-6, 11)
    vals = [km.expectation_a_closed(float(t), state, PARAMS).value for t in ts]
    scale = abs(vals[5])
    for left, right in zip(vals, vals[1:]):
        assert abs(right - left) <= 1e-4 * scale


def _slope_bound_at_pole(state, params):
    """Bound on |d<a>/dt~| at t~ = pi/2, for 0 < s <= 1.

    Write <a> = alpha * bracket * exp(E - i(w1 t + t~ - Delta_phi/2)) / z^{3/2}
    as in expectation_a_closed.  At c = cos t~ = 0, sigma = 1: n12 = -1, z = 1
    and E = -2|alpha|^2/xi, so |<a>| <= |alpha| e^{-2|alpha|^2/xi} / s, and
    the terms of d log<a>/dt~ are bounded by
      bracket'/bracket: 1/s^2      (|bracket'| <= 1/s, |bracket| >= s)
      phase:            w1/(xi w2) + 1
      -3/2 z'/z:        3/2 (2 + s^2 + 1/s^2)      (n12'/n12 = i(s^2 + 1/s^2))
      E':               2|alpha|^2 |A - s^2 - 1/s^2| / xi <= 2|alpha|^2/(xi s^2)
    since s^2 <= A <= 1/s^2.  Within 1e-8 of the pole the slope moves by a
    relative O(1e-6), which the factor 1.01 at the call covers.
    """
    s, xi, a = state.s, params.xi, abs(state.alpha)
    log_slope = (1.0 / s**2 + params.w1 / (xi * params.w2) + 1.0
                 + 1.5 * (2.0 + s**2 + 1.0 / s**2) + 2.0 * a**2 / (xi * s**2))
    return a * math.exp(-2.0 * a**2 / xi) / s * log_slope


@settings(max_examples=60, deadline=None)
@given(delta=st.floats(1e-12, 1e-8), s=st.floats(0.3, 1.0),
       radius=st.floats(0.0, 1.5), arg=st.floats(-math.pi, math.pi),
       delta_phi=st.floats(-math.pi, math.pi))
def test_closed_form_continuous_through_pole(delta, s, radius, arg, delta_phi):
    # a value on the wrong branch of z^{3/2} on one side jumps by 2|<a>|
    state = make_state(radius * np.exp(1j * arg), s, delta_phi)
    t_pole = (math.pi / 2.0) / (XI * PARAMS.w2)
    dt = delta / (XI * PARAMS.w2)
    left = km.expectation_a_closed(t_pole - dt, state, PARAMS).value
    right = km.expectation_a_closed(t_pole + dt, state, PARAMS).value
    slope = _slope_bound_at_pole(state, PARAMS)
    rounding = 1e-14 * radius / s          # |<a>| <= radius / s at the pole
    assert abs(right - left) <= 1.01 * 2.0 * delta * slope + rounding


def test_half_period_restores_t0_structure():
    t_half = math.pi / (XI * PARAMS.w2)
    for state in (make_state(1.0, 0.2, math.pi), make_state(0.6 + 0.5j, 0.5, 0.0)):
        v0 = km.expectation_a_closed(0.0, state, PARAMS).value
        vh = km.expectation_a_closed(t_half, state, PARAMS).value
        assert vh == pytest.approx(v0 * np.exp(-1j * PARAMS.w1 * t_half), abs=1e-12)


def test_depends_only_on_modulus_s_and_delta_phi():
    # alpha^{-1} <a(t)> is a function of (|alpha|, s, Delta_phi) alone
    thetas = (0.0, 0.8, 2.4)
    refs = None
    for theta in thetas:
        alpha = 0.9 * np.exp(1j * theta)
        state = make_state(alpha, 0.35, 1.7)
        vals = [km.expectation_a_closed(t, state, PARAMS).value / alpha
                for t in (0.4, 1.9, 11.0)]
        if refs is None:
            refs = vals
        else:
            for v, r in zip(vals, refs):
                assert v == pytest.approx(r, abs=1e-12)


def test_number_squeezing_peak_grows():
    t_grid = np.linspace(0.8 * T_SING, 1.2 * T_SING, 101)
    peaks = []
    for s_target in (0.5, 0.2, 0.1):
        state = make_state(1.0, s_target, math.pi)
        peaks.append(max(abs(km.expectation_a_closed(float(t), state, PARAMS).value)
                         for t in t_grid))
    assert peaks[0] < peaks[1] < peaks[2]


def test_phase_squeezing_flat_near_singularity():
    t_grid = np.linspace(0.8 * T_SING, 1.2 * T_SING, 101)
    for s_target in (0.5, 0.2, 0.1):
        state = make_state(1.0, s_target, 0.0)
        ref = abs(km.expectation_a_closed(0.0, state, PARAMS).value)
        near = max(abs(km.expectation_a_closed(float(t), state, PARAMS).value)
                   for t in t_grid)
        assert near <= 0.1 * ref


def test_vanishing_squeeze_factor_limit():
    state = make_state(1.0, 1e-3, math.pi)
    for t in (0.35 * T_SING, 1.6 * T_SING):
        assert abs(km.expectation_a_closed(float(t), state, PARAMS).value) <= 1e-4


# <a(t)> at xi = 1, w2 = 0.1, w1 = 1, t = 1, alpha = 1 by the former grouping
# alpha ... / (z * sqrt(z)), keyed by (tau_abs, tau_phase)
_Z_SQRT_Z_VALUES = {
    (60.0, 0.0): -2.5284986609161878e-104 + 3.6923348520853795e-106j,
    (60.0, math.pi): -2.737417750594745e-106 - 1.874574596840195e-104j,
    (100.0, 0.0): -8.236555391636551e-174 + 1.2027738437738341e-175j,
    (100.0, math.pi): -8.917106930423688e-176 - 6.106405251974475e-174j,
    (118.0, 0.0): -4.431420132433047e-205 + 6.47114718790744e-207j,
    (118.0, math.pi): -4.7975695294493965e-207 - 3.2853597024153437e-205j,
}


def test_closed_form_finite_while_z_to_three_halves_overflows():
    # |z| reaches ~1e308 as s^2 -> exp(-708), so z * sqrt(z) overflows from
    # tau_abs 120 on; dividing by z and then by sqrt(z) stays finite up to
    # the last accepted state and agrees with the former grouping below 120
    params = km.KerrParams(w1=1.0, w2=0.1, xi=1.0)

    def closed(tau_abs, tau_phase):
        state = km.SqueezedState(1.0, tau_abs, tau_phase, 1.0)
        return km.expectation_a_closed(1.0, state, params).value

    for (tau_abs, tau_phase), ref in _Z_SQRT_Z_VALUES.items():
        assert abs(closed(tau_abs, tau_phase) - ref) <= 1e-15 * abs(ref)
    for tau_phase in (0.0, math.pi):
        mags = [abs(closed(tau_abs, tau_phase)) for tau_abs in np.arange(118.0, 177.5)]
        assert all(0.0 < mag < math.inf for mag in mags)
        assert all(np.diff(np.log(mags)) < 0.0)


def _closed_form_40_digits(t, state, params):
    """The closed form of expectation_a_closed at 40 digits, from the same
    float inputs: the state's stored fields, the params and t.  Delta_phi
    is not reduced, as the formula is invariant under Delta_phi + 2 pi."""
    with mpmath.workdps(40):
        alpha = mpmath.mpc(state.alpha)
        xi, w1, w2, t = (mpmath.mpf(x) for x in (params.xi, params.w1, params.w2, t))
        s = mpmath.exp(-2 * mpmath.mpf(state.xi) * mpmath.mpf(state.tau_abs))
        half = (mpmath.mpf(state.tau_phase) - 2 * mpmath.arg(alpha)) / 2
        tt = xi * w2 * t
        c, sigma = mpmath.cos(tt), mpmath.sin(tt)
        n12 = (s**2 * c + 1j * sigma) * (c / s**2 + 1j * sigma)
        z = mpmath.expj(-2 * tt) * n12
        a_coef = mpmath.cos(half) ** 2 / s**2 + s**2 * mpmath.sin(half) ** 2
        exponent = -2j * abs(alpha) ** 2 * sigma * (1j * sigma + a_coef * c) / (xi * n12)
        bracket = mpmath.cos(tt - half) / s + 1j * s * mpmath.sin(tt - half)
        return complex(alpha * bracket * mpmath.exp(exponent - 1j * (w1 * t + tt - half))
                       * z ** mpmath.mpf(-1.5))


@pytest.mark.parametrize("s_target", [1.0, 0.5, 0.2, 0.1])
@pytest.mark.parametrize("delta_phi", [0.0, math.pi])
def test_closed_form_against_40_digits(s_target, delta_phi):
    # over t~ = k pi/48 in [0, pi], the pole t~ = pi/2 included, the worst
    # relative deviation is 8.1e-14 (s = 0.1, Delta_phi = 0, alpha =
    # -1.2 + 0.3i at t~ = pi): the one rounding of the float t~ = xi (w2 t),
    # about eps pi, times d(exponent)/d t~ = 2 |alpha|^2 / (s^2 xi) = 306
    for alpha in (1.0, 0.6 - 0.8j, -1.2 + 0.3j):
        state = make_state(alpha, s_target, delta_phi)
        for k in range(49):
            t = (k * math.pi / 48.0) / (XI * PARAMS.w2)
            ref = _closed_form_40_digits(t, state, PARAMS)
            value = km.expectation_a_closed(t, state, PARAMS).value
            assert abs(value - ref) <= 1e-12 * abs(ref)


def test_xi_mismatch_rejected():
    # one rule for params and Fock space alike: equal floats, no tolerance on
    # a scale parameter (1e-15 against 9e-15 is a factor of nine)
    # the semiclassical expansion used to skip the check
    for state_xi, other_xi in ((1.0, 0.5), (1e-15, 9e-15), (1.0, 1.0 + 2.0**-52)):
        state = make_state(1.0, 0.5, math.pi, xi=state_xi)
        params = km.KerrParams(w1=1.0, w2=0.1, xi=other_xi)
        with pytest.raises(ValueError, match="different xi"):
            km.expectation_a_closed(0.5, state, params)
        with pytest.raises(ValueError, match="different xi"):
            km.expectation_a_quadrature(0.5, state, params)
        with pytest.raises(ValueError, match="different xi"):
            km.expectation_a_semiclassical(0.5, state, params)
        with pytest.raises(ValueError, match="different xi"):
            km.squeezed_vector(state, km.FockSpace(8, other_xi))
        with pytest.raises(ValueError, match="different xi"):
            km.heisenberg_expectation_sweep(km.ObservableIndex(0, 1), [0.5], np.eye(8)[0],
                                            km.FockSpace(8, state_xi), params)


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_quadrature_matches_closed_form_squeezed():
    params = km.KerrParams(w1=1.0, w2=0.2, xi=1.0)
    state = make_state(1.0, 0.5, math.pi)
    closed = km.expectation_a_closed(1.0, state, params).value
    quad = km.expectation_a_quadrature(1.0, state, params, tol=1e-8)
    assert abs(quad - closed) <= 1e-14 * (1.0 + abs(closed))


def test_quadrature_harmonic_coherent():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    state = km.SqueezedState(1.0, 0.0, 0.0, 1.0)
    for t in (0.7, 2.9):
        quad = km.expectation_a_quadrature(t, state, params, tol=1e-9)
        assert abs(quad - np.exp(-1j * params.w1 * t)) <= 1e-14


def test_quadrature_t0_bogoliubov():
    state = make_state(0.8 + 0.1j, 0.4, 1.3)
    quad = km.expectation_a_quadrature(0.0, state, PARAMS, tol=1e-9)
    assert abs(quad - bogoliubov_mean(state)) <= 1e-14


def test_quadrature_tolerance_not_met_reports_achieved():
    state = make_state(1.0, 0.1, math.pi)
    with pytest.raises(ToleranceNotMet) as info:
        km.expectation_a_quadrature(1.1 * T_SING, state, PARAMS, tol=1e-16)
    assert info.value.achieved > 0.0


def test_quadrature_nan_estimate_raises():
    # not err <= tol, so an estimate that is NaN is refused like a large one
    state = make_state(1.0, 0.5, math.pi)
    with mock.patch.object(expectations, "_quadrature_sums",
                           return_value=[[[complex(math.nan), 1j], [1.0, 1j]]] * 2), \
            pytest.raises(ToleranceNotMet) as info:
        km.expectation_a_quadrature(0.4, state, PARAMS, tol=1e-9)
    assert math.isnan(info.value.achieved)


def test_quadrature_node_bound_raises_before_allocating():
    # |tan t~| = 1e7 would need 1.9e9 nodes on the wide axis
    state = make_state(1.0, 0.5, math.pi)
    t = (math.pi / 2.0 - 1e-7) / (XI * PARAMS.w2)
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceNotMet, match="nodes on one axis") as info, \
                mock.patch.object(expectations, "_quadrature_sums",
                                  wraps=_quadrature_sums) as sums:
            km.expectation_a_quadrature(t, state, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one kernel call got both axes and refused them on a count of one axis
    (axes, *_), = [call.args for call in sums.call_args_list]
    assert len(axes) == 2
    assert max(_axis_nodes(step, half_width)
               for step, half_width, *_ in axes) > expectations.MAX_AXIS_NODES
    assert info.value.achieved == math.inf  # no sums were formed
    assert peak < 1_000_000


def _axis_nodes(step, half_width):
    """Nodes of one axis of _quadrature_sums: center + j step, |j| <= half_width / step."""
    return 2 * math.floor(half_width / step) + 1


def test_quadrature_raises_when_its_step_is_too_coarse():
    # at _axis_step's step the sums have converged, so the estimate reads
    # their rounding; with that step doubled, the value's sums sit at
    # _axis_step's own step, where they have converged, but the check sums
    # at twice it read 1.67e-4 at validate expectation's first point, and
    # there is no finer level to retry on
    state = make_state(1.0, 0.5, math.pi)
    t = 0.4
    ref = km.expectation_a_closed(t, state, PARAMS).value

    def quadrature(tol):
        """The value or the ToleranceNotMet, and the step of each axis's sums."""
        built = []

        def sums(axes, *args):
            built.extend(step for step, *_ in axes)
            return _quadrature_sums(axes, *args)

        with mock.patch.object(expectations, "_axis_step",
                               side_effect=lambda *args: 2.0 * _axis_step(*args)), \
                mock.patch.object(expectations, "_quadrature_sums", side_effect=sums):
            try:
                return km.expectation_a_quadrature(t, state, PARAMS, tol=tol), built
            except ToleranceNotMet as exc:
                return exc, built

    exc, built = quadrature(1e-9)
    assert isinstance(exc, ToleranceNotMet)
    est = exc.achieved
    assert 1e-4 <= est <= 1e-3
    # one kernel call with one step per axis, twice the shipped step
    with mock.patch.object(expectations, "_quadrature_sums",
                           wraps=_quadrature_sums) as shipped:
        km.expectation_a_quadrature(t, state, PARAMS, tol=1e-9)
    (axes, *_), = [call.args for call in shipped.call_args_list]
    assert len(built) == 2
    assert built == [2.0 * step for step, *_ in axes]
    # achieved is the very number compared with tol
    value, _ = quadrature(est)
    assert quadrature(math.nextafter(est, 0.0))[0].achieved == est
    # the value is the step-h sum: far closer to the closed form than the
    # estimate, the step-2h sum's distance from it
    assert abs(value - ref) <= 1e-6 * est


@pytest.mark.parametrize("tol", [math.nan, -1e-8, math.inf])
def test_quadrature_rejects_bad_arguments_before_any_node(tol):
    state = make_state(1.0, 0.5, math.pi)
    with mock.patch.object(expectations, "_quadrature_sums",
                           side_effect=AssertionError("nodes built")):
        with pytest.raises(ValueError, match="tol"):
            km.expectation_a_quadrature(1.0, state, PARAMS, tol=tol)


# every grid point passes the quadrature's one check at tol = 1e-8; phase
# squeezing at s = 0.1 puts the wide axis's mass near ybar_0 / s = 21, where
# the chirp phase is about 3e3 rad; its rounding in the kernel leaves up to
# 8.8e-12 there, against 9.9e-14 under number squeezing
@pytest.mark.parametrize("delta_phi, bound", [(math.pi, 1e-12), (0.0, 2e-11)],
                         ids=["number", "phase"])
def test_quadrature_stops_at_level_zero_on_the_acceptance_grid(delta_phi, bound):
    for s_target in (0.1, 0.5, 1.0):
        for radius in (0.5, 1.5):
            state = make_state(radius, s_target, delta_phi)
            for k in range(25):
                if k == 12:
                    continue
                t = (k * math.pi / 24.0) / (XI * PARAMS.w2)
                ref = km.expectation_a_closed(t, state, PARAMS).value
                quad = km.expectation_a_quadrature(t, state, PARAMS, tol=1e-8)
                assert abs(quad - ref) <= bound * (1.0 + abs(ref))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_small_xi_does_not_overflow():
    # without exp(-|ybar|^2 / xi) folded in, the envelope would peak at
    # exp(|ybar|^2 / xi) = exp(800) and overflow; the completed square keeps
    # every envelope factor <= 1
    state = make_state(2.0, 0.5, 0.0, xi=0.01)
    params = km.KerrParams(w1=1.0, w2=0.1, xi=0.01)
    quad = km.expectation_a_quadrature(0.0, state, params)
    assert abs(quad - bogoliubov_mean(state)) <= 1e-13   # reads 2.2e-15


def test_quadrature_finds_mass_far_from_the_mean():
    # on the wide axis the mass sits at ybar_0 / s = 10.6, outside the disk
    # |y| <= |xbar| + 8 sqrt(xi) max(1, 1/s) = 6.1 around the mean: the
    # domain has to follow the mass
    state = make_state(1.5, 0.2, 0.0, xi=0.01)
    params = km.KerrParams(w1=1.0, w2=0.1, xi=0.01)
    quad = km.expectation_a_quadrature(0.0, state, params)
    assert abs(quad - bogoliubov_mean(state)) <= 5e-14   # reads 8.9e-16


@settings(max_examples=50, deadline=None)
@given(s=st.floats(0.1, 1.0), radius=st.floats(0.0, 1.5),
       arg=st.floats(-math.pi, math.pi), delta_phi=st.floats(-math.pi, math.pi),
       xi=st.floats(0.01, 2.0),
       u=st.floats(-11.0 * math.pi / 24.0, 11.0 * math.pi / 24.0), turns=st.integers(-2, 2))
@example(s=0.5, radius=2.0, arg=0.0, delta_phi=0.0, xi=0.01, u=0.0, turns=0)
@example(s=0.2, radius=1.5, arg=0.0, delta_phi=0.0, xi=0.01, u=0.0, turns=0)
@example(s=0.1, radius=1.5, arg=0.0, delta_phi=0.0, xi=0.01, u=11.0 * math.pi / 24.0,
         turns=0)                 # the strongest chirp, under phase squeezing:
                                  # 1.0e-10, the rounding floor at xi = 0.01
def test_quadrature_matches_closed_form_property(s, radius, arg, delta_phi, xi, u, turns):
    # t~ = u + turns pi keeps |cos t~| >= cos(11 pi/24) on every branch
    params = km.KerrParams(w1=1.0, w2=0.1, xi=xi)
    state = make_state(radius * np.exp(1j * arg), s, delta_phi, xi=xi)
    t = (u + turns * math.pi) / (xi * params.w2)
    closed = km.expectation_a_closed(t, state, params).value
    quad = km.expectation_a_quadrature(t, state, params)
    assert abs(quad - closed) <= 1e-9 * (1.0 + abs(closed))


# s = 0.1 at t~ = 11 pi/24: 35529 nodes on the wide axis,
# a chirp phase of about 2.8e4 rad at its ends
STRONG_STATE = make_state(1.0, 0.1, math.pi)
STRONG_T = (11.0 * math.pi / 24.0) / (XI * PARAMS.w2)


def test_quadrature_window_truncates_below_rounding():
    # the envelope at the window ends is at most half an ulp of its peak
    # (exp taken to 40 digits: in floats the rounding of R^2 and of exp lands
    # a few ulps above eps / 2, although the exact value is below it), so
    # widening the window to R = 8 at the same step moves no value beyond
    # rounding; the node pin fails a wider window (R = 8 gives 4.69e4 on the
    # strong wide axis, R = 6.06 gives 35529)
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        assert ((-decimal.Decimal(expectations.RADIUS_SCALE) ** 2).exp()
                <= decimal.Decimal(sys.float_info.epsilon) / 2)
    widen = 8.0 / expectations.RADIUS_SCALE
    points = [(STRONG_STATE, STRONG_T),                     # number squeezing
              (make_state(1.5, 0.1, 0.0), STRONG_T),        # phase squeezing
              (make_state(0.7 + 0.2j, 0.5, 1.1), 13.0)]     # mild
    for state, t in points:
        with mock.patch.object(expectations, "_quadrature_sums",
                               wraps=_quadrature_sums) as sums:
            quad = km.expectation_a_quadrature(t, state, PARAMS)
        with mock.patch.object(expectations, "_quadrature_sums",
                               side_effect=lambda axes, *args: _quadrature_sums(
                                   [(step, widen * half_width, *rest)
                                    for step, half_width, *rest in axes], *args)):
            wide = km.expectation_a_quadrature(t, state, PARAMS)
        assert abs(quad - wide) <= 1e-14 * (1.0 + abs(wide))
        if state is STRONG_STATE:
            (axes, *_), = [call.args for call in sums.call_args_list]
            nodes = max(_axis_nodes(step, half_width) for step, half_width, *_ in axes)
            assert nodes <= 36_000


def test_quadrature_peak_memory_is_bounded():
    # the nodes are summed a chunk at a time
    tracemalloc.start()
    try:
        km.expectation_a_quadrature(STRONG_T, STRONG_STATE, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_quadrature_matches_closed_form_strong_squeeze_near_pole():
    closed = km.expectation_a_closed(STRONG_T, STRONG_STATE, PARAMS).value
    quad = km.expectation_a_quadrature(STRONG_T, STRONG_STATE, PARAMS)
    assert abs(quad - closed) <= 1e-12 * (1.0 + abs(closed))


def _complex_exp_sums(step, n, scale, center, big_t, xi):
    """The step-h and step-2h axis sums on the nodes center + j step,
    |j| <= n, with one complex exp per node, and sum h |f| (1 + |y|)."""
    j = np.arange(-n, n + 1)
    y = center + j * step
    f = np.exp((-scale * (y - center)**2 - 1j * big_t * y**2) / xi)
    even = j % 2 == 0
    pairs = [[weight * np.sum(f[nodes]), weight * np.sum(y[nodes] * f[nodes])]
             for weight, nodes in ((step, slice(None)), (2.0 * step, even))]
    return pairs, step * np.sum(np.abs(f) * (1.0 + np.abs(y)))


def _weighted_sums(axes, big_t, xi):
    """_quadrature_sums with the trapezoidal weights applied: each axis's
    step on every node, twice it on the even j."""
    return [[[weight * value for value in pair]
             for weight, pair in zip((step, 2.0 * step), sums)]
            for (step, *_), sums in zip(axes, _quadrature_sums(axes, big_t, xi))]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(0, 3 * _CHUNK // 2), step=st.floats(1e-3, 1.0),
       center=st.floats(-20.0, 20.0), scale=st.floats(0.01, 100.0),
       big_t=st.floats(-10.0, 10.0), xi=st.floats(0.5, 2.0))
@example(n=_CHUNK // 2, step=1e-3, center=0.0, scale=0.01, big_t=10.0,
         xi=0.5)                        # two chunks, the second one node
@example(n=_CHUNK // 2 + 1, step=1e-3, center=0.0, scale=0.01, big_t=10.0,
         xi=0.5)                        # n odd: the even j start at offset 1
@example(n=3 * _CHUNK // 2, step=5e-3, center=80.0, scale=0.01,
         big_t=math.tan(11.0 * math.pi / 24.0), xi=1.0)  # |T| y^2 up to 5e4 rad
def test_axis_sums_match_complex_exp_reference(n, step, center, scale, big_t, xi):
    # half a step past n keeps floor(half_width / step) = n under rounding
    (sums,) = _weighted_sums([(step, (n + 0.5) * step, scale, center)], big_t, xi)
    refs, bound = _complex_exp_sums(step, n, scale, center, big_t, xi)
    assert len(sums) == 2
    # the returned step-h pair, then the step-2h check on the even j
    for (sum0, sum1), (ref0, ref1) in zip(sums, refs):
        assert abs(sum0 - ref0) <= 1e-13 * bound
        assert abs(sum1 - ref1) <= 1e-13 * bound


# an axis has an odd node count and a pass an even one, so axis 0 cannot end
# exactly at a pass boundary; it can end one column short of it, with the
# first node of axis 1 alone in the pass's last column
@settings(max_examples=40, deadline=None)
@given(n=st.tuples(st.integers(0, 3 * _CHUNK // 2), st.integers(0, 3 * _CHUNK // 2)),
       step=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
       center=st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
       scale=st.tuples(st.floats(0.01, 100.0), st.floats(0.01, 100.0)),
       big_t=st.floats(-10.0, 10.0), xi=st.floats(0.5, 2.0))
@example(n=(_CHUNK // 2 - 1, 40), step=(1e-3, 0.05), center=(3.0, -5.0),
         scale=(0.01, 4.0), big_t=10.0, xi=0.5)    # axis 1's first node ends pass 0
@example(n=(_CHUNK // 2, 40), step=(1e-3, 0.05), center=(3.0, -5.0),
         scale=(0.01, 4.0), big_t=10.0, xi=0.5)    # axis 0's last node opens pass 1
@example(n=(40, 3 * _CHUNK // 2), step=(0.05, 5e-3), center=(-5.0, 20.0),
         scale=(4.0, 0.01), big_t=-3.0, xi=1.0)    # axis 1 starts mid-pass
@example(n=(0, 300), step=(0.1, 0.02), center=(2.0, -1.0),
         scale=(0.5, 9.0), big_t=1.5, xi=1.0)      # axis 0 only its centre
def test_quadrature_sums_keep_the_axes_apart(n, step, center, scale, big_t, xi):
    # one call, both axes through the same passes; each axis's pairs must
    # match its own reference, so a pass that mixes up the axes' centres,
    # scales, node offsets or parities fails
    axes = [(h, (k + 0.5) * h, a, c) for k, h, a, c in zip(n, step, scale, center)]
    for (h, _, a, c), k, sums in zip(axes, n, _weighted_sums(axes, big_t, xi)):
        refs, bound = _complex_exp_sums(h, k, a, c, big_t, xi)
        for (sum0, sum1), (ref0, ref1) in zip(sums, refs):
            assert abs(sum0 - ref0) <= 1e-13 * bound
            assert abs(sum1 - ref1) <= 1e-13 * bound


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(0.01, 100.0), center=st.floats(-25.0, 25.0),
       big_t=st.floats(-10.0, 10.0), xi=st.floats(0.01, 2.0))
@example(scale=0.01, center=25.0, big_t=10.0, xi=0.01)   # 1.3e5 nodes, 1e7 rad
@example(scale=100.0, center=0.0, big_t=0.0, xi=2.0)     # no chirp at all
def test_axis_step_sums_match_a_four_times_finer_step(scale, center, big_t, xi):
    # the step puts the first alias of the trapezoidal sum where |f^| is
    # eps / 2 of its peak, so a finer step moves the sums only by rounding,
    # which grows with the chirp phase |T| y^2 / xi at the window's far end
    half_width = expectations.RADIUS_SCALE * math.sqrt(xi / scale)
    step = _axis_step(scale, center, big_t, xi)
    ((sum0, sum1), _), ((ref0, ref1), _) = _weighted_sums(
        [(step, half_width, scale, center), (step / 4.0, half_width, scale, center)],
        big_t, xi)
    mass = math.sqrt(math.pi * xi / scale)          # the integral of |f|
    reach = abs(center) + half_width
    bound = 1e-14 * mass * (1.0 + reach) * (1.0 + abs(big_t) * reach**2 / xi)
    assert abs(sum0 - ref0) <= bound
    assert abs(sum1 - ref1) <= bound


def test_axis_sums_odd_moment_cancels_on_a_window_centred_at_zero():
    # the nodes j h are exactly odd about 0, so with the envelope centred
    # there f is even node for node and sum h y f cancels to the rounding of
    # the sum itself; nodes counted from the window's lower end would carry
    # the rounding of each y, magnified by the chirp phase, into it
    scale, big_t, xi = 0.01, math.tan(11.0 * math.pi / 24.0), 1.0
    half_width = expectations.RADIUS_SCALE * math.sqrt(xi / scale)
    step = _axis_step(scale, 0.0, big_t, xi) / 2.0
    n = math.floor(half_width / step)
    y = np.arange(-n, n + 1) * step
    mass = step * np.sum(np.abs(y) * np.exp(-scale * y * y / xi))
    (pairs,) = _weighted_sums([(step, half_width, scale, 0.0)], big_t, xi)
    for _, sum1 in pairs:
        assert abs(sum1) <= 1e-15 * mass


# ---------------------------------------------------------------------------
# semiclassical expansion of the expectation value
# ---------------------------------------------------------------------------

def test_semiclassical_expectation_t0_unsqueezed():
    state = km.SqueezedState(0.8 - 0.2j, 0.0, 0.0, XI)
    assert km.expectation_a_semiclassical(0.0, state, PARAMS) == pytest.approx(
        state.alpha)


def test_semiclassical_expectation_classical_limit():
    # tau = 0, xi -> 0: the leading term is the classical flow from xbar
    for xi in (1e-2, 1e-3):
        params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
        state = km.SqueezedState(0.9 + 0.2j, 0.0, 0.0, xi)
        xbar = PhasePoint(math.sqrt(2.0) * state.alpha.real, math.sqrt(2.0) * state.alpha.imag)
        a_cl = km.classical_amplitude(0.8, xbar, params)
        val = km.expectation_a_semiclassical(0.8, state, params)
        assert abs(val - a_cl) <= 10.0 * xi


def test_semiclassical_expectation_convergence():
    alpha, tau_abs, dphi = 1.0, 0.15, 1.2
    for t in (0.05, 0.3):
        residuals = []
        for xi in (2e-2, 1e-2, 5e-3):
            params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
            state = km.SqueezedState(alpha, tau_abs,
                                     dphi + 2 * np.angle(alpha), xi)
            exact = km.expectation_a_closed(t, state, params).value
            residuals.append(abs(exact - km.expectation_a_semiclassical(t, state, params)))
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5
        assert 3.5 <= residuals[1] / residuals[2] <= 4.5


# ---------------------------------------------------------------------------
# coherent matrix elements
# ---------------------------------------------------------------------------

def test_matrix_element_overlap_case():
    alpha, beta = 0.9 + 0.1j, -0.4 + 0.6j
    val = km.matrix_element(km.ObservableIndex(0, 0), 3.7, alpha, beta, PARAMS)
    # <alpha|beta> = exp[-(|alpha|^2/2 + |beta|^2/2 - alpha* beta)/xi] at every t
    overlap = np.exp((-0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2
                      + np.conj(alpha) * beta) / XI)
    assert val == pytest.approx(overlap, abs=1e-14)


def test_matrix_element_eigenvalue_case():
    alpha = 0.7 - 0.5j
    val = km.matrix_element(km.ObservableIndex(0, 1), 0.0, alpha, alpha, PARAMS)
    assert val == pytest.approx(alpha, abs=1e-14)


def test_matrix_element_finite_at_singular_times():
    idx = km.ObservableIndex(0, 2)
    for t in (T_SING, T_SING / 2.0, 3.0 * T_SING):
        val = km.matrix_element(idx, t, 1.0, 0.5 + 0.3j, PARAMS)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_huge_w2_at_t0_gives_the_initial_values():
    # xi w2 overflows at w2 = 1e308; every t~ takes w2 * t = 0 first
    params = km.KerrParams(1.0, 1e308, 2.0)
    alpha, beta = 0.9 + 0.1j, -0.4 + 0.6j
    slow = km.KerrParams(1.0, 0.1, 2.0)
    state = km.SqueezedState(alpha, 0.3, 0.7, params.xi)
    assert km.expectation_a_closed(0.0, state, params) == \
        km.expectation_a_closed(0.0, state, slow)
    for s in range(4):
        for m in range(4):
            idx = km.ObservableIndex(s, m)
            assert km.matrix_element(idx, 0.0, alpha, beta, params) == \
                km.matrix_element(idx, 0.0, alpha, beta, slow)


def test_closed_form_raises_where_its_phase_overflows():
    # w1 t = 1e309 is inf: a typed error, not nan+nanj
    params = km.KerrParams(1e308, 0.1, 1.0)
    state = km.SqueezedState(0.9 + 0.1j, 0.3, 0.7, params.xi)
    with pytest.raises(OverflowError, match="w1 t"):
        km.expectation_a_closed(10.0, state, params)
    assert km.expectation_a_closed(0.0, state, params) == \
        km.expectation_a_closed(0.0, state, km.KerrParams(1.0, 0.1, 1.0))


def test_matrix_element_phase_follows_kerr_angle_rule():
    # (m - s) w1 t is not finite at w1 = 1e308, t = 10: a typed error, not
    # nan+nanj; for s = m it is 0, so the constant of motion keeps its t = 0 value
    params = km.KerrParams(1e308, 0.1, 1.0)
    alpha, beta = 0.9 + 0.1j, -0.4 + 0.6j
    for s, m in ((0, 1), (2, 0), (1, 3)):
        with pytest.raises(OverflowError, match="w1 t"):
            km.matrix_element(km.ObservableIndex(s, m), 10.0, alpha, beta, params)
    for n in range(3):
        idx = km.ObservableIndex(n, n)
        assert km.matrix_element(idx, 10.0, alpha, beta, params) == \
            km.matrix_element(idx, 0.0, alpha, beta, params)
