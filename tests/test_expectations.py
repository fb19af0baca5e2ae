"""Closed-form expectation values, quadrature route and matrix elements."""

import decimal
import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kerrmoyal as km
from kerrmoyal import ToleranceNotMet
from kerrmoyal import expectations
from kerrmoyal.expectations import _CHUNK, _axis_step, _axis_sums, branch_winding
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


def test_xi_mismatch_rejected():
    # one rule for params and Fock space alike: equal floats, no tolerance on
    # a scale parameter (1e-15 against 9e-15 is a factor of nine)
    for state_xi, other_xi in ((1.0, 0.5), (1e-15, 9e-15), (1.0, 1.0 + 2.0**-52)):
        state = make_state(1.0, 0.5, math.pi, xi=state_xi)
        params = km.KerrParams(w1=1.0, w2=0.1, xi=other_xi)
        with pytest.raises(ValueError, match="different xi"):
            km.expectation_a_closed(0.5, state, params)
        with pytest.raises(ValueError, match="different xi"):
            km.expectation_a_quadrature(0.5, state, params)
        with pytest.raises(ValueError, match="different xi"):
            km.squeezed_vector(state, km.FockSpace(8, other_xi))


# ---------------------------------------------------------------------------
# quadrature route
# ---------------------------------------------------------------------------

def test_quadrature_matches_closed_form_squeezed():
    params = km.KerrParams(w1=1.0, w2=0.2, xi=1.0)
    state = make_state(1.0, 0.5, math.pi)
    closed = km.expectation_a_closed(1.0, state, params).value
    quad = km.expectation_a_quadrature(1.0, state, params, tol=1e-8)
    assert abs(quad - closed) <= 1e-6 * (1.0 + abs(closed))


def test_quadrature_harmonic_coherent():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    state = km.SqueezedState(1.0, 0.0, 0.0, 1.0)
    for t in (0.7, 2.9):
        quad = km.expectation_a_quadrature(t, state, params, tol=1e-9)
        assert abs(quad - np.exp(-1j * params.w1 * t)) <= 1e-8


def test_quadrature_t0_bogoliubov():
    state = make_state(0.8 + 0.1j, 0.4, 1.3)
    quad = km.expectation_a_quadrature(0.0, state, PARAMS, tol=1e-9)
    assert abs(quad - bogoliubov_mean(state)) <= 1e-8


def test_quadrature_tolerance_not_met_reports_achieved():
    state = make_state(1.0, 0.1, math.pi)
    with mock.patch.object(expectations, "MAX_REFINE", 1), \
            pytest.raises(ToleranceNotMet) as info:
        km.expectation_a_quadrature(1.1 * T_SING, state, PARAMS, tol=1e-16)
    assert info.value.achieved > 0.0


def test_quadrature_node_bound_raises_before_allocating():
    # |tan t~| = 1e7 would need 1.9e9 nodes on the wide axis at refine level 0
    state = make_state(1.0, 0.5, math.pi)
    t = (math.pi / 2.0 - 1e-7) / (XI * PARAMS.w2)
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceNotMet, match="nodes on one axis") as info:
            km.expectation_a_quadrature(t, state, PARAMS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.achieved == math.inf  # no refine level completed
    assert peak < 1_000_000


def _axis_nodes(step, half_width):
    """Nodes of one _axis_sums call: center + j step, |j| <= half_width / step."""
    return 2 * math.floor(half_width / step) + 1


def test_quadrature_refines_when_the_embedded_estimate_misses_tol():
    # at _axis_step's step the sums have converged, so level 0's estimate
    # sits at rounding; with that step doubled, level 0 checks its sums
    # against twice the shipped step and reads 1.6e-2 here, and level 1,
    # whose steps are the shipped level-0 steps, reads 3e-15
    state = make_state(0.7 + 0.2j, 0.5, 1.1)
    t, tol = 13.0, 1e-8
    ref = km.expectation_a_closed(t, state, PARAMS).value

    def quadrature(max_refine, tol, max_nodes=expectations.MAX_AXIS_NODES):
        """The value or the ToleranceNotMet, and (step, nodes) per axis built."""
        built = []

        def sums(step, half_width, *args):
            built.append((step, _axis_nodes(step, half_width)))
            return _axis_sums(step, half_width, *args)

        with mock.patch.object(expectations, "_axis_step",
                               side_effect=lambda *args: 2.0 * _axis_step(*args)), \
                mock.patch.object(expectations, "MAX_REFINE", max_refine), \
                mock.patch.object(expectations, "MAX_AXIS_NODES", max_nodes), \
                mock.patch.object(expectations, "_axis_sums", side_effect=sums):
            try:
                return km.expectation_a_quadrature(t, state, PARAMS, tol=tol), built
            except ToleranceNotMet as exc:
                return exc, built

    quad, built = quadrature(1, tol)
    steps = [step for step, _ in built]
    assert len(steps) == 4 and steps[2:] == [0.5 * step for step in steps[:2]]
    assert abs(quad - ref) <= 1e-12 * (1.0 + abs(ref))
    # achieved is the last level's estimate, the very number compared with tol
    est0, est1 = (quadrature(r, 0.0)[0].achieved for r in (0, 1))
    assert est1 <= tol < est0
    # the value is the step-h sum: at level 0 it is far closer to the closed
    # form than the estimate, the step-2h sum's distance from it
    assert abs(quadrature(0, est0)[0] - ref) <= 1e-6 * est0
    assert quadrature(0, tol)[0].achieved == est0
    assert quadrature(1, est1)[0] == quad
    assert quadrature(1, math.nextafter(est1, 0.0))[0].achieved == est1
    # a node bound hit at level 1 reports level 0's estimate, at level 0 inf
    level0 = max(nodes for _, nodes in built[:2])
    assert level0 < max(nodes for _, nodes in built[2:])
    assert quadrature(1, tol, max_nodes=level0)[0].achieved == est0
    exc, built = quadrature(1, tol, max_nodes=level0 - 1)
    assert "nodes on one axis" in str(exc) and exc.achieved == math.inf
    assert len(built) <= 2


@pytest.mark.parametrize("tol", [math.nan, -1e-8, math.inf])
def test_quadrature_rejects_bad_arguments_before_any_node(tol):
    state = make_state(1.0, 0.5, math.pi)
    with mock.patch.object(expectations, "_axis_sums",
                           side_effect=AssertionError("nodes built")):
        with pytest.raises(ValueError, match="tol"):
            km.expectation_a_quadrature(1.0, state, PARAMS, tol=tol)


# phase squeezing at s = 0.1 puts the wide axis's mass near ybar_0 / s = 21,
# where the chirp phase is about 3e3 rad; its rounding in the kernel leaves
# up to 8.8e-12 there, against 9.9e-14 under number squeezing
@pytest.mark.parametrize("delta_phi, bound", [(math.pi, 1e-12), (0.0, 2e-11)],
                         ids=["number", "phase"])
@mock.patch.object(expectations, "MAX_REFINE", 0)
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
    assert abs(quad - bogoliubov_mean(state)) <= 1e-8


def test_quadrature_finds_mass_far_from_the_mean():
    # on the wide axis the mass sits at ybar_0 / s = 10.6, outside the disk
    # |y| <= |xbar| + 8 sqrt(xi) max(1, 1/s) = 6.1 around the mean: the
    # domain has to follow the mass
    state = make_state(1.5, 0.2, 0.0, xi=0.01)
    params = km.KerrParams(w1=1.0, w2=0.1, xi=0.01)
    quad = km.expectation_a_quadrature(0.0, state, params)
    assert abs(quad - bogoliubov_mean(state)) <= 1e-8


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


# s = 0.1 at t~ = 11 pi/24: 35529 nodes on the wide axis at refine level 0,
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
        with mock.patch.object(expectations, "_axis_sums",
                               wraps=_axis_sums) as sums:
            quad = km.expectation_a_quadrature(t, state, PARAMS)
        with mock.patch.object(expectations, "_axis_sums",
                               side_effect=lambda step, half_width, *args:
                               _axis_sums(step, widen * half_width, *args)):
            wide = km.expectation_a_quadrature(t, state, PARAMS)
        assert abs(quad - wide) <= 1e-14 * (1.0 + abs(wide))
        if state is STRONG_STATE:
            nodes = max(_axis_nodes(*call.args[:2]) for call in sums.call_args_list)
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
    sums = _axis_sums(step, (n + 0.5) * step, scale, center, big_t, xi)
    refs, bound = _complex_exp_sums(step, n, scale, center, big_t, xi)
    assert len(sums) == 2
    # the returned step-h pair, then the step-2h check on the even j
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
    (sum0, sum1), _ = _axis_sums(step, half_width, scale, center, big_t, xi)
    (ref0, ref1), _ = _axis_sums(step / 4.0, half_width, scale, center, big_t, xi)
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
    for _, sum1 in _axis_sums(step, half_width, scale, 0.0, big_t, xi):
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
        xbar = state.mean_x
        a_cl = km.classical_amplitude(0.8, PhasePoint(xbar[0], xbar[1]), params)
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
    assert val == pytest.approx(km.coherent_overlap(alpha, beta, XI), abs=1e-14)


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
