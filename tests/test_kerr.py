"""Closed-form Moyal solutions, classical flow and semiclassical structure."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kerrmoyal as km
import kerrmoyal.kerr as kerr_module
import kerrmoyal.validate as validate
from kerrmoyal import IndexCapExceeded, SingularTime
from kerrmoyal.kerr import INDEX_CAP, w_coefficient
from kerrmoyal.phase_space import PhasePoint

import mp_reference

PARAMS = km.KerrParams(w1=1.0, w2=1.0, xi=1.0)

RNG = np.random.RandomState(41)
POINTS = [PhasePoint(q, p) for q, p in RNG.uniform(-1.4, 1.4, size=(6, 2))]


# ---------------------------------------------------------------------------
# static symbols
# ---------------------------------------------------------------------------

def _initial_symbol_bruteforce(s, m, xi, z):
    # apply (zbar - xi d/dz)/sqrt(2) s times to (z/sqrt(2))^m on a dict poly
    terms = {(m, 0): 2.0 ** (-m / 2.0)}  # (z power, zbar power) -> coeff
    for _ in range(s):
        new = {}
        for (k, l), c in terms.items():
            new[(k, l + 1)] = new.get((k, l + 1), 0.0) + c / math.sqrt(2.0)
            if k > 0:
                new[(k - 1, l)] = new.get((k - 1, l), 0.0) - xi * k * c / math.sqrt(2.0)
        terms = new
    zbar = np.conj(z)
    return sum(c * z**k * zbar**l for (k, l), c in terms.items())


def test_initial_symbol_examples():
    xi = 1.0
    pt = PhasePoint(0.8, 0.3)
    assert km.initial_symbol(km.ObservableIndex(0, 1), xi, pt) == pytest.approx(
        pt.z / math.sqrt(2.0))
    assert km.initial_symbol(km.ObservableIndex(1, 1), xi, pt) == pytest.approx(
        0.5 * pt.x2 - 0.5 * xi)
    # brute-force expansion of (zbar - xi dz)^2 (z/sqrt 2)^2 at z = 0 gives 1/2
    origin = PhasePoint(0.0, 0.0)
    val = km.initial_symbol(km.ObservableIndex(2, 2), xi, origin)
    assert val == pytest.approx(0.5, abs=1e-14)
    assert val == pytest.approx(_initial_symbol_bruteforce(2, 2, xi, 0.0), abs=1e-14)


def test_initial_symbol_matches_bruteforce():
    xi = 0.7
    for s in range(4):
        for m in range(4):
            for pt in POINTS[:3]:
                lib = km.initial_symbol(km.ObservableIndex(s, m), xi, pt)
                ref = _initial_symbol_bruteforce(s, m, xi, pt.z)
                assert lib == pytest.approx(ref, abs=1e-12)


def test_w_coefficient_values():
    assert w_coefficient(2, 2, 2) == 2.0
    assert w_coefficient(1, 1, 1) == 1.0
    assert w_coefficient(3, 2, 1) == 6.0  # 2! 3! / (1! 1! 2!)
    # large indices agree with the quotient of factorials
    exact = (math.factorial(25) * math.factorial(24)
             / (math.factorial(10) * math.factorial(14) * math.factorial(15)))
    assert w_coefficient(24, 25, 10) == pytest.approx(exact, rel=1e-12)


def test_w_coefficient_is_the_exact_integer_rounded_once():
    f = math.factorial
    for s in range(INDEX_CAP + 1):
        for m in range(INDEX_CAP + 1):
            for l in range(min(s, m) + 1):
                exact = Fraction(f(s) * f(m), f(l) * f(s - l) * f(m - l))
                assert w_coefficient(m, s, l) == float(exact), (m, s, l)


def test_index_cap():
    with pytest.raises(IndexCapExceeded):
        km.ObservableIndex(31, 0)
    with pytest.raises(IndexCapExceeded):
        km.ObservableIndex(-1, 0)
    # integrality is checked when the index is built, not deep inside the
    # symbol; an integer of another type is stored as a Python int
    for field, args in (("s", (1.0, 2)), ("m", (0, 0.5)), ("s", ("1", 2))):
        with pytest.raises(ValueError, match=f"index {field} must be an integer"):
            km.ObservableIndex(*args)
    idx = km.ObservableIndex(np.int64(1), np.int32(2))
    assert type(idx.s) is int and type(idx.m) is int
    assert idx == km.ObservableIndex(1, 2)
    keys = km.moyal_solution_symbolic(idx, 0.3, PARAMS).poly.coeffs
    assert all(type(k) is int for key in keys for k in key)


# ---------------------------------------------------------------------------
# Moyal solution
# ---------------------------------------------------------------------------

def test_moyal_solution_identity_operator():
    idx = km.ObservableIndex(0, 0)
    for t in (0.0, 0.7, 13.2):
        for pt in POINTS[:3]:
            assert km.moyal_solution_symbolic(idx, t, PARAMS)(pt) == pytest.approx(1.0)


def test_moyal_solution_number_is_constant():
    idx = km.ObservableIndex(1, 1)
    pt = PhasePoint(1.2, -0.3)
    expected = 0.5 * pt.x2 - 0.5 * PARAMS.xi
    for t in (0.0, 0.9, 4.2, math.pi / 2):
        assert km.moyal_solution_symbolic(idx, t, PARAMS)(pt) == pytest.approx(expected)


# With PARAMS, t = pi/2 puts t~ = pi/2 for (s, m) = (0, 1), for the
# ansatz with m = 1 and for Theta_01 under the squeezed-state quadrature.
T_POLE = math.pi / 2.0
POLE_PT = PhasePoint(1.0, 0.0)
IDX_01 = km.ObservableIndex(0, 1)
POLE_CALLS = {
    "moyal_solution_symbolic": lambda: km.moyal_solution_symbolic(IDX_01, T_POLE, PARAMS),
    "quantum_phase": lambda: km.quantum_phase(POLE_PT, T_POLE, PARAMS),
    "quantum_trajectory": lambda: km.quantum_trajectory(T_POLE, POLE_PT, PARAMS),
    "expectation_a_quadrature": lambda: km.expectation_a_quadrature(
        T_POLE, km.SqueezedState(1.0, 0.3, math.pi, PARAMS.xi), PARAMS),
}


@pytest.mark.parametrize("name", POLE_CALLS)
def test_every_pole_raises_singular_time(name):
    with pytest.raises(SingularTime, match=r"t~ = 1\.5707963267948966"):
        POLE_CALLS[name]()


def test_diagonal_index_has_no_pole():
    # t~ = (m - s) xi w2 t is exactly 0 for s = m
    idx = km.ObservableIndex(2, 2)
    for t in (T_POLE, 3.0 * T_POLE):
        assert km.moyal_solution_symbolic(idx, t, PARAMS)(POLE_PT) == pytest.approx(
            km.initial_symbol(idx, PARAMS.xi, POLE_PT))


def test_moyal_solution_t0_reduction():
    for s in range(5):
        for m in range(5):
            idx = km.ObservableIndex(s, m)
            for pt in POINTS[:3]:
                v0 = km.moyal_solution_symbolic(idx, 0.0, PARAMS)(pt)
                assert abs(v0 - km.initial_symbol(idx, PARAMS.xi, pt)) <= 1e-12


def _perturb_w_coefficient(monkeypatch):
    """Scale every l >= 1 coefficient of kerr.w_coefficient by 1 + 1e-9."""
    exact = kerr_module.w_coefficient

    def perturbed(m, s, l):
        return exact(m, s, l) * (1.0 + 1e-9 if l >= 1 else 1.0)

    monkeypatch.setattr(kerr_module, "w_coefficient", perturbed)


def test_t0_reduction_does_not_share_w_coefficient(monkeypatch):
    # initial_symbol forms W itself, so a fault in w_coefficient reaches only
    # the symbol and the moyal suite's t = 0 check sees it
    _perturb_w_coefficient(monkeypatch)
    report = validate.validate_moyal(km.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    check = {c.name: c for c in report.checks}["t0_reduction"]
    assert check.max_deviation > check.tolerance == 1e-14


def test_pairing_vs_fock_sees_a_w_coefficient_fault(monkeypatch):
    # the expectation suite pairs (1,2) and (2,2), whose symbols have l >= 1
    # terms, against the Fock sweep: it reads 8.1e-10 here, and 5.1e-16
    # without the fault
    _perturb_w_coefficient(monkeypatch)
    report = validate.validate_expectation(km.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    check = {c.name: c for c in report.checks}["pairing_vs_fock"]
    assert check.max_deviation > check.tolerance == 1e-13


def test_t0_reduction_at_huge_w1():
    # (m - s) * w1 overflows at w1 = 1e308; the phase takes w1 * t = 0 first
    params = km.KerrParams(1e308, 0.1, 1.0)
    pt = PhasePoint(0.5, 0.3)
    assert km.initial_symbol(km.ObservableIndex(0, 2), params.xi, pt) == pytest.approx(
        0.08 + 0.15j, abs=1e-15)
    for s in range(4):
        for m in range(4):
            idx = km.ObservableIndex(s, m)
            ref = km.initial_symbol(idx, params.xi, pt)
            assert abs(km.moyal_solution_symbolic(idx, 0.0, params)(pt) - ref) <= 1e-15


def test_t0_reduction_at_huge_w2():
    # (m - s) xi w2 overflows at w2 = 1e308; t~ takes w2 * t = 0 first
    pt = PhasePoint(0.5, 0.3)
    for xi in (1.0, 2.0):
        params = km.KerrParams(1.0, 1e308, xi)
        for s in range(4):
            for m in range(4):
                idx = km.ObservableIndex(s, m)
                ref = km.initial_symbol(idx, xi, pt)
                assert abs(km.moyal_solution_symbolic(idx, 0.0, params)(pt) - ref) <= 1e-15
        assert km.quantum_phase(pt, 0.0, params) == 0.0
        # at x^2 = 2.34 x^2 w2 overflows too; the classical angle takes w2 t first
        for x in (pt, PhasePoint(1.5, 0.3)):
            assert km.quantum_trajectory(0.0, x, params) == x.z / math.sqrt(2.0)


def test_t_tilde_overflow_raises():
    # xi (w2 t) = 2e308 is inf: a typed error naming t~, not a math domain error
    params = km.KerrParams(1.0, 1e308, 2.0)
    with pytest.raises(OverflowError, match="t~"):
        km.moyal_solution_symbolic(km.ObservableIndex(0, 1), 1.0, params)


def test_gaussian_form_overflow_raises():
    # t~ = 2 is finite but tan(t~)/xi = -2.2e308 is not: a typed error, not a
    # symbol whose infinite form evaluates to NaN
    params = km.KerrParams(1.0, 1e308, 1e-308)
    with pytest.raises(OverflowError, match="tan"):
        km.moyal_solution_symbolic(km.ObservableIndex(0, 2), 1.0, params)


def test_non_finite_phase_gives_nan_coefficients():
    # (m - s) w1 t = 2e308 is not finite: the phase is NaN, not an error, so
    # the symbol's values are NaN and callers report them as non-finite
    params = km.KerrParams(1e308, 0.1, 1.0)
    theta = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), 2.0, params)
    coeffs = list(theta.poly.coeffs.values())
    assert coeffs and all(math.isnan(c.real) and math.isnan(c.imag) for c in coeffs)


def test_constant_of_motion_at_huge_w2_t():
    # s = m: t~ = 0 however large w2 t is, so the symbol keeps its t = 0 value
    # where w2 t = 1e309 overflows
    params = km.KerrParams(1.0, 1e308, 1.0)
    pt = PhasePoint(0.5, 0.3)
    for n in range(3):
        idx = km.ObservableIndex(n, n)
        assert (km.moyal_solution_symbolic(idx, 10.0, params)(pt)
                == km.moyal_solution_symbolic(idx, 0.0, params)(pt))


def test_adjoint_symmetry():
    rng = np.random.RandomState(8)
    for _ in range(10):
        s, m = rng.randint(0, 6), rng.randint(0, 6)
        t = float(rng.uniform(0.0, 2.5))
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        v = km.moyal_solution_symbolic(km.ObservableIndex(s, m), t, PARAMS)(pt)
        w = km.moyal_solution_symbolic(km.ObservableIndex(m, s), t, PARAMS)(pt)
        assert np.conj(v) == pytest.approx(w, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(s=st.integers(0, 3), m=st.integers(0, 3), q=st.floats(-1.5, 1.5),
       p=st.floats(-1.5, 1.5), t=st.floats(0.0, 30.0), w2=st.floats(0.05, 1.0),
       xi=st.floats(0.3, 2.0))
def test_adjoint_symmetry_property(s, m, q, p, t, w2, xi):
    params = km.KerrParams(1.0, w2, xi)
    idx = km.ObservableIndex(s, m)
    cos_tt = math.cos(idx.t_tilde(t, params))
    assume(s == m or abs(cos_tt) >= 1e-3)
    pt = PhasePoint(q, p)
    v = km.moyal_solution_symbolic(idx, t, params)(pt)
    w = km.moyal_solution_symbolic(km.ObservableIndex(m, s), t, params)(pt)
    # relative to sum |terms| of the finite sum, the scale at which it is
    # rounded: Theta_ss is real but its series can cancel to near zero
    r = math.hypot(q, p) / math.sqrt(2.0)
    scale = abs(cos_tt) ** -(s + m + 1) * sum(
        w_coefficient(m, s, l) * (0.5 * xi * abs(cos_tt)) ** l * r ** (s + m - 2 * l)
        for l in range(min(s, m) + 1))
    assert abs(np.conj(v) - w) <= 1e-12 * scale


def test_constants_of_motion_exact():
    for m in range(6):
        idx = km.ObservableIndex(m, m)
        for pt in POINTS[:2]:
            v0 = km.moyal_solution_symbolic(idx, 0.0, PARAMS)(pt)
            for t in (0.37, 2.9, 11.0):
                assert km.moyal_solution_symbolic(idx, t, PARAMS)(pt) == v0


def test_harmonic_limit_phase_only():
    params = km.KerrParams(w1=1.3, w2=0.0, xi=0.8)
    idx = km.ObservableIndex(0, 1)
    for t in (0.5, 2.0, 7.7):
        for pt in POINTS[:3]:
            val = km.moyal_solution_symbolic(idx, t, params)(pt)
            ref = np.exp(-1j * params.w1 * t) * pt.z / math.sqrt(2.0)
            assert val == pytest.approx(ref, abs=1e-14)


def test_rotational_equivariance():
    # Theta_sm(t|R(phi) x) = e^{i(m-s) phi/2} Theta_sm(t|x); for (0,1) this is
    # the e^{i phi/2} identity used to diagonalize the squeezed integral
    phi = 1.3
    rot = np.array([[math.cos(phi / 2.0), -math.sin(phi / 2.0)],
                    [math.sin(phi / 2.0), math.cos(phi / 2.0)]])
    for (s, m) in [(0, 1), (1, 0), (0, 2), (2, 1)]:
        idx = km.ObservableIndex(s, m)
        for pt in POINTS[:3]:
            mapped = PhasePoint(*(rot @ (pt.q, pt.p)))
            lhs = km.moyal_solution_symbolic(idx, 0.55, PARAMS)(mapped)
            rhs = (np.exp(1j * (m - s) * phi / 2.0)
                   * km.moyal_solution_symbolic(idx, 0.55, PARAMS)(pt))
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_symbolic_t0_is_pure_polynomial():
    sym = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), 0.0, PARAMS)
    assert sym.is_polynomial
    assert sym.poly.coeffs == {(1, 0): pytest.approx(1.0 / math.sqrt(2.0))}


@pytest.mark.parametrize("xi,w2,w1", [(1.0, 0.1, 1.0), (0.5, 1.0, 5.0)])
def test_every_symbol_pairs_to_the_fock_expectation(xi, w2, w1):
    # <(a^dag)^s a^m (t)> = int Theta_sm(t|x) W(x) d^2x / (2 pi xi) for every
    # s + m <= 4: the symbol through the pairing, against the Heisenberg
    # sweep at 4x the fock_space_for dimension, away from the poles
    params = km.KerrParams(w1, w2, xi)
    times = np.linspace(0.0, math.pi / (xi * w2), 13)[:-1]
    worst = 0.0
    for s_target, delta_phi in ((0.5, math.pi), (0.5, 0.0), (0.8, 1.1)):
        state = km.SqueezedState(1.0, -math.log(s_target) / (2.0 * xi), delta_phi, xi)
        space = km.FockSpace(4 * km.fock_space_for(state).dim, xi)
        v = km.squeezed_vector(state, space)
        projector = km.squeezed_projector(state)
        for s in range(5):
            for m in range(5 - s):
                idx = km.ObservableIndex(s, m)
                ts = [t for t in times if abs(math.cos(idx.t_tilde(t, params))) > 0.2]
                oracle = km.heisenberg_expectation_sweep(idx, ts, v, space, params)
                for t, ref in zip(ts, oracle):
                    theta = km.moyal_solution_symbolic(idx, t, params)
                    val = km.phase_space_inner_product(theta, projector, xi) / (2 * math.pi * xi)
                    worst = max(worst, abs(val - ref) / (1.0 + abs(ref)))
    assert worst <= 1e-11


PAIRING_TIMES = (0.0, 0.37, 1.0, 2.3)


@pytest.mark.parametrize("s,m,times", [
    (0, 8, PAIRING_TIMES),
    (6, 6, PAIRING_TIMES),
    (5, 7, PAIRING_TIMES),
    (4, 8, PAIRING_TIMES),
    # the coefficient-table pairing loses digits at high degree: it read
    # 5.5e2 here against |ref| = 4.5e8 (dims 260 and 400 agree exactly),
    # and now raises ToleranceNotMet instead, which fails the test as well
    pytest.param(10, 30, (2.3,), marks=pytest.mark.xfail(
        strict=True, reason="the pairing of Theta_sm loses digits at high degree")),
], ids=["0-8", "6-6", "5-7", "4-8", "10-30"])
def test_symbol_pairs_to_a_50_digit_fock_sum(s, m, times):
    # past s + m = 4: (1/2 pi xi) <Theta_sm, squeezed projector> against a
    # 50-digit Fock sum at dim 260; readings 1.9e-15 at (0,8), 8.9e-15 at
    # (6,6), 9.4e-15 at (5,7) and 4.8e-14 at (4,8)
    xi = 1.0
    params = km.KerrParams(1.0, 0.1, xi)
    state = km.SqueezedState(1.0, -math.log(0.8) / (2.0 * xi), 1.1, xi)
    projector = km.squeezed_projector(state)
    idx = km.ObservableIndex(s, m)
    refs = mp_reference.fock_expectation(s, m, times, state, params)
    for t, ref in zip(times, refs):
        theta = km.moyal_solution_symbolic(idx, t, params)
        val = km.phase_space_inner_product(theta, projector, xi) / (2 * math.pi * xi)
        assert abs(val - ref) / (1.0 + abs(ref)) <= 1e-12, t


@pytest.mark.parametrize("s,m,t", [(10, 30, 2.3), (5, 19, 1.0)])
def test_pairing_refuses_a_value_its_rounding_bound_does_not_cover(s, m, t):
    # finding 1's state: the coefficient table's terms cancel, and the bound
    # eps sum |c_l M_l| |prefactor| reads 4.8 (1 + |value|) at (10,30) and
    # 9.0e-8 (1 + |value|) at (5,19), against 1e-10
    xi = 1.0
    params = km.KerrParams(1.0, 0.1, xi)
    state = km.SqueezedState(1.0, -math.log(0.8) / (2.0 * xi), 1.1, xi)
    theta = km.moyal_solution_symbolic(km.ObservableIndex(s, m), t, params)
    with pytest.raises(km.ToleranceNotMet, match="rounding bound") as info:
        km.phase_space_inner_product(theta, km.squeezed_projector(state), xi)
    assert info.value.achieved > 1e-10


def test_heisenberg_commutator_through_star_engine():
    # Theta_10 * Theta_01 - Theta_01 * Theta_10 = -xi (symbol of [adag(t), a(t)])
    t = 0.3
    t01 = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), t, PARAMS)
    t10 = km.moyal_solution_symbolic(km.ObservableIndex(1, 0), t, PARAMS)
    zbar_z = km.star_gaussian(t10, t01, PARAMS.xi)
    z_zbar = km.star_gaussian(t01, t10, PARAMS.xi)
    for pt in POINTS[:4]:
        assert zbar_z(pt) - z_zbar(pt) == pytest.approx(-PARAMS.xi, abs=1e-12)


# ---------------------------------------------------------------------------
# Moyal equation
# ---------------------------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(s=st.integers(0, 3), m=st.integers(0, 3), q=st.floats(-1.5, 1.5),
       p=st.floats(-1.5, 1.5), t=st.floats(0.0, 5.0), w1=st.floats(-5.0, 5.0),
       w2=st.floats(-1.0, 1.0), xi=st.floats(0.005, 2.0))
@example(s=0, m=1, q=0.0, p=0.0, t=0.0, w1=0.0, w2=0.0, xi=1.0)  # every term 0
@example(s=0, m=1, q=1.0, p=0.5, t=0.0, w1=0.0, w2=1.757667954377864e-114,
         xi=1.0)                  # H ~ 1e-114: the stencil cannot see d_t Theta
@example(s=0, m=1, q=0.0, p=2.2250738585e-313, t=0.0, w1=0.0, w2=1.0,
         xi=1.0)                  # a subnormal size, with fewer than 53 bits
@example(s=1, m=1, q=0.0, p=1.0, t=0.0, w1=0.0, w2=1.0,
         xi=1.0)                  # Theta * H is 0 but its terms are not
@example(s=3, m=0, q=-1.0, p=-1.5, t=0.2282, w1=5.0, w2=1.0,
         xi=2.0)                  # rate (m - s) xi w2 = -6 at |cos t~| = 0.2002
def test_moyal_equation_property(s, m, q, p, t, w1, w2, xi):
    # both identities of the moyal suite at its bounds; s = m is the constant
    # of motion, whose bracket with H vanishes
    params = km.KerrParams(w1, w2, xi)
    idx = km.ObservableIndex(s, m)
    assume(abs(math.cos(idx.t_tilde(t, params))) >= 0.2)
    pde, eig = validate.moyal_equation_deviations(params, [idx], [t], [PhasePoint(q, p)])
    assert pde <= 1e-10
    assert eig <= 5e-13


# ---------------------------------------------------------------------------
# classical flow, quantum phase and trajectory
# ---------------------------------------------------------------------------

def _classical_point(t, pt, params):
    # Z_cl = sqrt(2) a_cl = q_cl + i p_cl
    return math.sqrt(2.0) * km.classical_amplitude(t, pt, params)


def test_classical_flow_t0():
    pt = PhasePoint(0.7, -0.2)
    z_cl = _classical_point(0.0, pt, PARAMS)
    assert z_cl == pytest.approx(complex(pt.q, pt.p), abs=1e-15)


def test_classical_flow_quarter_period_harmonic():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    z_cl = _classical_point(math.pi / 2.0, PhasePoint(1.0, 0.0), params)
    assert z_cl.real == pytest.approx(0.0, abs=1e-15)
    assert z_cl.imag == pytest.approx(-1.0)


def test_classical_flow_intensity_dependent_angle():
    # x^2 = 2, w1 = 0, w2 = 1, t = pi/4: rotation angle pi/2
    params = km.KerrParams(w1=0.0, w2=1.0, xi=1.0)
    z_cl = _classical_point(math.pi / 4.0, PhasePoint(1.0, 1.0), params)
    assert z_cl.real == pytest.approx(1.0)
    assert z_cl.imag == pytest.approx(-1.0)


def test_classical_flow_conserves_intensity():
    for t in (0.3, 2.0, 9.1):
        for pt in POINTS:
            a_cl = km.classical_amplitude(t, pt, PARAMS)
            assert 2.0 * abs(a_cl) ** 2 == pytest.approx(pt.x2, abs=1e-12)


def test_quantum_phase_examples():
    assert km.quantum_phase(PhasePoint(0.0, 0.0), math.pi / 4.0, PARAMS) == \
        pytest.approx(math.pi / 2.0)
    # xi = w2 = 1, t = 0.5, x^2 = 4 -> 1 + 4 (0.5 - tan 0.5)
    val = km.quantum_phase(PhasePoint(2.0, 0.0), 0.5, PARAMS)
    assert val == pytest.approx(0.8147900406248380, abs=1e-12)


def test_quantum_phase_vanishes_classically():
    pt = PhasePoint(1.1, -0.6)
    t = 0.7
    ratios = []
    for xi in (1e-2, 1e-4):
        params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
        ratios.append(km.quantum_phase(pt, t, params) / xi)
    # Phi = O(xi): the rescaled phase approaches the finite slope 2 w2 t
    assert ratios[1] == pytest.approx(2.0 * 0.7, rel=1e-3)
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_quantum_trajectory_equals_moyal_solution():
    rng = np.random.RandomState(23)
    for _ in range(20):
        t = float(rng.uniform(0.05, 1.3))
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        ref = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), t, PARAMS)(pt)
        assert abs(km.quantum_trajectory(t, pt, PARAMS) - ref) <= 1e-12 * (1 + abs(ref))


def test_trajectory_ratio_independent_of_x():
    t = 1.0
    expected = 1.0 / math.cos(1.0) ** 2
    assert expected == pytest.approx(3.425518820814759, abs=1e-12)
    for pt in POINTS:
        ratio = abs(km.quantum_trajectory(t, pt, PARAMS)
                    / km.classical_amplitude(t, pt, PARAMS))
        assert ratio == pytest.approx(expected, abs=1e-12)


def test_trajectory_t0_is_annihilation_symbol():
    for pt in POINTS[:4]:
        assert km.quantum_trajectory(0.0, pt, PARAMS) == pytest.approx(
            pt.z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# semiclassical expansion
# ---------------------------------------------------------------------------

def test_semiclassical_orders_at_t0():
    pt = PhasePoint(0.9, 0.4)
    for order in (km.classical_amplitude, km.semiclassical_trajectory):
        assert order(0.0, pt, PARAMS) == pytest.approx(pt.z / math.sqrt(2.0))


def test_semiclassical_exact_for_harmonic():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=0.3)
    for t in (0.5, 2.2):
        for pt in POINTS[:3]:
            assert km.classical_amplitude(t, pt, params) == pytest.approx(
                km.quantum_trajectory(t, pt, params), abs=1e-13)


def test_semiclassical_convergence_rate():
    pt = PhasePoint(1.1, -0.6)
    for t in (0.5, 1.5):
        residuals = []
        for xi in (2e-2, 1e-2, 5e-3):
            params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
            residuals.append(abs(km.quantum_trajectory(t, pt, params)
                                 - km.semiclassical_trajectory(t, pt, params)))
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5
        assert 3.5 <= residuals[1] / residuals[2] <= 4.5


def test_flow_correction_z1_basics():
    pt = PhasePoint(1.0, 0.4)
    assert km.flow_correction_z1(0.0, pt, PARAMS) == 0.0
    no_kerr = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    for t in (0.5, 3.0):
        assert km.flow_correction_z1(t, pt, no_kerr) == 0.0


def _trajectory_vector_raw(t, pt, w1, w2, xi):
    # analytic continuation of the closed form in xi, used as the
    # differentiation oracle (the library rejects xi <= 0 by contract)
    phase = xi * w2 * t
    phi = 2.0 * xi * w2 * t + pt.x2 * (w2 * t - math.tan(phase) / xi)
    theta = (np.exp(1j * phi) / math.cos(phase) ** 2
             * np.exp(-1j * (w2 * pt.x2 + w1) * t) * pt.z / math.sqrt(2.0))
    return np.array([math.sqrt(2.0) * theta.real, math.sqrt(2.0) * theta.imag])


def test_flow_correction_z1_matches_xi_derivative():
    pt = PhasePoint(1.0, 0.4)
    h = 1e-5
    for t in (0.3, 1.0, 2.5):
        fd = (_trajectory_vector_raw(t, pt, 1.0, 1.0, h)
              - _trajectory_vector_raw(t, pt, 1.0, 1.0, -h)) / (2.0 * h)
        z1 = km.flow_correction_z1(t, pt, PARAMS)
        assert abs(math.sqrt(2.0) * z1 - complex(*fd)) <= 1e-6
        # the raw oracle agrees with the library route on the valid domain
        lib = km.quantum_trajectory(t, pt, km.KerrParams(1.0, 1.0, h))
        raw = _trajectory_vector_raw(t, pt, 1.0, 1.0, h)
        assert abs(math.sqrt(2.0) * lib.real - raw[0]) <= 1e-12


def test_jacobi_residual():
    pt = PhasePoint(1.0, 0.0)
    for t in (0.1, 1.0, 5.0):
        assert km.jacobi_residual(t, pt, PARAMS) <= 1e-6
    no_kerr = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    assert km.jacobi_residual(2.0, pt, no_kerr) == pytest.approx(0.0, abs=1e-14)


def _real_jacobi_residual(t, pt, params, z1_of, h_t=1e-5):
    # [d/dt - J H_cl''(Z_cl)] z1 - J grad(h1)(Z_cl) in the real vector
    # Z = sqrt(2) (Re a, Im a), with H_cl = w2 x^4/4 + w1 x^2/2, so that
    # H_cl'' = (w2 x^2 + w1) I + 2 w2 Z Z^T, and h1 = -w2 x^2; the time step
    # is the library's
    def real(c):
        return math.sqrt(2.0) * np.array([c.real, c.imag])

    w1, w2 = params.w1, params.w2
    z_cl = real(km.classical_amplitude(t, pt, params))
    hessian = (w2 * (z_cl @ z_cl) + w1) * np.eye(2) + 2.0 * w2 * np.outer(z_cl, z_cl)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])   # the Poisson matrix
    z1_dot = (real(z1_of(t + h_t, pt, params)) - real(z1_of(t - h_t, pt, params))) / (2 * h_t)
    lhs = z1_dot - j @ hessian @ real(z1_of(t, pt, params))
    return float(np.linalg.norm(lhs - j @ (-2.0 * w2 * z_cl)))


@settings(max_examples=200, deadline=None)
@given(w1=st.floats(-5.0, 5.0), w2=st.floats(-5.0, 5.0), r=st.floats(0.0, 2.0),
       arg=st.floats(-math.pi, math.pi), t=st.floats(0.0, 5.0))
def test_jacobi_residual_matches_real_hessian_form(w1, w2, r, arg, t):
    params = km.KerrParams(w1=w1, w2=w2, xi=1.0)
    pt = PhasePoint(r * math.cos(arg), r * math.sin(arg))
    # the central difference's truncation, h_t^2/6 |z1'''|, grows like
    # |w2| |a| Omega^2 (1 + Omega t) with Omega = w2 x^2 + w1, so the exact
    # z1 is held to 1e-6 of the size of dz1/dt
    a_cl = km.classical_amplitude(t, pt, params)
    omega = w2 * pt.x2 + w1
    scale = 1.0 + abs(2.0 * w2 * a_cl) * (1.0 + abs(omega) * t)
    assert km.jacobi_residual(t, pt, params) <= 1e-6 * scale

    # a z1 off by eps t^2 a_cl leaves an O(eps) residual that both forms
    # must see alike
    exact_z1 = km.flow_correction_z1

    def perturbed(u, x, p):
        return exact_z1(u, x, p) + 0.1 * u * u * km.classical_amplitude(u, x, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kerr_module, "flow_correction_z1", perturbed)
        complex_form = km.jacobi_residual(t, pt, params)
    real_form = _real_jacobi_residual(t, pt, params, perturbed) / math.sqrt(2.0)
    assert complex_form == pytest.approx(real_form, rel=1e-6)
