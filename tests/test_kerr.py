"""Closed-form Moyal solutions, classical flow and semiclassical structure."""

import math
from fractions import Fraction

import numpy as np
import pytest

import kerrmoyal as km
from kerrmoyal import IndexCapExceeded, SingularTime, SingularWindow
from kerrmoyal.kerr import (
    INDEX_CAP,
    angular_eigenvalue_residual,
    hamiltonian_classical,
    hamiltonian_h1,
    hamiltonian_h2,
    moyal_residual_third_order,
    w_coefficient,
)
from kerrmoyal.phase_space import PhasePoint

PARAMS = km.KerrParams(w1=1.0, w2=1.0, xi=1.0)

RNG = np.random.RandomState(41)
POINTS = [PhasePoint(q, p) for q, p in RNG.uniform(-1.4, 1.4, size=(6, 2))]


# ---------------------------------------------------------------------------
# static symbols
# ---------------------------------------------------------------------------

def test_hamiltonian_symbol_at_origin():
    val = km.hamiltonian_symbol(PARAMS, PhasePoint(0.0, 0.0))
    assert val == pytest.approx(0.5 * PARAMS.w2 - 0.5 * PARAMS.w1)


def test_hamiltonian_harmonic_limit_path():
    pt = PhasePoint(1.1, -0.4)
    for xi in (1e-3, 1e-6):
        params = km.KerrParams(w1=1.0, w2=0.0, xi=xi)
        assert km.hamiltonian_symbol(params, pt) == pytest.approx(
            0.5 * pt.x2, abs=5e-4)


def test_hamiltonian_symbol_derived_zero():
    # w1 = w2 = xi = 1, x^2 = 2: (1 - 2 + 1/2) + (1 - 1/2) = 0
    pt = PhasePoint(math.sqrt(2.0), 0.0)
    assert km.hamiltonian_symbol(PARAMS, pt) == pytest.approx(0.0, abs=1e-14)


def test_hamiltonian_split_exact():
    # H - H_cl - xi h1 - xi^2 h2 must be x-independent (the dropped -w1 xi/2)
    params = km.KerrParams(w1=0.7, w2=1.3, xi=0.45)
    remainders = {round(km.hamiltonian_symbol(params, pt)
                        - hamiltonian_classical(params, pt)
                        - params.xi * hamiltonian_h1(params, pt)
                        - params.xi**2 * hamiltonian_h2(params), 12)
                  for pt in POINTS}
    assert remainders == {round(-0.5 * params.w1 * params.xi, 12)}


def test_number_symbol():
    xi = 1.0
    assert km.number_symbol(xi, PhasePoint(1.0, 0.0)) == pytest.approx(0.0)
    assert km.number_symbol(xi, PhasePoint(0.0, 0.0)) == pytest.approx(-0.5 * xi)
    assert km.number_symbol(1.0, PhasePoint(math.sqrt(3.0), 0.0)) == pytest.approx(1.0)


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


# ---------------------------------------------------------------------------
# Moyal solution
# ---------------------------------------------------------------------------

def test_moyal_solution_identity_operator():
    idx = km.ObservableIndex(0, 0)
    for t in (0.0, 0.7, 13.2):
        for pt in POINTS[:3]:
            assert km.moyal_solution(idx, t, pt, PARAMS).value == pytest.approx(1.0)


def test_moyal_solution_number_is_constant():
    idx = km.ObservableIndex(1, 1)
    pt = PhasePoint(1.2, -0.3)
    expected = 0.5 * pt.x2 - 0.5 * PARAMS.xi
    for t in (0.0, 0.9, 4.2, math.pi / 2):
        assert km.moyal_solution(idx, t, pt, PARAMS).value == pytest.approx(expected)


def test_moyal_solution_singular_marker():
    val = km.moyal_solution(km.ObservableIndex(0, 1), math.pi / 2,
                            PhasePoint(1.0, 0.0), PARAMS)
    assert val.is_singular
    assert val.singular_t_tilde == pytest.approx(math.pi / 2)
    with pytest.raises(SingularTime):
        km.moyal_solution_symbolic(km.ObservableIndex(0, 1), math.pi / 2, PARAMS)


def test_moyal_solution_t0_reduction():
    for s in range(5):
        for m in range(5):
            idx = km.ObservableIndex(s, m)
            for pt in POINTS[:3]:
                v0 = km.moyal_solution(idx, 0.0, pt, PARAMS).value
                assert abs(v0 - km.initial_symbol(idx, PARAMS.xi, pt)) <= 1e-12


def test_adjoint_symmetry():
    rng = np.random.RandomState(8)
    for _ in range(10):
        s, m = rng.randint(0, 6), rng.randint(0, 6)
        t = float(rng.uniform(0.0, 2.5))
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        v = km.moyal_solution(km.ObservableIndex(s, m), t, pt, PARAMS)
        w = km.moyal_solution(km.ObservableIndex(m, s), t, pt, PARAMS)
        if v.is_singular:
            assert w.is_singular
        else:
            assert np.conj(v.value) == pytest.approx(w.value, abs=1e-12)


def test_constants_of_motion_exact():
    for m in range(6):
        idx = km.ObservableIndex(m, m)
        for pt in POINTS[:2]:
            v0 = km.moyal_solution(idx, 0.0, pt, PARAMS).value
            for t in (0.37, 2.9, 11.0):
                assert km.moyal_solution(idx, t, pt, PARAMS).value == v0


def test_harmonic_limit_phase_only():
    params = km.KerrParams(w1=1.3, w2=0.0, xi=0.8)
    idx = km.ObservableIndex(0, 1)
    for t in (0.5, 2.0, 7.7):
        for pt in POINTS[:3]:
            val = km.moyal_solution(idx, t, pt, params).value
            ref = np.exp(-1j * params.w1 * t) * pt.z / math.sqrt(2.0)
            assert val == pytest.approx(ref, abs=1e-14)


def test_rotational_equivariance():
    # Theta_sm(t|R(phi) x) = e^{i(m-s) phi/2} Theta_sm(t|x); for (0,1) this is
    # the e^{i phi/2} identity used to diagonalize the squeezed integral
    phi = 1.3
    rot = km.rotation_matrix(phi)
    for (s, m) in [(0, 1), (1, 0), (0, 2), (2, 1)]:
        idx = km.ObservableIndex(s, m)
        for pt in POINTS[:3]:
            mapped = PhasePoint(*(rot @ pt.as_array()))
            lhs = km.moyal_solution(idx, 0.55, mapped, PARAMS).value
            rhs = (np.exp(1j * (m - s) * phi / 2.0)
                   * km.moyal_solution(idx, 0.55, pt, PARAMS).value)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


def test_symbolic_matches_pointwise():
    rng = np.random.RandomState(19)
    for _ in range(100):
        s, m = rng.randint(0, 4), rng.randint(0, 4)
        t = float(rng.uniform(0.05, 1.2))
        idx = km.ObservableIndex(s, m)
        if abs(math.cos(idx.t_tilde(t, PARAMS))) < 1e-3:
            continue
        sym = km.moyal_solution_symbolic(idx, t, PARAMS)
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        direct = km.moyal_solution(idx, t, pt, PARAMS).value
        assert abs(sym(pt) - direct) <= 1e-12 * (1.0 + abs(direct))


def test_symbolic_t0_is_pure_polynomial():
    sym = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), 0.0, PARAMS)
    assert sym.is_polynomial
    assert sym.poly.coeffs == {(1, 0): pytest.approx(1.0 / math.sqrt(2.0))}


def test_heisenberg_commutator_through_star_engine():
    # Theta_10 * Theta_01 - Theta_01 * Theta_10 = -xi (symbol of [adag(t), a(t)])
    t = 0.3
    t01 = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), t, PARAMS)
    t10 = km.moyal_solution_symbolic(km.ObservableIndex(1, 0), t, PARAMS)
    comm = km.star_gaussian(t10, t01, PARAMS.xi) - km.star_gaussian(t01, t10, PARAMS.xi)
    for pt in POINTS[:4]:
        assert comm(pt) == pytest.approx(-PARAMS.xi, abs=1e-12)


# ---------------------------------------------------------------------------
# finite-difference residuals
# ---------------------------------------------------------------------------

def test_moyal_residual_explicit_point():
    idx = km.ObservableIndex(0, 1)
    res = km.moyal_residual(idx, 0.2, PhasePoint(1.0, 0.5), PARAMS, h_t=1e-4)
    assert res <= 1e-5


def test_moyal_residual_vanishes_for_diagonal():
    res = km.moyal_residual(km.ObservableIndex(1, 1), 0.2, PhasePoint(1.0, 0.5), PARAMS)
    assert res <= 1e-14


def test_moyal_residual_grid():
    worst = 0.0
    for s in range(3):
        for m in range(3):
            if s == m:
                continue
            for t in (0.1, 0.35, 0.6):
                for pt in POINTS[:3]:
                    worst = max(worst, km.moyal_residual(
                        km.ObservableIndex(s, m), t, pt, PARAMS))
    assert worst <= 1e-5


def test_third_order_form_residual():
    idx = km.ObservableIndex(0, 1)
    res = moyal_residual_third_order(idx, 0.2, PhasePoint(1.0, 0.5), PARAMS)
    assert res <= 1e-5


def test_angular_eigenvalue_identity():
    for (s, m) in [(0, 1), (1, 1), (2, 0), (1, 2)]:
        res = angular_eigenvalue_residual(km.ObservableIndex(s, m), 0.4,
                                          PhasePoint(0.9, -0.6), PARAMS)
        assert res <= 1e-5


def test_residual_inside_singular_window_raises():
    with pytest.raises(SingularWindow):
        km.moyal_residual(km.ObservableIndex(0, 1), math.pi / 2,
                          PhasePoint(1.0, 0.0), PARAMS)


def test_singular_window_raised_by_phase_and_trajectory():
    pt = PhasePoint(1.0, 0.0)
    with pytest.raises(SingularWindow):
        km.quantum_phase(PARAMS.xi, pt, math.pi / 2.0, PARAMS)
    with pytest.raises(SingularWindow):
        km.quantum_trajectory(math.pi / 2.0, pt, PARAMS)
    with pytest.raises(SingularWindow):
        km.ansatz_ode_check(1, math.pi / 2.0, PARAMS)


def test_ansatz_ode_check():
    res_g, res_f = km.ansatz_ode_check(1, 0.3, PARAMS)
    assert res_g <= 1e-6 and res_f <= 1e-6
    res_g, res_f = km.ansatz_ode_check(0, 0.9, PARAMS)
    assert res_g == 0.0 and res_f == 0.0
    # initial conditions: g(0) = 0, f(0) = 1
    assert -1j * math.tan(0.0) == 0.0
    res_g, res_f = km.ansatz_ode_check(2, 0.11, PARAMS)
    assert res_g <= 1e-6 and res_f <= 1e-6


# ---------------------------------------------------------------------------
# classical flow, quantum phase and trajectory
# ---------------------------------------------------------------------------

def test_classical_flow_t0():
    pt = PhasePoint(0.7, -0.2)
    state = km.classical_flow(0.0, pt, PARAMS)
    assert (state.q_cl, state.p_cl) == (pt.q, pt.p)


def test_classical_flow_quarter_period_harmonic():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    state = km.classical_flow(math.pi / 2.0, PhasePoint(1.0, 0.0), params)
    assert state.q_cl == pytest.approx(0.0, abs=1e-15)
    assert state.p_cl == pytest.approx(-1.0)


def test_classical_flow_intensity_dependent_angle():
    # x^2 = 2, w1 = 0, w2 = 1, t = pi/4: rotation angle pi/2
    params = km.KerrParams(w1=0.0, w2=1.0, xi=1.0)
    state = km.classical_flow(math.pi / 4.0, PhasePoint(1.0, 1.0), params)
    assert state.q_cl == pytest.approx(1.0)
    assert state.p_cl == pytest.approx(-1.0)


def test_classical_flow_conserves_intensity():
    for t in (0.3, 2.0, 9.1):
        for pt in POINTS:
            state = km.classical_flow(t, pt, PARAMS)
            assert state.q_cl**2 + state.p_cl**2 == pytest.approx(pt.x2, abs=1e-12)
            assert state.a_cl == pytest.approx(km.classical_amplitude(t, pt, PARAMS))


def test_quantum_phase_examples():
    assert km.quantum_phase(1.0, PhasePoint(0.0, 0.0), math.pi / 4.0, PARAMS) == \
        pytest.approx(math.pi / 2.0)
    # xi = w2 = 1, t = 0.5, x^2 = 4 -> 1 + 4 (0.5 - tan 0.5)
    val = km.quantum_phase(1.0, PhasePoint(2.0, 0.0), 0.5, PARAMS)
    assert val == pytest.approx(0.8147900406248380, abs=1e-12)


def test_quantum_phase_vanishes_classically():
    pt = PhasePoint(1.1, -0.6)
    t = 0.7
    ratios = []
    for xi in (1e-2, 1e-4):
        params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
        ratios.append(km.quantum_phase(xi, pt, t, params) / xi)
    # Phi = O(xi): the rescaled phase approaches the finite slope 2 w2 t
    assert ratios[1] == pytest.approx(2.0 * 0.7, rel=1e-3)
    assert ratios[0] == pytest.approx(ratios[1], rel=2e-2)


def test_quantum_trajectory_equals_moyal_solution():
    rng = np.random.RandomState(23)
    for _ in range(20):
        t = float(rng.uniform(0.05, 1.3))
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        ref = km.moyal_solution(km.ObservableIndex(0, 1), t, pt, PARAMS).value
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
    for order in (0, 1):
        assert km.semiclassical_trajectory(0.0, pt, PARAMS, order) == pytest.approx(
            pt.z / math.sqrt(2.0))


def test_semiclassical_exact_for_harmonic():
    params = km.KerrParams(w1=1.0, w2=0.0, xi=0.3)
    for t in (0.5, 2.2):
        for pt in POINTS[:3]:
            assert km.semiclassical_trajectory(t, pt, params, 0) == pytest.approx(
                km.quantum_trajectory(t, pt, params), abs=1e-13)


def test_semiclassical_convergence_rate():
    pt = PhasePoint(1.1, -0.6)
    for t in (0.5, 1.5):
        residuals = []
        for xi in (2e-2, 1e-2, 5e-3):
            params = km.KerrParams(w1=1.0, w2=1.0, xi=xi)
            residuals.append(abs(km.quantum_trajectory(t, pt, params)
                                 - km.semiclassical_trajectory(t, pt, params, 1)))
        assert 3.5 <= residuals[0] / residuals[1] <= 4.5
        assert 3.5 <= residuals[1] / residuals[2] <= 4.5


def test_flow_correction_z1_basics():
    pt = PhasePoint(1.0, 0.4)
    assert np.allclose(km.flow_correction_z1(0.0, pt, PARAMS), 0.0)
    no_kerr = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    for t in (0.5, 3.0):
        assert np.allclose(km.flow_correction_z1(t, pt, no_kerr), 0.0)


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
        assert np.max(np.abs(z1 - fd)) <= 1e-6
        # the raw oracle agrees with the library route on the valid domain
        lib = km.quantum_trajectory(t, pt, km.KerrParams(1.0, 1.0, h))
        raw = _trajectory_vector_raw(t, pt, 1.0, 1.0, h)
        assert abs(math.sqrt(2.0) * lib.real - raw[0]) <= 1e-12


def test_jacobi_residual():
    pt = PhasePoint(1.0, 0.0)
    for t in (0.1, 1.0, 5.0):
        assert km.jacobi_residual(t, pt, PARAMS, h_t=1e-5) <= 1e-6
    no_kerr = km.KerrParams(w1=1.0, w2=0.0, xi=1.0)
    assert km.jacobi_residual(2.0, pt, no_kerr) == pytest.approx(0.0, abs=1e-14)
