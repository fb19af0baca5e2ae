"""Invariant suites behind `kerr validate`.

Each suite runs a fixed set of cross-checks (dual star engines, closed form
vs Fock oracle, symmetry identities) and reports the worst deviation per
check against its tolerance.  Suites are deterministic: random samples are
drawn from a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import expectations, fock, kerr, states
from .phase_space import (
    GaussPolySymbol,
    PhasePoint,
    ZPoly,
    annihilation_symbol,
    creation_symbol,
    moyal_bracket,
    phase_space_inner_product,
    star_differential,
    star_gaussian,
)

_SEED = 20231123


def _worst(deviations) -> float:
    """The largest deviation, or NaN if any is NaN.

    The builtin max keeps whichever of a NaN and a number it meets first, so
    a check whose values are NaN could report its finite ones and pass.
    """
    return float(np.max(np.fromiter(deviations, dtype=float)))


@dataclass
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


@dataclass
class SuiteReport:
    suite: str
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checks": [dict(asdict(c), passed=c.passed) for c in self.checks],
        }


def validate_algebra(params: kerr.KerrParams) -> SuiteReport:
    xi = params.xi
    report = SuiteReport("algebra")
    rng = np.random.RandomState(_SEED)

    a_sym = annihilation_symbol()
    ad_sym = creation_symbol()
    pts = [PhasePoint(q, p) for q, p in rng.uniform(-1.5, 1.5, size=(6, 2))]

    a_star_a = star_differential(a_sym, a_sym, xi)
    dev = _worst(abs(a_star_a(pt) - (pt.z / math.sqrt(2.0)) ** 2) for pt in pts)
    report.checks.append(CheckResult("a_star_a_equals_a_squared", dev, 1e-12))

    comm = star_differential(a_sym, ad_sym, xi) - star_differential(ad_sym, a_sym, xi)
    dev = _worst(abs(comm(pt) - xi) for pt in pts)
    report.checks.append(CheckResult("a_adag_commutator_equals_xi", dev, 1e-12))

    monos = [ZPoly.monomial(k, l) for k in range(3) for l in range(3 - k)]
    devs = []
    for f_poly in monos:
        for g_poly in monos:
            f = GaussPolySymbol.polynomial(f_poly)
            g = GaussPolySymbol.polynomial(g_poly)
            diff_engine = star_differential(f, g, xi)
            int_engine = star_gaussian(f, g, xi)
            for pt in pts[:3]:
                ref = diff_engine(pt)
                devs.append(abs(int_engine(pt) - ref) / (1.0 + abs(ref)))
    report.checks.append(CheckResult("engine_agreement_monomials", _worst(devs), 1e-10))

    q_sym = GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 1.0, 0.0))
    p_sym = GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 0.0, 1.0))
    br = moyal_bracket(q_sym, p_sym, xi)
    dev = _worst(abs(br(pt) - 1.0) for pt in pts)
    report.checks.append(CheckResult("canonical_moyal_bracket", dev, 1e-12))

    proj = states.squeezed_projector(states.SqueezedState(0.4 + 0.3j, 0.0, 0.0, xi))
    trace = phase_space_inner_product(proj, GaussPolySymbol.constant(1.0), xi)
    dev = abs(trace - 2.0 * math.pi * xi)
    report.checks.append(CheckResult("projector_trace_2_pi_xi", float(dev), 1e-10))
    return report


def validate_moyal(params: kerr.KerrParams) -> SuiteReport:
    report = SuiteReport("moyal")
    rng = np.random.RandomState(_SEED + 1)
    pts = [PhasePoint(q, p) for q, p in rng.uniform(-1.4, 1.4, size=(4, 2))]
    times = [0.3, 1.1, 2.7]

    indices = [kerr.ObservableIndex(s, m) for s in range(3) for m in range(3)]
    dev = _worst(abs(kerr.moyal_solution(idx, 0.0, pt, params)
                     - kerr.initial_symbol(idx, params.xi, pt))
                 for idx in indices for pt in pts)
    report.checks.append(CheckResult("t0_reduction", dev, 1e-12))

    dev = _worst(abs(np.conj(kerr.moyal_solution(idx, t, pt, params))
                     - kerr.moyal_solution(kerr.ObservableIndex(idx.m, idx.s), t, pt, params))
                 for idx in indices for t in times for pt in pts[:2])
    report.checks.append(CheckResult("adjoint_symmetry", dev, 1e-10))

    dev = _worst(abs(kerr.moyal_solution(idx, 7.31, pt, params)
                     - kerr.moyal_solution(idx, 0.0, pt, params))
                 for idx in (kerr.ObservableIndex(m, m) for m in range(1, 4))
                 for pt in pts[:2])
    report.checks.append(CheckResult("constants_of_motion", dev, 1e-12))

    dev = _worst(kerr.moyal_residual(kerr.ObservableIndex(s, m), t, pt, params)
                 for s, m in ((0, 1), (1, 0), (1, 1)) for t in times[:2] for pt in pts[:2])
    report.checks.append(CheckResult("pde_residual", dev, 2e-6))

    dev = _worst(kerr.angular_eigenvalue_residual(kerr.ObservableIndex(0, 2), t, pt, params)
                 for t in times[:2] for pt in pts[:2])
    report.checks.append(CheckResult("angular_eigenvalue", dev, 1e-9))

    dev = _worst(abs(kerr.quantum_trajectory(t, pt, params)
                     - kerr.moyal_solution(kerr.ObservableIndex(0, 1), t, pt, params))
                 for t in times for pt in pts[:2])
    report.checks.append(CheckResult("trajectory_consistency", dev, 1e-12))

    # Z(t) * Z(t) = x^2: the conserved intensity through the star product
    devs = []
    for t in times[:2]:
        t01 = kerr.moyal_solution_symbolic(kerr.ObservableIndex(0, 1), t, params)
        t10 = kerr.moyal_solution_symbolic(kerr.ObservableIndex(1, 0), t, params)
        prod = star_gaussian(t10, t01, params.xi) + star_gaussian(t01, t10, params.xi)
        devs += [abs(prod(pt) - pt.x2) for pt in pts[:2]]
    report.checks.append(CheckResult("z_star_z_conserved", _worst(devs), 1e-13))
    return report


def validate_states(params: kerr.KerrParams) -> SuiteReport:
    xi = params.xi
    report = SuiteReport("states")
    rng = np.random.RandomState(_SEED + 2)

    devs = []
    for s_target in (0.9, 0.5, 0.2):
        for phi in (0.0, 1.1, math.pi):
            tau_abs = -math.log(s_target) / (2.0 * xi)
            state = states.SqueezedState(0.7 + 0.2j, tau_abs, phi, xi)
            var_q, var_p, cov_f = states.variances(state)
            devs.append(abs(var_q * var_p - cov_f**2 - xi**2 / 4.0))
    report.checks.append(CheckResult("schroedinger_robertson_saturation", _worst(devs), 1e-12))

    devs = []
    for _ in range(4):
        alpha = complex(*rng.uniform(-1.0, 1.0, 2))
        tau_abs = rng.uniform(0.0, 0.8)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        state = states.SqueezedState(alpha, tau_abs, phi, xi)
        s_mat = states.squeeze_matrix(state.tau_abs, state.tau_phase, xi)
        projector = states.squeezed_projector(state)
        for q, p in rng.uniform(-1.5, 1.5, size=(4, 2)):
            pt = PhasePoint(q, p)
            mapped = s_mat @ pt.as_array()
            lhs = projector(pt).real
            rhs = states.coherent_projector_symbol(alpha, xi, PhasePoint(*mapped))
            devs.append(abs(lhs - rhs))
    report.checks.append(CheckResult("covariance_identity", _worst(devs), 1e-12))

    s1 = states.squeeze_matrix(0.35, 0.8, xi)
    s2 = states.squeeze_matrix(0.7, 0.8, xi)
    dev = float(np.max(np.abs(s1 @ s1 - s2)))
    report.checks.append(CheckResult("squeeze_group_law", dev, 1e-12))

    state = states.SqueezedState(1.0, -math.log(0.5) / (2.0 * xi), math.pi, xi)
    space = fock.fock_space_for(state)
    v = fock.squeezed_vector(state, space)
    mean_n = space.xi * float(np.arange(space.dim) @ np.abs(v) ** 2)
    dev = abs(mean_n - states.mean_photon_number(state))
    report.checks.append(CheckResult("mean_photon_vs_fock", float(dev), 1e-11))

    # the dim grows like 1/xi with the photon number of |alpha>, the larger state
    alpha, beta = 0.6 + 0.1j, -0.2 + 0.4j
    sp = fock.fock_space_for(states.SqueezedState(alpha, 0.0, 0.0, xi))
    ov_fock = complex(np.conj(fock.coherent_vector(alpha, sp)) @ fock.coherent_vector(beta, sp))
    dev = abs(ov_fock - states.coherent_overlap(alpha, beta, xi))
    report.checks.append(CheckResult("coherent_overlap_vs_fock", float(dev), 1e-10))
    return report


def validate_expectation(params: kerr.KerrParams) -> SuiteReport:
    xi = params.xi
    report = SuiteReport("expectation")

    devs = []
    for s_target in (0.5, 0.2):
        for dphi in (0.0, math.pi):
            tau_abs = -math.log(s_target) / (2.0 * xi)
            state = states.SqueezedState(1.0, tau_abs, dphi, xi)
            space = fock.fock_space_for(state)
            v = fock.squeezed_vector(state, space)
            times = np.linspace(0.0, math.pi / (xi * params.w2), 7)[:-1]
            oracle = fock.heisenberg_expectation_sweep(
                kerr.ObservableIndex(0, 1), times, v, space, params)
            for t, ref in zip(times, oracle):
                val = expectations.expectation_a_closed(float(t), state, params).value
                devs.append(abs(val - ref) / (1.0 + abs(ref)))
    report.checks.append(CheckResult("closed_vs_fock", _worst(devs), 1e-10))

    # two mild points and a strongly number-squeezed one at t~ = 11 pi/24
    mild = states.SqueezedState(1.0, -math.log(0.5) / (2.0 * xi), math.pi, xi)
    strong = states.SqueezedState(1.0, -math.log(0.1) / (2.0 * xi), math.pi, xi)
    t_strong = 11.0 * math.pi / (24.0 * xi * params.w2)
    devs = []
    for state, t in ((mild, 0.4), (mild, 1.7), (strong, t_strong)):
        quad = expectations.expectation_a_quadrature(t, state, params, tol=1e-9)
        closed = expectations.expectation_a_closed(t, state, params).value
        devs.append(abs(quad - closed) / (1.0 + abs(closed)))
    report.checks.append(CheckResult("quadrature_vs_closed", _worst(devs), 1e-13))

    coh = states.SqueezedState(0.8 + 0.3j, 0.0, 0.0, xi)
    devs = []
    for t in np.linspace(0.0, 20.0, 9):
        val = expectations.expectation_a_closed(float(t), coh, params).value
        ref = coh.alpha * np.exp(
            -1j * params.w1 * t
            - 2j * abs(coh.alpha) ** 2 / xi * math.sin(xi * params.w2 * t)
            * np.exp(-1j * xi * params.w2 * t))
        devs.append(abs(val - ref))
    report.checks.append(CheckResult("no_squeeze_reduction", _worst(devs), 1e-12))
    return report


SUITES = {
    "algebra": validate_algebra,
    "moyal": validate_moyal,
    "states": validate_states,
    "expectation": validate_expectation,
}


def run_suites(names, params: kerr.KerrParams) -> list[SuiteReport]:
    return [SUITES[name](params) for name in names]
