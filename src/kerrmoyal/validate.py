"""Invariant suites behind `kerr validate`.

Each suite runs a fixed set of cross-checks (dual star engines, closed form
vs Fock oracle, symmetry identities) and reports the worst deviation per
check against its tolerance.  Suites are deterministic: random samples are
drawn from a fixed seed.
"""

from __future__ import annotations

import math
import sys
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
    report.checks.append(CheckResult("a_star_a_equals_a_squared", dev, 1e-14))

    a_ad, ad_a = star_differential(a_sym, ad_sym, xi), star_differential(ad_sym, a_sym, xi)
    comm = GaussPolySymbol.polynomial(a_ad.poly + ad_a.poly.scale(-1.0))
    dev = _worst(abs(comm(pt) - xi) / (1.0 + xi) for pt in pts)
    report.checks.append(CheckResult("a_adag_commutator_equals_xi", dev, 1e-14))

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
    report.checks.append(CheckResult("engine_agreement_monomials", _worst(devs), 2e-14))

    q_sym = GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 1.0, 0.0))
    p_sym = GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 0.0, 1.0))
    br = moyal_bracket(q_sym, p_sym, xi)
    dev = _worst(abs(br(pt) - 1.0) for pt in pts)
    report.checks.append(CheckResult("canonical_moyal_bracket", dev, 1e-15))

    proj = states.squeezed_projector(states.SqueezedState(0.4 + 0.3j, 0.0, 0.0, xi))
    trace = phase_space_inner_product(proj, GaussPolySymbol.constant(1.0), xi)
    dev = abs(trace - 2.0 * math.pi * xi) / (1.0 + 2.0 * math.pi * xi)
    report.checks.append(CheckResult("projector_trace_2_pi_xi", float(dev), 1e-14))
    return report


def _term_moduli(sym: GaussPolySymbol, pt: PhasePoint) -> float:
    """sum over the terms c z^k z*^l exp(E) of sym at pt of their moduli:
    the size that rounding the sum of the terms is relative to."""
    r = abs(pt.z)
    gauss = abs(GaussPolySymbol(sym.quad, sym.lin, sym.const, ZPoly.constant(1.0))(pt))
    return gauss * sum(abs(c) * r ** (k + l) for (k, l), c in sym.poly.coeffs.items())


def moyal_equation_deviations(params: kerr.KerrParams, indices, times, pts):
    """Worst deviations (pde_residual, angular_eigenvalue) of Theta_sm from
    Theta * H - H * Theta = i xi d_t Theta and Theta * N - N * Theta =
    xi (m-s) Theta.

    For every index, s = m included, Theta * H and Theta * N go through
    star_gaussian and H * Theta and N * Theta through star_differential, and
    each identity is read from the products' values at the points; d_t is a
    fourth-order central difference in t of the symbols
    moyal_solution_symbolic builds at t - 2h, ..., t + 2h.  Both identities
    are read without the bracket's 1/xi, so their rounding does not grow as
    xi -> 0.  The first deviation is relative to the moduli of the terms of
    Theta * H and of H * Theta at the point (their sums' rounding is
    relative to these, and where the terms cancel the values are rounding
    alone) plus xi (|d_t Theta| + |Theta|), which keeps the stencil's
    rounding (about eps xi |Theta| / h) under the bound where H vanishes,
    and never to less than the smallest normal float, since a subnormal
    size carries fewer than 53 bits; the second (exact: N is quadratic) to
    1 + |Theta|.  A time with |cos t~| < 0.2, where the stencil's rounding
    grows, is skipped.  The step is h = 5e-5 / max(1, |m - s| xi |w2|):
    Theta_sm turns at the rate (m - s) xi w2 in t, and the stencil's
    truncation relative to d_t Theta grows as (h times that rate)^4, which
    at a fixed step would pass the bound at high rates near the cut; at
    rates up to 1 the step is 5e-5.
    """
    w1, w2, xi = params.w1, params.w2, params.xi
    n_poly = ZPoly({(1, 1): 0.5, (0, 0): -0.5 * xi})
    # N = x^2/2 - xi/2 is a^dag a; N (w2 N + w1 - w2 xi) is H_W = w2 [x^4/4 - xi x^2
    # + xi^2/2] + w1 N plus w2 xi^2/4, a constant that drops out of every bracket
    ham = GaussPolySymbol.polynomial(n_poly * (n_poly.scale(w2) + ZPoly.constant(w1 - w2 * xi)))
    number = GaussPolySymbol.polynomial(n_poly)
    pde, eig = [], []
    for idx in indices:
        h = 5e-5 / max(1.0, abs(idx.m - idx.s) * xi * abs(w2))
        for t in (u for u in times if abs(math.cos(idx.t_tilde(u, params))) >= 0.2):
            theta = kerr.moyal_solution_symbolic(idx, t, params)
            stencil = [kerr.moyal_solution_symbolic(idx, t + k * h, params)
                       for k in (-2, -1, 1, 2)]
            theta_h = star_gaussian(theta, ham, xi)
            h_theta = star_differential(ham, theta, xi)
            theta_n = star_gaussian(theta, number, xi)
            n_theta = star_differential(number, theta, xi)
            for pt in pts:
                v = [sym(pt) for sym in stencil]
                d_t = (8.0 * (v[2] - v[1]) - (v[3] - v[0])) / (12.0 * h)
                left, right, value = theta_h(pt), h_theta(pt), theta(pt)
                size = (_term_moduli(theta_h, pt) + _term_moduli(h_theta, pt)
                        + xi * (abs(d_t) + abs(value)))
                # size bounds the numerator: it is 0 only when every term is
                pde.append(abs(left - right - 1j * xi * d_t)
                           / max(size, sys.float_info.min))
                eigen = theta_n(pt) - n_theta(pt) - xi * (idx.m - idx.s) * value
                eig.append(abs(eigen) / (1.0 + abs(value)))
    return _worst(pde), _worst(eig)


def validate_moyal(params: kerr.KerrParams) -> SuiteReport:
    report = SuiteReport("moyal")
    rng = np.random.RandomState(_SEED + 1)
    pts = [PhasePoint(q, p) for q, p in rng.uniform(-1.4, 1.4, size=(4, 2))]
    times = [0.3, 1.1, 2.7]

    indices = [kerr.ObservableIndex(s, m) for s in range(3) for m in range(3)]
    theta = {(idx, t): kerr.moyal_solution_symbolic(idx, t, params)
             for idx in indices for t in [0.0] + times}
    dev = _worst(abs(theta[idx, 0.0](pt) - kerr.initial_symbol(idx, params.xi, pt))
                 for idx in indices for pt in pts)
    report.checks.append(CheckResult("t0_reduction", dev, 1e-14))

    dev = _worst(abs(np.conj(theta[idx, t](pt))
                     - theta[kerr.ObservableIndex(idx.m, idx.s), t](pt))
                 for idx in indices for t in times for pt in pts[:2])
    report.checks.append(CheckResult("adjoint_symmetry", dev, 1e-12))

    devs = []
    for idx in (kerr.ObservableIndex(m, m) for m in range(1, 4)):
        late, early = (kerr.moyal_solution_symbolic(idx, t, params) for t in (7.31, 0.0))
        devs += [abs(late(pt) - early(pt)) for pt in pts[:2]]
    report.checks.append(CheckResult("constants_of_motion", _worst(devs), 1e-12))

    pde, eig = moyal_equation_deviations(params, indices, times, pts[:2])
    report.checks.append(CheckResult("pde_residual", pde, 1e-10))
    report.checks.append(CheckResult("angular_eigenvalue", eig, 5e-13))

    dev = _worst(abs(kerr.quantum_trajectory(t, pt, params)
                     - theta[kerr.ObservableIndex(0, 1), t](pt))
                 for t in times for pt in pts[:2])
    report.checks.append(CheckResult("trajectory_consistency", dev, 1e-12))

    # Z(t) * Z(t) = x^2: the conserved intensity through the star product
    devs = []
    for t in times[:2]:
        t01 = theta[kerr.ObservableIndex(0, 1), t]
        t10 = theta[kerr.ObservableIndex(1, 0), t]
        zbar_z = star_gaussian(t10, t01, params.xi)
        z_zbar = star_gaussian(t01, t10, params.xi)
        devs += [abs(zbar_z(pt) + z_zbar(pt) - pt.x2) for pt in pts[:2]]
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
            mapped = s_mat @ (pt.q, pt.p)
            lhs = projector(pt).real
            rhs = states.coherent_projector_symbol(alpha, xi, PhasePoint(*mapped))
            devs.append(abs(lhs - rhs))
    report.checks.append(CheckResult("covariance_identity", _worst(devs), 1e-12))

    s1 = states.squeeze_matrix(0.35, 0.8, xi)
    s2 = states.squeeze_matrix(0.7, 0.8, xi)
    dev = float(np.max(np.abs(s1 @ s1 - s2)))
    report.checks.append(CheckResult("squeeze_group_law", dev, 1e-13))

    state = states.SqueezedState(1.0, -math.log(0.5) / (2.0 * xi), math.pi, xi)
    space = fock.fock_space_for(state)
    v = fock.squeezed_vector(state, space)
    mean_n = space.xi * float(np.arange(space.dim) @ np.abs(v) ** 2)
    dev = abs(mean_n - states.mean_photon_number(state))
    report.checks.append(CheckResult("mean_photon_vs_fock", float(dev), 1e-11))

    # the dim grows like 1/xi with the photon number of |alpha>, the larger state
    alpha, beta = 0.6 + 0.1j, -0.2 + 0.4j
    left, right = (states.SqueezedState(amp, 0.0, 0.0, xi) for amp in (alpha, beta))
    sp = fock.fock_space_for(left)
    ov_fock = complex(np.conj(fock.squeezed_vector(left, sp)) @ fock.squeezed_vector(right, sp))
    dev = abs(ov_fock - expectations.matrix_element(kerr.ObservableIndex(0, 0), 0.0,
                                                    alpha, beta, params))
    report.checks.append(CheckResult("coherent_overlap_vs_fock", float(dev), 1e-14))
    return report


def validate_expectation(params: kerr.KerrParams) -> SuiteReport:
    xi = params.xi
    report = SuiteReport("expectation")

    devs = []
    times = np.linspace(0.0, math.pi / (xi * params.w2), 7)[:-1]
    for s_target in (0.5, 0.2):
        for dphi in (0.0, math.pi):
            tau_abs = -math.log(s_target) / (2.0 * xi)
            state = states.SqueezedState(1.0, tau_abs, dphi, xi)
            space = fock.fock_space_for(state)
            v = fock.squeezed_vector(state, space)
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

    # symbols with an l >= 1 term through the pairing, against the band sweep
    # at 4x the fock_space_for dimension, away from the poles
    space = fock.FockSpace(4 * fock.fock_space_for(mild).dim, xi)
    v, projector, devs = fock.squeezed_vector(mild, space), states.squeezed_projector(mild), []
    for idx in (kerr.ObservableIndex(1, 2), kerr.ObservableIndex(2, 2)):
        ts = [t for t in times if abs(math.cos(idx.t_tilde(t, params))) >= 0.2]
        for t, ref in zip(ts, fock.heisenberg_expectation_sweep(idx, ts, v, space, params)):
            theta = kerr.moyal_solution_symbolic(idx, t, params)
            val = phase_space_inner_product(theta, projector, xi) / (2.0 * math.pi * xi)
            devs.append(abs(val - ref) / (1.0 + abs(ref)))
    report.checks.append(CheckResult("pairing_vs_fock", _worst(devs), 1e-13))
    return report


SUITES = {
    "algebra": validate_algebra,
    "moyal": validate_moyal,
    "states": validate_states,
    "expectation": validate_expectation,
}


def run_suites(names, params: kerr.KerrParams) -> list[SuiteReport]:
    return [SUITES[name](params) for name in names]
