"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary; every tolerance below is fixed, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest

import kerrmoyal as km
import kerrmoyal.cli as cli
import kerrmoyal.validate as validate
from kerrmoyal.phase_space import PhasePoint

from fock_reference import annihilation_matrix

XI = 1.0
PARAMS = km.KerrParams(w1=1.0, w2=0.1, xi=XI)
T_SING = (math.pi / 2.0) / (XI * PARAMS.w2)

S_GRID = (1.0, 0.5, 0.2, 0.1)
DPHI_GRID = (0.0, math.pi)


def _state(s_target, delta_phi, alpha=1.0, xi=XI):
    tau_abs = -math.log(s_target) / (2.0 * xi)
    return km.SqueezedState(alpha, tau_abs, delta_phi + 2 * np.angle(alpha), xi)


def _report(num, name, worst, tol, extra=""):
    status = "PASS" if worst <= tol else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} "
          f"(max deviation {worst:.3e}, tolerance {tol:.1e}{extra})")
    return status == "PASS"


def _time_grid():
    times = np.linspace(0.0, math.pi / (XI * PARAMS.w2), 25)
    return [float(t) for t in times
            if abs(math.cos(XI * PARAMS.w2 * t)) > 1e-6]


def test_criterion_01_oracle_triangle():
    start = time.time()
    worst_fock = 0.0
    worst_quad = 0.0
    for s_target in S_GRID:
        for dphi in DPHI_GRID:
            state = _state(s_target, dphi)
            space = km.fock_space_for(state, cap=2048)
            vec = km.squeezed_vector(state, space)
            times = _time_grid()
            oracle = km.heisenberg_expectation_sweep(
                km.ObservableIndex(0, 1), times, vec, space, PARAMS)
            for t, ref in zip(times, oracle):
                closed = km.expectation_a_closed(t, state, PARAMS).value
                worst_fock = max(worst_fock,
                                 abs(closed - ref) / (1.0 + abs(closed)))
                quad = km.expectation_a_quadrature(t, state, PARAMS, tol=1e-8)
                worst_quad = max(worst_quad,
                                 abs(quad - closed) / (1.0 + abs(closed)))
    elapsed = time.time() - start
    ok_fock = _report(1, "oracle-triangle closed-vs-fock", worst_fock, 1e-10,
                      extra=f", runtime {elapsed:.1f}s")
    ok_quad = _report(1, "oracle-triangle quadrature-vs-closed", worst_quad, 1e-10)
    assert ok_fock and ok_quad
    assert elapsed <= 120.0


def test_criterion_02_singular_limit_value():
    state = _state(0.1, math.pi)
    val = km.expectation_a_closed(T_SING, state, PARAMS).value
    dev = abs(abs(val) - 10.0 * math.exp(-2.0))
    assert _report(2, "singular-limit magnitude", dev, 1e-14)


def test_criterion_03_no_squeeze_reduction():
    state = km.SqueezedState(1.0, 0.0, 0.0, XI)
    worst = 0.0
    for t in np.linspace(0.0, math.pi / (XI * PARAMS.w2), 25):
        val = km.expectation_a_closed(float(t), state, PARAMS).value
        ref = state.alpha * np.exp(
            -1j * PARAMS.w1 * t
            - 2j * abs(state.alpha) ** 2 / XI * math.sin(XI * PARAMS.w2 * t)
            * np.exp(-1j * XI * PARAMS.w2 * t))
        worst = max(worst, abs(val - ref))
    assert _report(3, "no-squeeze reduction", worst, 1e-12)


def test_criterion_04_matrix_elements():
    space = km.FockSpace(96, XI)
    alpha, beta = 1.0, 0.5 + 0.3j
    va, vb = (km.squeezed_vector(km.SqueezedState(amp, 0.0, 0.0, XI), space)
              for amp in (alpha, beta))
    worst = 0.0
    for s in range(4):
        for m in range(4):
            idx = km.ObservableIndex(s, m)
            for t in (0.0, 0.3, 0.4, 0.7, 1.1, 1.9, 2.7, 5.0, 6.3):
                closed = km.matrix_element(idx, t, alpha, beta, PARAMS)
                oracle = km.heisenberg_matrix_element(idx, t, va, vb, space, PARAMS)
                worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-30))
    assert _report(4, "coherent matrix elements", worst, 1e-13)


def test_criterion_05_pde_residual_and_eigenvalue():
    # Theta * H - H * Theta = i xi d_t Theta and Theta * N - N * Theta =
    # xi (m-s) Theta through both star engines, by the implementation
    # `kerr validate moyal` runs, on this grid and at its bounds
    params = km.KerrParams(w1=1.0, w2=1.0, xi=XI)
    rng = np.random.RandomState(17)
    points = [PhasePoint(q, p) for q, p in rng.uniform(-1.4, 1.4, size=(5, 2))]
    indices = [km.ObservableIndex(s, m) for s in range(3) for m in range(3)]
    worst_pde, worst_eig = validate.moyal_equation_deviations(
        params, indices, (0.08, 0.22, 0.38, 0.52, 0.66), points)
    ok_pde = _report(5, "moyal equation through the star engines", worst_pde, 1e-10)
    ok_eig = _report(5, "number commutator eigenvalue", worst_eig, 5e-13)
    assert ok_pde and ok_eig


def test_criterion_06_constants_and_adjoint_symmetry():
    params = km.KerrParams(w1=1.0, w2=1.0, xi=XI)
    rng = np.random.RandomState(29)
    worst_const = 0.0
    for m in range(6):
        idx = km.ObservableIndex(m, m)
        for _ in range(4):
            pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
            v0 = km.moyal_solution_symbolic(idx, 0.0, params)(pt)
            vt = km.moyal_solution_symbolic(idx, float(rng.uniform(0.1, 9.0)), params)(pt)
            worst_const = max(worst_const, abs(vt - v0))
    worst_adj = 0.0
    for _ in range(24):
        s, m = rng.randint(0, 6), rng.randint(0, 6)
        t = float(rng.uniform(0.05, 2.0))
        idx = km.ObservableIndex(s, m)
        if s != m and abs(math.cos(idx.t_tilde(t, params))) < 1e-3:
            continue
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        v = km.moyal_solution_symbolic(idx, t, params)(pt)
        w = km.moyal_solution_symbolic(km.ObservableIndex(m, s), t, params)(pt)
        worst_adj = max(worst_adj, abs(np.conj(v) - w) / (1.0 + abs(v)))
    ok_const = _report(6, "constants of motion", worst_const, 1e-12)
    ok_adj = _report(6, "adjoint symmetry", worst_adj, 1e-12)
    assert ok_const and ok_adj


def test_criterion_07_star_product_suite():
    params = km.KerrParams(w1=1.0, w2=1.0, xi=XI)
    rng = np.random.RandomState(31)
    pts = [PhasePoint(q, p) for q, p in rng.uniform(-1.5, 1.5, size=(4, 2))]

    a_sym = km.annihilation_symbol()
    ad_sym = km.creation_symbol()
    worst_aa = max(abs(km.star_differential(a_sym, a_sym, XI)(pt)
                       - (pt.z / math.sqrt(2.0)) ** 2) for pt in pts)
    a_ad = km.star_differential(a_sym, ad_sym, XI)
    ad_a = km.star_differential(ad_sym, a_sym, XI)
    comm = km.GaussPolySymbol.polynomial(a_ad.poly + ad_a.poly.scale(-1.0))
    worst_comm = max(abs(comm(pt) - XI) for pt in pts)

    worst_engines = 0.0
    monos = [(k, l) for k in range(4) for l in range(4 - k)]
    for k1, l1 in monos:
        f = km.GaussPolySymbol.polynomial(km.ZPoly.monomial(k1, l1))
        for k2, l2 in monos:
            g = km.GaussPolySymbol.polynomial(km.ZPoly.monomial(k2, l2))
            d_val = km.star_differential(f, g, XI)
            b_val = km.star_gaussian(f, g, XI)
            for pt in pts[:2]:
                ref = d_val(pt)
                worst_engines = max(worst_engines,
                                    abs(b_val(pt) - ref) / (1.0 + abs(ref)))

    # Z(t) * Z(t) = x^2 assembled from the real/imaginary parts of Theta_01;
    # random times avoid both the singular window and the degenerate
    # tan = +/-1 forms of the same-order products
    worst_zz = 0.0
    count = 0
    while count < 10:
        t = float(rng.uniform(0.05, 1.45))
        tt = t * params.xi * params.w2
        if abs(math.cos(tt)) < 0.05 or abs(abs(math.tan(tt)) - 1.0) < 0.05:
            continue
        count += 1
        t01 = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), t, params)
        t10 = km.moyal_solution_symbolic(km.ObservableIndex(1, 0), t, params)
        p01_01 = km.star_gaussian(t01, t01, XI)
        p01_10 = km.star_gaussian(t01, t10, XI)
        p10_01 = km.star_gaussian(t10, t01, XI)
        p10_10 = km.star_gaussian(t10, t10, XI)
        pt = PhasePoint(*rng.uniform(-1.5, 1.5, 2))
        qq = 0.5 * (p01_01(pt) + p01_10(pt) + p10_01(pt) + p10_10(pt))
        pp = -0.5 * (p01_01(pt) - p01_10(pt) - p10_01(pt) + p10_10(pt))
        worst_zz = max(worst_zz, abs(qq + pp - pt.x2))

    ok = (_report(7, "a*a = a^2", worst_aa, 1e-12)
          and _report(7, "a*abar - abar*a = xi", worst_comm, 1e-12)
          and _report(7, "engine agreement", worst_engines, 1e-13)
          and _report(7, "Z(t)*Z(t) = x^2", worst_zz, 5e-14))
    assert ok


def test_criterion_08_semiclassical_convergence():
    params_of = lambda xi: km.KerrParams(w1=1.0, w2=1.0, xi=xi)
    pt = PhasePoint(1.1, -0.6)
    xis = (2e-2, 1e-2, 5e-3)

    worst_lo, worst_hi = np.inf, 0.0
    for t in (0.5, 1.5):
        res = [abs(km.quantum_trajectory(t, pt, params_of(xi))
                   - km.semiclassical_trajectory(t, pt, params_of(xi)))
               for xi in xis]
        for r1, r2 in zip(res, res[1:]):
            worst_lo, worst_hi = min(worst_lo, r1 / r2), max(worst_hi, r1 / r2)
    ratios_traj_ok = 3.5 <= worst_lo and worst_hi <= 4.5

    for t in (0.05, 0.3):
        res = []
        for xi in xis:
            state = km.SqueezedState(1.0, 0.15, 1.2, xi)
            res.append(abs(km.expectation_a_closed(t, state, params_of(xi)).value
                           - km.expectation_a_semiclassical(t, state, params_of(xi))))
        for r1, r2 in zip(res, res[1:]):
            worst_lo, worst_hi = min(worst_lo, r1 / r2), max(worst_hi, r1 / r2)
    ratios_ok = 3.5 <= worst_lo and worst_hi <= 4.5
    status = "PASS" if (ratios_traj_ok and ratios_ok) else "FAIL"
    print(f"ACCEPTANCE 08 semiclassical O(xi^2) rates: {status} "
          f"(halving ratios in [{worst_lo:.2f}, {worst_hi:.2f}], required [3.5, 4.5])")

    params = params_of(1.0)
    h = 1e-5
    worst_z1 = 0.0
    worst_jac = 0.0
    for t in (0.3, 1.0, 5.0):
        z1 = km.flow_correction_z1(t, pt, params)
        fd = _trajectory_xi_derivative(t, pt, 1.0, 1.0, h)
        worst_z1 = max(worst_z1, abs(math.sqrt(2.0) * z1 - complex(*fd)))
        worst_jac = max(worst_jac, km.jacobi_residual(t, pt, params))
    ok_z1 = _report(8, "z1 vs numeric xi-derivative", worst_z1, 1e-6)
    ok_jac = _report(8, "z1 Jacobi-field residual", worst_jac, 1e-6)
    assert ratios_traj_ok and ratios_ok and ok_z1 and ok_jac


def _trajectory_xi_derivative(t, pt, w1, w2, h):
    def raw(xi):
        phase = xi * w2 * t
        phi = 2.0 * xi * w2 * t + pt.x2 * (w2 * t - math.tan(phase) / xi)
        theta = (np.exp(1j * phi) / math.cos(phase) ** 2
                 * np.exp(-1j * (w2 * pt.x2 + w1) * t) * pt.z / math.sqrt(2.0))
        return np.array([math.sqrt(2.0) * theta.real, math.sqrt(2.0) * theta.imag])
    return (raw(h) - raw(-h)) / (2.0 * h)


def test_criterion_09_state_suite():
    worst_sr_closed = 0.0
    for s_target in S_GRID:
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            state = km.SqueezedState(
                0.8 + 0.3j, -math.log(s_target) / (2.0 * XI), phi, XI)
            var_q, var_p, cov_f = km.variances(state)
            worst_sr_closed = max(worst_sr_closed,
                                  abs(var_q * var_p - cov_f**2 - XI**2 / 4.0))

    state = _state(0.5, math.pi)
    space = km.fock_space_for(state)
    vec = km.squeezed_vector(state, space)
    a = annihilation_matrix(space)
    q_op = (a + a.conj().T) / math.sqrt(2.0)
    p_op = (a - a.conj().T) / (1j * math.sqrt(2.0))
    mq = float(np.real(np.conj(vec) @ (q_op @ vec)))
    mp = float(np.real(np.conj(vec) @ (p_op @ vec)))
    vq = float(np.real(np.conj(vec) @ (q_op @ q_op @ vec))) - mq * mq
    vp = float(np.real(np.conj(vec) @ (p_op @ p_op @ vec))) - mp * mp
    sym = q_op @ p_op + p_op @ q_op
    cov = 0.5 * float(np.real(np.conj(vec) @ (sym @ vec))) - mq * mp
    worst_sr_fock = abs(vq * vp - cov**2 - XI**2 / 4.0)

    n_op = np.diag(XI * np.arange(space.dim)).astype(complex)
    worst_photon = abs(float(np.real(np.conj(vec) @ (n_op @ vec)))
                       - km.mean_photon_number(state))

    rng = np.random.RandomState(5)
    worst_cov = 0.0
    for _ in range(6):
        alpha = complex(*rng.uniform(-1, 1, 2))
        st = km.SqueezedState(alpha, rng.uniform(0, 1.0),
                              rng.uniform(0, 2 * math.pi), XI)
        s_mat = km.squeeze_matrix(st.tau_abs, st.tau_phase, XI)
        projector = km.squeezed_projector(st)
        for q, p in rng.uniform(-1.5, 1.5, size=(4, 2)):
            pt = PhasePoint(q, p)
            mapped = PhasePoint(*(s_mat @ (pt.q, pt.p)))
            worst_cov = max(worst_cov,
                            abs(projector(pt).real
                                - km.coherent_projector_symbol(alpha, XI, mapped)))

    ok = (_report(9, "SR saturation (closed form)", worst_sr_closed, 1e-12)
          and _report(9, "SR saturation (fock vectors)", worst_sr_fock, 5e-13)
          and _report(9, "mean photon number vs oracle", worst_photon, 1e-12)
          and _report(9, "covariance identity", worst_cov, 1e-12))
    assert ok


def test_criterion_10_figure_regeneration(tmp_path):
    # byte-identical reruns
    for name in ("qampl", "qphase", "squeeze-num", "squeeze-phase"):
        f1 = tmp_path / f"{name}-1.csv"
        f2 = tmp_path / f"{name}-2.csv"
        for f in (f1, f2):
            assert cli.main(["figure", name, "--steps", "201", "--out", str(f)]) == 0
        assert f1.read_bytes() == f2.read_bytes()
        text = f1.read_text()
        assert "nan" not in text.lower() and "inf" not in text.lower()

    # sec^2 envelope of the amplitude ratio, with singular sentinels
    lines = (tmp_path / "qampl-1.csv").read_text().splitlines()[2:]
    rows = [line.split(",") for line in lines]
    xi1 = [r for r in rows if float(r[0]) == 1.0]
    ratios = [float(r[2]) for r in xi1 if r[2] != "singular"]
    assert any(r[2] == "singular" for r in xi1)
    assert max(ratios) > 100.0 and ratios[0] == 1.0

    # Phi range near the singular time grows monotonically with x^2
    rows = [line.split(",") for line in
            (tmp_path / "qphase-1.csv").read_text().splitlines()[2:]]
    ranges = {}
    for t_str, x2_str, phi_str in rows:
        if phi_str == "singular":
            continue
        t = float(t_str)
        if abs(t - math.pi / 2.0) < 0.3:
            x2 = float(x2_str)
            lo, hi = ranges.get(x2, (np.inf, -np.inf))
            ranges[x2] = (min(lo, float(phi_str)), max(hi, float(phi_str)))
    spans = [ranges[x2][1] - ranges[x2][0] for x2 in sorted(ranges)]
    monotone_phi = all(b > a for a, b in zip(spans, spans[1:]))

    # number-squeezing peak growth / phase-squeezing flatness
    t_sing = (math.pi / 2.0) / 0.1
    peaks, flats, t0_amp = {}, {}, {}
    for kind, store in (("squeeze-num", peaks), ("squeeze-phase", flats)):
        rows = [line.split(",") for line in
                (tmp_path / f"{kind}-1.csv").read_text().splitlines()[2:]]
        for t_str, s_str, mq_str, mp_str in rows:
            t, s = float(t_str), float(s_str)
            amp = math.hypot(float(mq_str), float(mp_str))
            if kind == "squeeze-phase" and t == 0.0:
                t0_amp[s] = amp
            if abs(t - t_sing) < 0.2 * t_sing:
                store[s] = max(store.get(s, 0.0), amp)
    peak_growth = peaks[0.1] > peaks[0.2] > peaks[0.5]
    flatness = all(flats[s] <= 0.1 * t0_amp[s] for s in (0.5, 0.2, 0.1))

    ok = monotone_phi and peak_growth and flatness
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE 10 figure regeneration: {status} "
          f"(byte-identical reruns, sec^2 envelope, Phi width monotone: {monotone_phi}, "
          f"peak growth: {peak_growth}, phase-squeeze flatness: {flatness})")
    assert ok
