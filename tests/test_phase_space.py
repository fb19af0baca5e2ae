"""Star-product engines, Moyal bracket and trace pairing."""

import math

import numpy as np
import pytest

import kerrmoyal as km
from kerrmoyal import DegenerateQuadraticForm, DegreeCapExceeded, DivergentIntegral
from kerrmoyal.phase_space import GaussPolySymbol, PhasePoint, ZPoly

XI = 1.0

RNG = np.random.RandomState(7)
POINTS = [PhasePoint(q, p) for q, p in RNG.uniform(-1.6, 1.6, size=(8, 2))]


def q_symbol():
    return GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 1.0, 0.0))


def p_symbol():
    return GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 0.0, 1.0))


def poisson_bracket(f, g):
    """{f, g} = dq f dp g - dp f dq g of two polynomial symbols, the xi -> 0
    reference of the Moyal bracket: dq = dz + dz*, dp = i (dz - dz*)."""
    fq, fp = f.poly.dz() + f.poly.dzbar(), (f.poly.dz() - f.poly.dzbar()).scale(1j)
    gq, gp = g.poly.dz() + g.poly.dzbar(), (g.poly.dz() - g.poly.dzbar()).scale(1j)
    return GaussPolySymbol.polynomial(fq * gp - fp * gq)


def test_phase_point_views():
    pt = PhasePoint(0.3, -1.2)
    assert pt.z == 0.3 - 1.2j
    assert pt.zbar == np.conj(pt.z)
    assert pt.x2 == pytest.approx(0.3**2 + 1.2**2)
    assert pt.x2 >= 0


def test_poisson_matrix_identities():
    j = km.POISSON_J
    assert np.array_equal(j @ j, -np.eye(2))
    assert np.array_equal(j.T, -j)


def test_a_star_a_is_a_squared():
    a = km.annihilation_symbol()
    prod = km.star_differential(a, a, XI)
    for pt in POINTS:
        assert prod(pt) == pytest.approx((pt.z / math.sqrt(2.0)) ** 2, abs=1e-14)


def test_canonical_pair_star_and_bracket():
    q, p = q_symbol(), p_symbol()
    qp = km.star_differential(q, p, XI)
    for pt in POINTS:
        assert qp(pt) == pytest.approx(pt.q * pt.p + 0.5j * XI, abs=1e-14)
    bracket = km.moyal_bracket(q, p, XI)
    for pt in POINTS:
        assert bracket(pt) == pytest.approx(1.0, abs=1e-13)


def test_a_adag_commutator_is_xi():
    a, ad = km.annihilation_symbol(), km.creation_symbol()
    for xi in (1.0, 0.3):
        comm = km.star_differential(a, ad, xi) - km.star_differential(ad, a, xi)
        for pt in POINTS[:4]:
            assert comm(pt) == pytest.approx(xi, abs=1e-14)


def test_star_gaussian_identity_symbol():
    one = GaussPolySymbol.constant(1.0)
    prod = km.star_gaussian(one, one, XI)
    for pt in POINTS:
        assert prod(pt) == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize("xi", [1.0, 0.5])
def test_engine_agreement_monomials(xi):
    # exhaustive over z^k zbar^l with k+l <= 4 on both sides
    monos = [(k, l) for k in range(5) for l in range(5 - k)]
    for k1, l1 in monos:
        f = GaussPolySymbol.polynomial(ZPoly.monomial(k1, l1))
        for k2, l2 in monos:
            g = GaussPolySymbol.polynomial(ZPoly.monomial(k2, l2))
            d_engine = km.star_differential(f, g, xi)
            b_engine = km.star_gaussian(f, g, xi)
            for pt in POINTS[:3]:
                ref = d_engine(pt)
                assert abs(b_engine(pt) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_engine_agreement_gaussian_suite():
    # polynomial left factors against a fixed suite of Gaussian symbols
    gaussians = [
        km.squeezed_projector(km.SqueezedState(0.0, 0.0, 0.0, XI)),
        km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.0, 0.0, XI)),
        GaussPolySymbol.gaussian(-0.7j * np.eye(2), np.array([0.2, -0.1j]), 0.1,
                                 ZPoly.monomial(1, 1, 0.5) + ZPoly.one()),
    ]
    monos = [(k, l) for k in range(3) for l in range(3 - k)]
    for k1, l1 in monos:
        f = GaussPolySymbol.polynomial(ZPoly.monomial(k1, l1))
        for g in gaussians:
            d_engine = km.star_differential(f, g, XI)
            b_engine = km.star_gaussian(f, g, XI)
            for pt in POINTS[:3]:
                ref = d_engine(pt)
                assert abs(b_engine(pt) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_associativity_low_degree():
    rng = np.random.RandomState(12)
    for _ in range(4):
        polys = []
        for _ in range(3):
            coeffs = {(k, l): complex(*rng.uniform(-1, 1, 2))
                      for k in range(3) for l in range(3 - k)}
            polys.append(GaussPolySymbol.polynomial(ZPoly(coeffs)))
        f, g, h = polys
        left = km.star_differential(km.star_differential(f, g, XI), h, XI)
        right = km.star_differential(f, km.star_differential(g, h, XI), XI)
        for pt in POINTS[:4]:
            ref = left(pt)
            assert abs(right(pt) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_involution():
    rng = np.random.RandomState(3)
    coeffs = {(k, l): complex(*rng.uniform(-1, 1, 2))
              for k in range(3) for l in range(3 - k)}
    f = GaussPolySymbol.polynomial(ZPoly(coeffs))
    g = km.squeezed_projector(km.SqueezedState(0.3 + 0.5j, 0.0, 0.0, XI))
    lhs = km.star_differential(f, g, XI).conjugate()
    rhs = km.star_gaussian(g.conjugate(), f.conjugate(), XI)
    for pt in POINTS[:4]:
        assert abs(lhs(pt) - rhs(pt)) <= 1e-10 * (1.0 + abs(lhs(pt)))


def test_moyal_bracket_quadratic_is_poisson():
    # {q^2, p}_M = 2q exactly: the derivative series truncates
    q2 = km.star_differential(q_symbol(), q_symbol(), XI)
    bracket = km.moyal_bracket(q2, p_symbol(), XI)
    for pt in POINTS:
        assert bracket(pt) == pytest.approx(2.0 * pt.q, abs=1e-13)


def _kerr_hamiltonian_poly(w1, w2, xi):
    # w2 [x^4/4 - xi x^2 + xi^2/2] + w1 [x^2/2 - xi/2] with x^2 = z zbar
    return GaussPolySymbol.polynomial(ZPoly({
        (2, 2): 0.25 * w2,
        (1, 1): -w2 * xi + 0.5 * w1,
        (0, 0): 0.5 * w2 * xi * xi - 0.5 * w1 * xi,
    }))


def test_hamiltonian_number_bracket_vanishes():
    h = _kerr_hamiltonian_poly(1.0, 1.0, XI)
    n = GaussPolySymbol.polynomial(ZPoly({(1, 1): 0.5, (0, 0): -0.5 * XI}))
    bracket = km.moyal_bracket(h, n, XI)
    for pt in POINTS:
        assert abs(bracket(pt)) <= 1e-12


@pytest.mark.parametrize("xi", [0.5, 1.0, 2.0])
def test_moyal_equation_through_both_star_engines(xi):
    # d Theta/dt = {Theta, H}_M = (Theta * H - H * Theta)/(i xi).  For s != m
    # Theta carries a Gaussian factor, so Theta * H goes through star_gaussian
    # and H * Theta through star_differential.  d/dt is a fourth-order central
    # difference of moyal_solution; the worst deviation on this grid is
    # 7.2e-12 (rounding at h = 5e-5), so the bound sits 14x above it.
    params = km.KerrParams(w1=0.7, w2=0.3, xi=xi)
    ham = _kerr_hamiltonian_poly(params.w1, params.w2, xi)
    h = 5e-5
    devs = []
    for s in range(3):
        for m in range(3):
            idx = km.ObservableIndex(s, m)
            for t in (0.35, 1.2, 2.6, 4.1):
                if abs(math.cos(idx.t_tilde(t, params))) < 0.2:
                    continue
                bracket = km.moyal_bracket(km.moyal_solution_symbolic(idx, t, params),
                                           ham, xi)
                for pt in POINTS[:3]:
                    def theta(u):
                        return km.moyal_solution(idx, u, pt, params)
                    d_t = (8.0 * (theta(t + h) - theta(t - h))
                           - (theta(t + 2.0 * h) - theta(t - 2.0 * h))) / (12.0 * h)
                    devs.append(abs(bracket(pt) - d_t) / (1.0 + abs(d_t)))
    assert np.max(devs) <= 1e-10


def test_semiclassical_limit_of_bracket():
    # For xi-independent cubics the Moyal-Poisson gap is exactly O(xi^2)
    rng = np.random.RandomState(5)
    coeffs_f = {(k, l): complex(*rng.uniform(-1, 1, 2))
                for k in range(4) for l in range(4 - k)}
    coeffs_g = {(k, l): complex(*rng.uniform(-1, 1, 2))
                for k in range(4) for l in range(4 - k)}
    f = GaussPolySymbol.polynomial(ZPoly(coeffs_f))
    g = GaussPolySymbol.polynomial(ZPoly(coeffs_g))
    pb = poisson_bracket(f, g)
    gaps = []
    for xi in (1e-2, 1e-3):
        mb = km.moyal_bracket(f, g, xi)
        gaps.append(max(abs(mb(pt) - pb(pt)) for pt in POINTS))
    ratio = gaps[0] / gaps[1]
    assert 80.0 <= ratio <= 120.0


def test_poisson_bracket_canonical():
    pb = poisson_bracket(q_symbol(), p_symbol())
    for pt in POINTS[:3]:
        assert pb(pt) == pytest.approx(1.0, abs=1e-14)


# ---------------------------------------------------------------------------
# trace pairing
# ---------------------------------------------------------------------------

def test_inner_product_trace_of_projector():
    proj = km.squeezed_projector(km.SqueezedState(0.7 + 0.1j, 0.0, 0.0, XI))
    val = km.phase_space_inner_product(proj, GaussPolySymbol.constant(1.0), XI)
    assert val == pytest.approx(2.0 * math.pi * XI, abs=1e-10)


def test_inner_product_purity():
    proj = km.squeezed_projector(km.SqueezedState(0.5 - 0.3j, 0.0, 0.0, XI))
    val = km.phase_space_inner_product(proj, proj, XI)
    assert val == pytest.approx(2.0 * math.pi * XI, abs=1e-10)


def test_inner_product_overlap_structure():
    alpha, beta = 0.9 + 0.2j, -0.3 + 0.6j
    pa = km.squeezed_projector(km.SqueezedState(alpha, 0.0, 0.0, XI))
    pb = km.squeezed_projector(km.SqueezedState(beta, 0.0, 0.0, XI))
    val = km.phase_space_inner_product(pa, pb, XI) / (2.0 * math.pi * XI)
    assert val == pytest.approx(abs(km.coherent_overlap(alpha, beta, XI)) ** 2, abs=1e-12)


def test_inner_product_divergent_for_constants():
    one = GaussPolySymbol.constant(1.0)
    with pytest.raises(DivergentIntegral):
        km.phase_space_inner_product(one, one, XI)


def test_inner_product_of_non_finite_form_raises():
    # the symmetry check lets equal infinities through; the pairing's
    # closed-form eigenvalues are then NaN and must not reach the result
    steep = GaussPolySymbol.gaussian(np.diag([-math.inf, -1.0]))
    with pytest.raises(DivergentIntegral):
        km.phase_space_inner_product(steep, GaussPolySymbol.constant(1.0), XI)


def test_star_gaussian_degenerate_form_raises():
    # exp(-(i/xi) x^2) paired with itself zeroes an eigenvalue of the
    # Berezin form: the eps-regularized determinant stays singular
    osc = GaussPolySymbol.gaussian(-(1j / XI) * np.eye(2))
    with pytest.raises(DegenerateQuadraticForm):
        km.star_gaussian(osc, osc, XI)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapExceeded):
        GaussPolySymbol.polynomial(ZPoly.monomial(40, 40))


def test_star_differential_rejects_gaussian_left_factor():
    gauss = km.squeezed_projector(km.SqueezedState(0.2, 0.0, 0.0, XI))
    with pytest.raises(ValueError, match="star_gaussian"):
        km.star_differential(gauss, km.annihilation_symbol(), XI)
