"""Star-product engines, Moyal bracket and trace pairing."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest

import kerrmoyal as km
import kerrmoyal.validate as validate
from kerrmoyal import DegreeCapExceeded, DivergentIntegral
from kerrmoyal.phase_space import GaussPolySymbol, PhasePoint, ZPoly

XI = 1.0

RNG = np.random.RandomState(7)
POINTS = [PhasePoint(q, p) for q, p in RNG.uniform(-1.6, 1.6, size=(8, 2))]


def q_symbol():
    return GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 1.0, 0.0))


def p_symbol():
    return GaussPolySymbol.polynomial(ZPoly.linear_qp(0.0, 0.0, 1.0))


def generic_gaussian():
    """A Gaussian symbol with every part nonzero: form, linear term, constant
    and a polynomial of two terms."""
    return GaussPolySymbol(-0.7j * np.eye(2), np.array([0.2, -0.1j]), 0.1,
                           ZPoly.monomial(1, 1, 0.5) + ZPoly.constant(1.0))


def poisson_bracket(f, g):
    """{f, g} = dq f dp g - dp f dq g of two polynomial symbols, the xi -> 0
    reference of the Moyal bracket: dq = dz + dz*, dp = i (dz - dz*)."""
    def dq_dp(poly):
        dz = ZPoly({(k - 1, l): k * c for (k, l), c in poly.coeffs.items() if k})
        dzbar = ZPoly({(k, l - 1): l * c for (k, l), c in poly.coeffs.items() if l})
        return dz + dzbar, (dz + dzbar.scale(-1)).scale(1j)
    (fq, fp), (gq, gp) = dq_dp(f.poly), dq_dp(g.poly)
    return GaussPolySymbol.polynomial(fq * gp + (fp * gq).scale(-1))


def conjugate(sym):
    """The complex-conjugate symbol: each entry of the Gaussian factor
    conjugated, and c z^k z*^l carried to conj(c) z^l z*^k."""
    return GaussPolySymbol([[v.conjugate() for v in row] for row in sym.quad],
                           [b.conjugate() for b in sym.lin], sym.const.conjugate(),
                           ZPoly({(l, k): c.conjugate() for (k, l), c in sym.poly.coeffs.items()}))


def test_phase_point_views():
    pt = PhasePoint(0.3, -1.2)
    assert pt.z == 0.3 - 1.2j
    assert pt.zbar == np.conj(pt.z)
    assert pt.x2 == pytest.approx(0.3**2 + 1.2**2)
    assert pt.x2 >= 0


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
        a_ad, ad_a = km.star_differential(a, ad, xi), km.star_differential(ad, a, xi)
        comm = GaussPolySymbol.polynomial(a_ad.poly + ad_a.poly.scale(-1.0))
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
                assert abs(b_engine(pt) - ref) <= 1e-13 * (1.0 + abs(ref))


def test_engine_agreement_gaussian_suite():
    # polynomial left factors against a fixed suite of Gaussian symbols; the
    # squeezed projectors have a11 != a22 and a12 != 0, so the anisotropic
    # terms of dz E and dz* E are read too
    gaussians = [
        km.squeezed_projector(km.SqueezedState(0.0, 0.0, 0.0, XI)),
        km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.0, 0.0, XI)),
        km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.4 / XI, 1.1, XI)),
        km.squeezed_projector(km.SqueezedState(0.0, 0.8 / XI, 2.5, XI)),
        generic_gaussian(),
    ]
    monos = [(k, l) for k in range(5) for l in range(5 - k)]
    for k1, l1 in monos:
        f = GaussPolySymbol.polynomial(ZPoly.monomial(k1, l1))
        for g in gaussians:
            d_engine = km.star_differential(f, g, XI)
            b_engine = km.star_gaussian(f, g, XI)
            for pt in POINTS[:3]:
                ref = d_engine(pt)
                assert abs(b_engine(pt) - ref) <= 5e-13 * (1.0 + abs(ref))


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


def test_star_gaussian_associative_on_gaussian_factors():
    # every block of the Berezin congruence is read: the projector brings a
    # linear term and a constant, Theta_12 a form with a cubic polynomial, and
    # each product carries all of them into the next one
    factors = [km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.4 / XI, 1.1, XI)),
               km.moyal_solution_symbolic(km.ObservableIndex(1, 2), 3.0,
                                          km.KerrParams(1.0, 0.1, XI)),
               generic_gaussian()]
    for f, g, h in itertools.permutations(factors):
        left = km.star_gaussian(km.star_gaussian(f, g, XI), h, XI)
        right = km.star_gaussian(f, km.star_gaussian(g, h, XI), XI)
        for pt in POINTS:
            ref = left(pt)
            assert abs(right(pt) - ref) <= 1e-12 * (1.0 + abs(ref))


def test_trace_identity_of_star_gaussian():
    # int f*g = int g*f = int f g: the products' moments are ZPoly, the
    # pairing's plain numbers, and the two are read against each other
    params = km.KerrParams(1.0, 0.1, XI)
    symbols = [km.moyal_solution_symbolic(km.ObservableIndex(s, m), 3.0, params)
               for s, m in ((0, 1), (1, 2), (2, 2), (3, 0))]
    symbols += [GaussPolySymbol.polynomial(ZPoly.monomial(k, l))
                for k, l in ((0, 0), (1, 0), (1, 1), (2, 1), (0, 3))]
    projectors = [km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.0, 0.0, XI)),
                  km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.4 / XI, 1.1, XI))]
    one = GaussPolySymbol.constant(1.0)     # int h = <h, 1>
    for f in symbols:
        for g in projectors:
            ref = km.phase_space_inner_product(f, g, XI)
            for product in (km.star_gaussian(f, g, XI), km.star_gaussian(g, f, XI)):
                integral = km.phase_space_inner_product(product, one, XI)
                assert abs(integral - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("xi", [math.nan, math.inf, 0.0, -1.0, -math.inf])
def test_star_engines_reject_xi_that_is_not_positive_and_finite(xi):
    # at NaN and inf the derivative engine used to return a NaN or inf
    # polynomial without an error; every constructor that takes xi applies
    # the same rule, errors.check_xi (a Fock space used to accept NaN and inf)
    theta = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), 0.3, km.KerrParams(1.0, 0.1, XI))
    for engine in (km.star_differential, km.star_gaussian, km.phase_space_inner_product):
        with pytest.raises(ValueError, match="xi must be positive and finite"):
            engine(km.annihilation_symbol(), theta, xi)
    for build in (lambda: km.KerrParams(1.0, 0.1, xi), lambda: km.FockSpace(64, xi),
                  lambda: km.SqueezedState(1.0, 0.3, 0.0, xi)):
        with pytest.raises(ValueError, match="xi must be positive and finite"):
            build()


def test_involution():
    rng = np.random.RandomState(3)
    coeffs = {(k, l): complex(*rng.uniform(-1, 1, 2))
              for k in range(3) for l in range(3 - k)}
    f = GaussPolySymbol.polynomial(ZPoly(coeffs))
    g = km.squeezed_projector(km.SqueezedState(0.3 + 0.5j, 0.0, 0.0, XI))
    lhs = conjugate(km.star_differential(f, g, XI))
    rhs = km.star_gaussian(conjugate(g), conjugate(f), XI)
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
    # d Theta/dt = {Theta, H}_M: Theta * H goes through star_gaussian and
    # H * Theta through star_differential, s = m included, by the
    # implementation of `kerr validate moyal`.  On this grid the worst
    # deviation is 4.4e-12 (the t-stencil's rounding at h = 5e-5), so the
    # suite's bound of 1e-10 sits 23x above it.
    params = km.KerrParams(w1=0.7, w2=0.3, xi=xi)
    indices = [km.ObservableIndex(s, m) for s in range(3) for m in range(3)]
    pde, eig = validate.moyal_equation_deviations(params, indices, (0.35, 1.2, 2.6, 4.1),
                                                  POINTS[:3])
    assert pde <= 1e-10
    assert eig <= 5e-13


def _faulty_star_gaussian(**scale):
    """star_gaussian with its result's quad or poly scaled by the given factor."""
    real = km.star_gaussian

    def star(f, g, xi):
        out = real(f, g, xi)
        return GaussPolySymbol(np.asarray(out.quad) * scale.get("quad", 1.0), out.lin, out.const,
                               out.poly.scale(scale.get("poly", 1.0)))
    return mock.patch.object(validate, "star_gaussian", star)


def test_number_commutator_sees_an_exponent_fault_in_star_gaussian():
    # Theta * N by star_gaussian and N * Theta by star_differential carry the
    # Gaussian factor of their own engine; an exponent off by 1e-6 reads
    # 2.5e-6 where the two products are compared as values, while symbol
    # sums that merged nearby factors read 6.1e-16
    with _faulty_star_gaussian(quad=1.0 + 1e-6):
        report = validate.validate_moyal(km.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    [eig] = [c for c in report.checks if c.name == "angular_eigenvalue"]
    assert eig.max_deviation > 1e3 * eig.tolerance


def test_moyal_check_crosses_the_engines_for_s_equal_m():
    # the constants of motion are polynomials, yet Theta * H and Theta * N
    # still go through star_gaussian, so a polynomial off by 1e-6 there shows
    # in both identities (sending both sides through star_differential read 0)
    params = km.KerrParams(w1=1.0, w2=0.1, xi=1.0)
    indices = [km.ObservableIndex(m, m) for m in (1, 2, 3)]
    with _faulty_star_gaussian(poly=1.0 + 1e-6):
        pde, eig = validate.moyal_equation_deviations(params, indices, (0.3, 1.1, 2.7),
                                                      POINTS[:3])
    assert pde > 1e3 * 1e-10
    assert eig > 1e5 * 5e-13


@pytest.mark.parametrize("fault,floor", [({"poly": 1.0 + 1e-6}, 1e-7),
                                         ({"quad": 1.0 + 1e-6}, 1e-6)])
def test_moyal_check_sees_star_gaussian_faults_at_strong_chirp(fault, floor):
    # next to the suite's |cos t~| >= 0.2 cut the symbols' chirp is
    # strongest, and pde_residual, which is sized by the moduli of the
    # products' terms, reads each fault of every index with s != m at
    # >= 3.1e-7 (polynomial) and >= 4.0e-6 (form): 3000x and more above the
    # suite's bound of 1e-10
    params = km.KerrParams(w1=1.0, w2=0.1, xi=1.0)
    for s in range(4):
        for m in (m for m in range(4) if m != s):
            times = [tt / ((m - s) * 0.1) for tt in (1.36, -1.36, math.pi - 1.36)]
            with _faulty_star_gaussian(**fault):
                pde, _ = validate.moyal_equation_deviations(
                    params, [km.ObservableIndex(s, m)], times, POINTS[:3])
            assert pde > floor


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
    # |<alpha|beta>|^2 = exp(-|alpha - beta|^2 / xi)
    assert val == pytest.approx(math.exp(-abs(alpha - beta) ** 2 / XI), abs=1e-12)


def test_inner_product_divergent_for_constants():
    one = GaussPolySymbol.constant(1.0)
    with pytest.raises(DivergentIntegral):
        km.phase_space_inner_product(one, one, XI)


def test_inner_product_of_non_finite_form_raises():
    # the symmetry check lets equal infinities through; the pairing's
    # closed-form eigenvalues are then NaN and must not reach the result
    steep = GaussPolySymbol(np.diag([-math.inf, -1.0]), np.zeros(2), 0.0, ZPoly.constant(1.0))
    with pytest.raises(DivergentIntegral):
        km.phase_space_inner_product(steep, GaussPolySymbol.constant(1.0), XI)


def test_inner_product_refuses_a_nan_coefficient():
    # a NaN makes the rounding bound NaN, and bound > tol is False for NaN:
    # the pairing returned nan+nanj instead of raising
    projector = km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.3, 1.1, XI))
    for coeffs in ({(0, 0): math.nan}, {(1, 0): 1.0, (1, 1): complex(0.0, math.nan)}):
        with pytest.raises(km.ToleranceNotMet, match="nan"):
            km.phase_space_inner_product(GaussPolySymbol.polynomial(ZPoly(coeffs)),
                                         projector, XI)


def test_inner_product_refuses_a_product_no_symbol_could_hold():
    # opposite infinities across the two forms sum to a NaN entry, and
    # z^20 z*^20 e^{-x^2} times z^20 z*^20 has degree 80 > DEGREE_CAP; with
    # both faults the form is reported
    def symbol(a11, poly):
        return GaussPolySymbol(np.diag([a11, -1.0]), np.zeros(2), 0.0, poly)

    one, high = ZPoly.constant(1.0), ZPoly.monomial(20, 20)
    cases = [(symbol(math.inf, one), symbol(-math.inf, one), ValueError, "NaN"),
             (symbol(-1.0, high), GaussPolySymbol.polynomial(high), DegreeCapExceeded, "80"),
             (symbol(math.inf, high), symbol(-math.inf, high), ValueError, "NaN")]
    for f, g, error, match in cases:
        for pair in ((f, g), (g, f)):
            with pytest.raises(error, match=match):
                km.phase_space_inner_product(*pair, XI)


def test_star_gaussian_degenerate_form_raises():
    # exp(-(i/xi) x^2) paired with itself zeroes an eigenvalue of the
    # Berezin form: the eps-regularized determinant stays singular
    osc = GaussPolySymbol(-(1j / XI) * np.eye(2), np.zeros(2), 0.0, ZPoly.constant(1.0))
    with pytest.raises(DivergentIntegral):
        km.star_gaussian(osc, osc, XI)


def test_degree_cap_enforced():
    with pytest.raises(DegreeCapExceeded):
        GaussPolySymbol.polynomial(ZPoly.monomial(40, 40))


def test_symbol_is_a_checked_frozen_value():
    poly = ZPoly.monomial(1, 1, 0.5)
    sym = GaussPolySymbol(((-1.0, 0.2j), (0.2j, -2.0)), (0.3, -0.1j), 0.1, poly)
    for name in ("quad", "lin", "const", "poly"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sym, name, getattr(sym, name))
    for quad, lin in (([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], [0.0, 0.0]),
                      ([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="must be 2x2"):
            GaussPolySymbol(quad, lin, 0.0, poly)
    # nested lists of floats store the tuples of complex that tuples do
    from_lists = GaussPolySymbol([[-1.0, 0.2j], [0.2j, -2.0]], [0.3, -0.1j], 0.1, poly)
    assert from_lists == sym
    assert hash(from_lists) == hash(sym)


def test_symbol_path_stays_on_python_scalars():
    # every entry and every value a Python complex, never a numpy scalar,
    # whose arithmetic costs several times as much on every later read
    params = km.KerrParams(1.0, 0.1, XI)
    projector = km.squeezed_projector(km.SqueezedState(0.6 - 0.4j, 0.4 / XI, 1.1, XI))
    mono = GaussPolySymbol.polynomial(ZPoly.monomial(2, 1))
    symbols = [projector]
    for s, m in ((0, 1), (1, 2), (2, 2), (3, 0)):
        theta = km.moyal_solution_symbolic(km.ObservableIndex(s, m), 3.0, params)
        symbols += [theta, km.star_gaussian(mono, theta, XI),
                    km.star_differential(mono, theta, XI), km.star_gaussian(theta, projector, XI)]
        assert type(km.phase_space_inner_product(theta, projector, XI)) is complex
    pt = PhasePoint(0.4, -0.3)
    for sym in symbols:
        entries = [*sym.quad[0], *sym.quad[1], *sym.lin, sym.const, *sym.poly.coeffs.values()]
        assert all(type(v) is complex for v in entries), entries
        assert type(sym(pt)) is complex


def test_star_differential_rejects_gaussian_left_factor():
    gauss = km.squeezed_projector(km.SqueezedState(0.2, 0.0, 0.0, XI))
    with pytest.raises(ValueError, match="star_gaussian"):
        km.star_differential(gauss, km.annihilation_symbol(), XI)
    # the bracket takes both products through star_differential
    for f, g in ((gauss, km.annihilation_symbol()), (km.annihilation_symbol(), gauss)):
        with pytest.raises(ValueError, match="star_gaussian"):
            km.moyal_bracket(f, g, XI)
