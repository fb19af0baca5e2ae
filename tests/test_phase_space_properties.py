"""Property checks of the Gaussian-symbol class and the trace pairing.

A symbol stores the symmetric part of its quadratic form, since the
exponent sees nothing else: its value, star products and pairing are those
of a symbol built from that part, and the derivatives that the derivative
star engine takes, read from z * g = z g + xi dz* g and
z* * g = z* g - xi dz g, agree with a finite difference of the symbol's own
values.  The library does its 2x2 algebra on Python scalars; the pairing
is held to a reference built here from ``numpy.linalg.eigvals`` and
``inv``.  The two star engines agree on a polynomial left factor times
Theta_sm and times a squeezed projector.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import kerrmoyal as km
from kerrmoyal import DivergentIntegral
from kerrmoyal.phase_space import (GaussPolySymbol, PhasePoint, ZPoly, star_differential,
                                   star_gaussian)

NON_FINITE = [complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
              complex(-math.inf, 1.0), complex(0.0, math.inf), complex(math.inf, math.nan)]
# None leaves the matrix finite; a tuple of entries gets the drawn value
ENTRIES = [None, ((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),), ((0, 1), (1, 0))]


def _complex(max_magnitude):
    return st.complex_numbers(max_magnitude=max_magnitude, allow_nan=False,
                              allow_infinity=False)


def _integral(sym):
    """int sym(x) d^2x, as the pairing with the constant 1."""
    return km.phase_space_inner_product(sym, GaussPolySymbol.constant(1.0), 1.0)


def _polynomial(max_terms):
    """Coefficient tables of degree <= 4 with 1 to max_terms terms."""
    return st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda kl: sum(kl) <= 4),
        _complex(2.0).filter(lambda c: abs(c) > 1e-3), min_size=1, max_size=max_terms)


# ---------------------------------------------------------------------------
# the stored form is the symmetric part
# ---------------------------------------------------------------------------

def _outcome(fn):
    """fn()'s value, or the type of the exception it raised."""
    try:
        return fn()
    except Exception as exc:    # noqa: BLE001 - the type is the outcome
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(a11=_complex(1e6), a22=_complex(1e6), a21=_complex(1e300),
       gap=st.floats(0.0, 2.0), gap_arg=st.floats(-math.pi, math.pi),
       entries=st.sampled_from(ENTRIES), bad=st.sampled_from(NON_FINITE))
@example(a11=1.0, a22=1.0, a21=1.0, gap=1.0, gap_arg=0.0, entries=None, bad=NON_FINITE[0])
@example(a11=1.0, a22=1.0, a21=1e5, gap=1.0, gap_arg=math.pi, entries=None,
         bad=NON_FINITE[0])
@example(a11=1.0, a22=1.0, a21=1e308 + 1e308j, gap=0.5, gap_arg=0.0, entries=None,
         bad=NON_FINITE[0])
@example(a11=0j, a22=0j, a21=0j, gap=1.0, gap_arg=1.8125, entries=None, bad=NON_FINITE[0])
def test_stored_form_is_the_symmetric_part(a11, a22, a21, gap, gap_arg, entries, bad):
    # the off-diagonal gap is drawn in units of 1e-12 + 1e-5 |a21|, the
    # tolerance of the former symmetry check, so asymmetries on both sides
    # of it are stored as their symmetric part
    with np.errstate(all="ignore"):
        bound = 1e-12 + 1e-5 * float(np.abs(a21))
    a12 = a21 + gap * bound * cmath.exp(1j * gap_arg) if math.isfinite(bound) else a21
    quad = np.array([[a11, a12], [a21, a22]], dtype=complex)
    for entry in entries or ():
        quad[entry] = bad
    # (A + A^T)/2, with a pair that is already equal kept as given
    with np.errstate(all="ignore"):
        sym_part = np.where(quad == quad.T, quad, 0.5 * (quad + quad.T))
    lin, poly = np.array([0.3 - 0.1j, -0.2j]), ZPoly({(0, 0): 1.0, (1, 2): 0.5 - 1j})
    if np.isnan(sym_part).any():
        with pytest.raises(ValueError, match="NaN"):
            GaussPolySymbol(quad, lin, 0.1, poly)
        return
    sym = GaussPolySymbol(quad, lin, 0.1, poly)
    ref = GaussPolySymbol(sym_part, lin, 0.1, poly)
    np.testing.assert_array_equal(sym.quad, sym_part)
    pt = PhasePoint(0.4, -0.3)
    # a value whose exponent overflows raises OverflowError: compare outcomes
    with np.errstate(all="ignore"):
        np.testing.assert_equal(_outcome(lambda: sym(pt)), _outcome(lambda: ref(pt)))
        for op in (km.annihilation_symbol(), km.creation_symbol()):
            got, want = star_differential(op, sym, 1.0), star_differential(op, ref, 1.0)
            np.testing.assert_array_equal(got.quad, want.quad)
            np.testing.assert_equal(got.poly.coeffs, want.poly.coeffs)
            np.testing.assert_equal(_outcome(lambda: got(pt)), _outcome(lambda: want(pt)))
        np.testing.assert_equal(_outcome(lambda: _integral(sym)),
                                _outcome(lambda: _integral(ref)))


def test_derivative_of_an_asymmetric_form_matches_its_values():
    # the exponent sees (a12 + a21)/2; a derivative that read a12 alone was
    # off by 1.1e-6 relative here.  The derivatives are the star engine's:
    # (z * g - z g)/xi = dz* g and (z* g - z* * g)/xi = dz g
    xi = 1.0
    sym = GaussPolySymbol(np.array([[-1.0, 1.0], [1.0 + 5e-6, -2.0]]),
                          np.array([0.2, -0.1j]), 0.0, ZPoly({(1, 0): 1.0, (0, 1): 0.5j}))
    q, p, h = 0.3, -0.2, 1e-3

    def d1(fun):
        # 4th-order central first derivative
        return (-fun(2 * h) + 8 * fun(h) - 8 * fun(-h) + fun(-2 * h)) / (12 * h)

    d_q = d1(lambda u: sym(PhasePoint(q + u, p)))
    d_p = d1(lambda u: sym(PhasePoint(q, p + u)))
    pt = PhasePoint(q, p)
    z_star = star_differential(GaussPolySymbol.polynomial(ZPoly.monomial(1, 0)), sym, xi)
    zbar_star = star_differential(GaussPolySymbol.polynomial(ZPoly.monomial(0, 1)), sym, xi)
    d_z = (pt.zbar * sym(pt) - zbar_star(pt)) / xi
    d_zbar = (z_star(pt) - pt.z * sym(pt)) / xi
    for der, ref in ((d_z, 0.5 * (d_q - 1j * d_p)), (d_zbar, 0.5 * (d_q + 1j * d_p))):
        assert abs(der - ref) <= 1e-9 * abs(ref)


# ---------------------------------------------------------------------------
# trace pairing against a LAPACK reference
# ---------------------------------------------------------------------------

def _double_factorial(n):
    return math.prod(range(n, 0, -2))


def _centered_moment(i, j, cuu, cuv, cvv):
    """E[u^i v^j] of centred jointly Gaussian (u, v): r of the pairs join u
    to v, the rest pair within u and within v."""
    total = 0.0
    for r in range(min(i, j) + 1):
        if (i - r) % 2 or (j - r) % 2:
            continue
        total += (math.comb(i, r) * math.comb(j, r) * math.factorial(r) * cuv ** r
                  * _double_factorial(i - r - 1) * cuu ** ((i - r) // 2)
                  * _double_factorial(j - r - 1) * cvv ** ((j - r) // 2))
    return total


def reference_integral(sym, magnitude=False):
    """int poly(z, z*) exp(x.A x + b.x + c) d^2x through eigvals and inv.

    With ``magnitude`` every term enters by its modulus: the coefficients,
    |mu| and the covariance carried to the forms as |forms| |cov| |forms|^T,
    so the sum is the size of the terms that cancel inside each moment and
    across the polynomial.

    The eigenvalues are those of A + shift I, less the real shift
    max |a_ij|: LAPACK's zgeev (OpenBLAS 0.3.31) does not converge on 14 of
    6003 rotated isotropic Fresnel forms i o R R^T (o in {0.1, 1, 3.3}),
    and on each of them the shifted matrix returns i o to 1.4e-16 relative.
    """
    shift = float(np.max(np.abs(sym.quad)))
    lam = np.linalg.eigvals(sym.quad + shift * np.eye(2)) - shift
    scale = max(1.0, float(np.max(np.abs(lam))))
    if any(abs(ev.imag) <= 1e-12 * scale and ev.real >= -1e-12 * scale for ev in lam):
        raise DivergentIntegral("eigenvalue on the non-negative real axis")
    sqrt_det = complex(np.prod(np.sqrt(-lam)))
    a_inv = np.linalg.inv(sym.quad)
    mu = -0.5 * (a_inv @ sym.lin)
    cov = -0.5 * a_inv
    forms = np.array([[1.0, 1j], [1.0, -1j]])       # z = q + ip, z* = q - ip
    size = np.abs if magnitude else (lambda x: x)
    mz, mzb = size(forms) @ size(mu)
    (cuu, cuv), (_, cvv) = size(forms) @ size(cov) @ size(forms).T
    total = 0.0
    for (k, l), c in sym.poly.coeffs.items():
        for i in range(k + 1):
            for j in range(l + 1):
                total += (size(c) * math.comb(k, i) * math.comb(l, j) * mz ** (k - i)
                          * mzb ** (l - j) * _centered_moment(i, j, cuu, cuv, cvv))
    value = complex(total * np.pi / sqrt_det
                    * np.exp(sym.const - 0.25 * (sym.lin @ a_inv @ sym.lin)))
    return abs(value) if magnitude else value


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


KINDS = ["damped", "scalar", "fresnel", "degenerate"]


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(KINDS),
       eig=st.tuples(st.floats(0.1, 5.0), st.floats(0.1, 5.0)),
       osc=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
       angle=st.floats(0.0, math.pi), shear=st.floats(-5.0, 5.0),
       lin=st.tuples(_complex(2.0), _complex(2.0)), const=_complex(1.0),
       coeffs=_polynomial(6), zero_eig=st.sampled_from([0.0, 0.5, 3.0]))
# nearly equal diagonal: the z*^2 moment is a small difference of the two
@example(kind="damped", eig=(1.0, 1.0), osc=(3.935546875, 3.9359844780091953),
         angle=0.0, shear=0.0, lin=(0j, 0j), const=0j, coeffs={(0, 2): 1 + 0j},
         zero_eig=0.0)
# a subnormal linear term: the integral is 7e-312, so the relative bound is
# 7e-324, below one subnormal step (5e-324), and LAPACK differs by two steps
@example(kind="damped", eig=(2.0, 1.0), osc=(0.0, 0.0), angle=0.0, shear=2.0,
         lin=(2.225073858507e-311 + 0j, 0j), const=0j, coeffs={(0, 1): 1 + 0j},
         zero_eig=0.0)
# an isotropic Fresnel form on which zgeev of the unshifted matrix does not
# converge
@example(kind="fresnel", eig=(1.0, 1.0), osc=(0.1, 0.1), angle=1.3429580349249122,
         shear=0.0, lin=(0j, 0j), const=0j, coeffs={(0, 0): 1 + 0j}, zero_eig=0.0)
# a form isotropic to one ulp: the z*^2 moment is rounding, and the
# reference's own c11 - c22 - 2i c12 from entries of 4.57 rounds to 262 eps
@example(kind="damped", eig=(0.109375, 0.109375), osc=(0.0, 0.0), angle=1.4375,
         shear=0.0, lin=(0j, 0j), const=0j, coeffs={(0, 2): 1}, zero_eig=0.0)
def test_pairing_matches_lapack_reference(kind, eig, osc, angle, shear, lin, const,
                                          coeffs, zero_eig):
    rot = _rotation(angle)
    if kind == "damped":        # Re A negative definite, Im A any symmetric matrix
        quad = (-(rot @ np.diag(eig) @ rot.T)
                + 1j * np.array([[osc[0], shear], [shear, osc[1]]]))
    elif kind == "scalar":      # a = d, b = 0: Theta_sm plus a coherent projector
        quad = complex(-eig[0], osc[0]) * np.eye(2)
    elif kind == "fresnel":     # purely oscillatory, eigenvalues i * osc
        assume(min(abs(osc[0]), abs(osc[1])) >= 0.1)
        quad = 1j * (rot @ np.diag(osc) @ rot.T)
    else:                       # one eigenvalue on the non-negative real axis
        quad = rot @ np.diag([zero_eig, complex(-eig[0], osc[0])]) @ rot.T
    quad = 0.5 * (quad + quad.T)
    sym = GaussPolySymbol(quad, np.array(lin), const, ZPoly(coeffs))
    try:
        ref = reference_integral(sym)
    except DivergentIntegral:
        with pytest.raises(DivergentIntegral):
            _integral(sym)
        return
    assert kind != "degenerate"
    val = _integral(sym)
    # the terms may cancel inside each moment and across the polynomial, so
    # the scale is the reference summed on moduli; floored at a few
    # subnormal steps, which no normal scale reaches
    scale = reference_integral(sym, magnitude=True)
    assert abs(val - ref) <= max(1e-12 * scale, 4 * math.ulp(0.0))


# ---------------------------------------------------------------------------
# pairing of Theta_01 with the squeezed projector against the closed form
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(s=st.floats(0.3, 1.0), radius=st.floats(0.0, 1.5),
       arg=st.floats(-math.pi, math.pi), delta_phi=st.floats(-math.pi, math.pi),
       xi=st.sampled_from([0.5, 1.0, 2.0]), w1=st.floats(0.0, 2.0),
       w2=st.floats(0.05, 1.0), t_tilde=st.floats(0.0, math.pi))
def test_pairing_of_theta01_matches_closed_form(s, radius, arg, delta_phi, xi, w1, w2,
                                                t_tilde):
    assume(abs(math.cos(t_tilde)) >= 1e-3)
    alpha = radius * cmath.exp(1j * arg)
    state = km.SqueezedState(alpha, -math.log(s) / (2.0 * xi),
                             delta_phi + 2.0 * arg, xi)
    params = km.KerrParams(w1=w1, w2=w2, xi=xi)
    t = t_tilde / (xi * w2)
    theta = km.moyal_solution_symbolic(km.ObservableIndex(0, 1), t, params)
    val = km.phase_space_inner_product(theta, km.squeezed_projector(state), xi)
    ref = km.expectation_a_closed(t, state, params).value
    assert abs(val / (2.0 * math.pi * xi) - ref) <= 1e-12 * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# the two star engines on a polynomial times Theta_sm or a squeezed projector
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(coeffs=_polynomial(3),
       sm=st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda sm: sum(sm) <= 4),
       xi=st.floats(0.05, 2.0), w1=st.floats(0.0, 2.0), w2=st.floats(0.05, 1.0),
       t=st.floats(0.0, 20.0),
       pts=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                    min_size=3, max_size=3))
def test_star_engines_agree_on_a_polynomial_times_theta(coeffs, sm, xi, w1, w2, t, pts):
    # the Berezin integral against the derivative expansion; 20,000 random
    # draws read at most 5.7e-14, at xi = 0.09 where the values reach 1e8
    params = km.KerrParams(w1=w1, w2=w2, xi=xi)
    idx = km.ObservableIndex(*sm)
    assume(abs(math.cos(idx.t_tilde(t, params))) >= 0.2)
    f = GaussPolySymbol.polynomial(ZPoly(coeffs))
    theta = km.moyal_solution_symbolic(idx, t, params)
    gauss, diff = star_gaussian(f, theta, xi), star_differential(f, theta, xi)
    for pt in (PhasePoint(q, p) for q, p in pts):
        ref = diff(pt)
        assert abs(gauss(pt) - ref) <= 1e-10 * (1.0 + abs(ref))


@settings(max_examples=200, deadline=None)
@given(coeffs=_polynomial(3), s=st.floats(0.3, 0.9), radius=st.floats(0.2, 1.5),
       arg=st.floats(-math.pi, math.pi), delta_phi=st.floats(-math.pi, math.pi),
       xi=st.floats(0.05, 2.0),
       offsets=st.lists(st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
                        min_size=3, max_size=3))
def test_star_engines_agree_on_a_polynomial_times_a_squeezed_projector(
        coeffs, s, radius, arg, delta_phi, xi, offsets):
    # s < 1 makes the form anisotropic and alpha != 0 the linear term
    # nonzero, so the derivative engine reads every entry of dE and dz* E,
    # which Theta_sm's isotropic form with no linear term leaves at zero.
    # The points lie within 1.5 sqrt(xi) of the state's mean, where the
    # projector is not negligible; 20,000 random draws read at most 7.9e-13
    alpha = radius * cmath.exp(1j * arg)
    state = km.SqueezedState(alpha, -math.log(s) / (2.0 * xi), delta_phi + 2.0 * arg, xi)
    proj = km.squeezed_projector(state)
    f = GaussPolySymbol.polynomial(ZPoly(coeffs))
    gauss, diff = star_gaussian(f, proj, xi), star_differential(f, proj, xi)
    q_mean, p_mean = state.mean_x
    for u, v in offsets:
        pt = PhasePoint(q_mean + math.sqrt(xi) * u, p_mean + math.sqrt(xi) * v)
        ref = diff(pt)
        assert abs(gauss(pt) - ref) <= 1e-10 * (1.0 + abs(ref))
