"""Weyl-symbol calculus on the plane for a single bosonic mode.

Conventions used throughout the package:

* phase-space point ``x = (q, p)``, complex coordinate ``z = q + i p``,
  ``a(x) = z / sqrt(2)`` is the symbol of the annihilation operator;
* the deformation parameter ``xi > 0`` plays the role of hbar,
  ``[q, p]_star = i xi``;
* a symbol of the Gaussian-times-polynomial class is stored as
  ``poly(z, z*) * exp(x.A x + b.x + c)`` with the quadratic form in real
  coordinates and the polynomial in ``(z, z*)`` coordinates.

Two star-product engines are provided: a terminating derivative expansion
for a polynomial left factor (one double sum over the orders in dz and dz*)
and the closed-form evaluation of the Berezin double integral via complex
Gaussian moments with Fresnel regularization.  They are deliberately
independent of one another, down to how each writes the exponent in
(z, z*), so each can serve as an oracle for the other.  The Berezin engine
takes one eigen-solve (the branch) and one solve (all else) of its 4x4 form
and runs the Isserlis recursion on one (k, l) -> coefficient table per
moment; the pairing runs it on numbers and bounds its rounding.  A symbol
is only multiplied and paired; sums are formed on bare (k, l) ->
coefficient tables in ZPoly's arithmetic, by the Moyal bracket and between
the engines' and the pairing's inputs and results: each engine builds only
the symbol it returns, and the pairing builds none.  Both Gaussian
integrals raise DivergentIntegral off the Fresnel class.  Building,
evaluating, multiplying and pairing symbols runs on Python scalars (math
and cmath) except for star_gaussian's two LAPACK calls.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegreeCapExceeded, DivergentIntegral, ToleranceNotMet

# Default cap on the polynomial degree of a single symbol factor.
DEGREE_CAP = 64

_EIG_TOL = 1e-12

# Largest rounding bound of the pairing, relative to 1 + |value|.
_PAIRING_RTOL = 1e-10


@dataclass(frozen=True)
class PhasePoint:
    """A point of dimensionless phase space with complex-coordinate views."""

    q: float
    p: float

    @property
    def z(self) -> complex:
        return self.q + 1j * self.p

    @property
    def zbar(self) -> complex:
        return self.q - 1j * self.p

    @property
    def x2(self) -> float:
        return self.q * self.q + self.p * self.p


class ZPoly:
    """Polynomial in (z, z*) with complex coefficients, stored sparsely.

    The coefficient table maps ``(k, l) -> c`` meaning ``sum c z^k (z*)^l``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs: dict[tuple[int, int], complex] = {}
        if coeffs:
            for key, val in coeffs.items():
                if val != 0:
                    self.coeffs[key] = complex(val)

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, c: complex) -> "ZPoly":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, k: int, l: int, c: complex = 1.0) -> "ZPoly":
        return cls({(k, l): c})

    @classmethod
    def linear_qp(cls, c0: complex, cq: complex, cp: complex) -> "ZPoly":
        """c0 + cq*q + cp*p expressed in (z, z*)."""
        return cls({(0, 0): c0,
                    (1, 0): 0.5 * (cq - 1j * cp),
                    (0, 1): 0.5 * (cq + 1j * cp)})

    # -- algebra ------------------------------------------------------
    def __add__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly(_sum(self.coeffs, other.coeffs))

    def __mul__(self, other: "ZPoly") -> "ZPoly":
        return ZPoly(_product(self.coeffs, other.coeffs))

    def scale(self, c: complex) -> "ZPoly":
        return ZPoly({key: c * val for key, val in self.coeffs.items()})

    def __call__(self, z: complex, zbar: complex) -> complex:
        total = 0.0 + 0.0j
        for (k, l), c in self.coeffs.items():
            # z^k z*^l first, so swapping (k, l) and conjugating c conjugates
            # the value exactly: Theta_ms(x) is conj(Theta_sm(x)) to the bit
            total += c * (z**k * zbar**l)
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"z^{k} zb^{l}: {c:.6g}" for (k, l), c in sorted(self.coeffs.items()))
        return f"ZPoly({terms})"


# The ZPoly ring on bare (k, l) -> c tables, for the engines and the pairing,
# which build no intermediate ZPoly: each result holds the nonzero terms, in
# the order and with the arithmetic of ZPoly's own results.

def _nonzero(table: dict) -> dict:
    return {key: val for key, val in table.items() if val}


def _sum(p: dict, q: dict) -> dict:
    out = dict(p)
    for key, val in q.items():
        out[key] = out.get(key, 0.0) + val
    return out if all(out.values()) else _nonzero(out)


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for (k1, l1), c1 in p.items():
        for (k2, l2), c2 in q.items():
            key = (k1 + k2, l1 + l2)
            out[key] = out.get(key, 0.0) + c1 * c2
    return out if all(out.values()) else _nonzero(out)


def _dz(p: dict) -> dict:
    return {(k - 1, l): k * c for (k, l), c in p.items() if k}


def _dzbar(p: dict) -> dict:
    return {(k, l - 1): l * c for (k, l), c in p.items() if l}


def _check_xi(xi: float) -> None:
    """ValueError unless 0 < xi < inf: both star engines and the pairing."""
    if not 0.0 < xi < math.inf:
        raise ValueError(f"xi must be positive and finite, got {xi!r}")


def _check_entries(a11: complex, a12: complex, a22: complex, coeffs: dict) -> None:
    """ValueError on a NaN form entry, then DegreeCapExceeded past DEGREE_CAP."""
    if not (a11 == a11 and a12 == a12 and a22 == a22):
        raise ValueError("quadratic form has a NaN entry")
    degree = max([k + l for k, l in coeffs]) if coeffs else 0   # default=0 costs 0.25 us
    if degree > DEGREE_CAP:
        raise DegreeCapExceeded(f"polynomial degree {degree} exceeds cap {DEGREE_CAP}")


def _abs(z: complex) -> float:
    """|z| as numpy computes it: inf, not OverflowError, past the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


@dataclass(frozen=True, init=False)
class GaussPolySymbol:
    """Symbol of the form poly(z, z*) * exp(x.A x + b.x + c).

    ``quad`` is the complex 2x2 matrix A in real (q, p) coordinates, ``lin``
    the complex 2-vector b, ``const`` a complex scalar and ``poly`` the
    finite coefficient table of the polynomial prefactor.  Any 2x2 and
    2-entry sequences are accepted (nested lists, numpy arrays); ``quad`` is
    stored as a tuple of two row tuples and ``lin`` as a tuple, all of
    Python complex, which is what the engines and the pairing read.  The
    exponent x.A x sees only the symmetric part of A, so that is what is
    stored: (a12 + a21)/2 on both off-diagonal entries, and a symmetric
    form as given.

    Construction raises ``ValueError`` when ``quad`` is not 2x2, ``lin`` has
    not two entries or a stored form entry is NaN (a NaN input, or opposite
    infinities across the diagonal), and ``DegreeCapExceeded`` when the
    polynomial degree exceeds ``DEGREE_CAP``.  The constructor checks and
    converts the entries first and then sets each field once.
    """

    quad: tuple[tuple[complex, complex], tuple[complex, complex]]
    lin: tuple[complex, complex]
    const: complex
    poly: ZPoly

    def __init__(self, quad, lin, const: complex, poly: ZPoly):
        try:
            (a11, a12), (a21, a22) = quad
            b1, b2 = lin
        except ValueError as exc:
            raise ValueError("quadratic form must be 2x2 and linear term 2-vector") from exc
        a11, a12, a21, a22 = complex(a11), complex(a12), complex(a21), complex(a22)
        if a12 != a21:
            a12 = 0.5 * (a12 + a21)
        _check_entries(a11, a12, a22, poly.coeffs)
        # the frozen dataclass's __setattr__ raises, so fill the instance dict
        self.__dict__.update(quad=((a11, a12), (a12, a22)), lin=(complex(b1), complex(b2)),
                             const=complex(const), poly=poly)

    # -- constructors -------------------------------------------------
    @classmethod
    def polynomial(cls, poly: ZPoly) -> "GaussPolySymbol":
        return cls(((0j, 0j), (0j, 0j)), (0j, 0j), 0j, poly)

    @classmethod
    def constant(cls, c: complex) -> "GaussPolySymbol":
        return cls.polynomial(ZPoly.constant(c))

    @property
    def is_polynomial(self) -> bool:
        (a11, a12), (_, a22) = self.quad
        return not any((a11, a12, a22, *self.lin, self.const))

    def __call__(self, x: PhasePoint) -> complex:
        q, p = x.q, x.p
        (a11, a12), (_, a22) = self.quad
        b1, b2 = self.lin
        expo = (a11 * q + 2.0 * a12 * p + b1) * q + (a22 * p + b2) * p + self.const
        # cmath.exp raises OverflowError where the exponent overflows
        return self.poly(x.z, x.zbar) * cmath.exp(expo)


# Symbols of a and a^dagger: a(x) = z/sqrt(2).
def annihilation_symbol() -> GaussPolySymbol:
    return GaussPolySymbol.polynomial(ZPoly.monomial(1, 0, 1.0 / math.sqrt(2.0)))


def creation_symbol() -> GaussPolySymbol:
    return GaussPolySymbol.polynomial(ZPoly.monomial(0, 1, 1.0 / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# Fresnel-regularized complex Gaussian integrals
# ---------------------------------------------------------------------------

def _fresnel_sqrt_det(lam: list[complex]) -> complex:
    """sqrt(det(-M)) continued from the damped form det(eps*I - M), eps -> 0+,
    given the eigenvalues ``lam`` of M as Python complexes.

    Adding -eps|u|^2 to the exponent and following the principal square root
    from large eps down to zero amounts to taking the principal square root
    of -lambda for every eigenvalue lambda of M; the path only degenerates
    when an eigenvalue sits on the non-negative real axis (within _EIG_TOL of
    the largest modulus) or is not finite, and there it raises DivergentIntegral.
    """
    scale = max(1.0, max(map(_abs, lam)))
    for ev in lam:
        if not cmath.isfinite(ev):
            raise DivergentIntegral(f"quadratic form has eigenvalue {ev}")
        if abs(ev.imag) <= _EIG_TOL * scale and ev.real >= -_EIG_TOL * scale:
            raise DivergentIntegral(
                f"quadratic form has eigenvalue {ev} on the non-negative real axis")
    return math.prod([cmath.sqrt(-ev) for ev in lam])


def _gaussian_moment(counts: tuple[int, ...], means: list, cov, memo: dict) -> complex:
    """E[prod_i l_i^counts_i] for jointly Gaussian linear forms l_i with the
    pairing's numeric means and covariances: the Isserlis recursion,
    memoized on the counts; ``memo`` holds 1 at the all-zero counts."""
    total = memo.get(counts)
    if total is None:
        i = next(idx for idx, c in enumerate(counts) if c > 0)
        reduced = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
        total = means[i] * _gaussian_moment(reduced, means, cov, memo)
        for j, cnt in enumerate(reduced):
            if cnt and cov[i][j]:
                further = reduced[:j] + (cnt - 1,) + reduced[j + 1:]
                total = total + (cov[i][j] * cnt) * _gaussian_moment(further, means, cov, memo)
        memo[counts] = total
    return total


def _add_scaled(table: dict, terms: dict, c: complex) -> None:
    """table += c * terms in place, with the arithmetic and the zero-dropping
    of ZPoly's scale and +, but no intermediate ZPoly (both star engines)."""
    for key, val in terms.items():
        if total := table.get(key, 0.0) + c * val:
            table[key] = total
        else:
            table.pop(key, None)


def _moment_table(counts: tuple[int, ...], means: list, s: list, memo: dict) -> dict:
    """_gaussian_moment of star_gaussian's four forms as one (k, l) ->
    coefficient table, summed as ZPoly sums: each mean is the table of its
    nonzero terms, the covariance is -S/2 of the congruence rows ``s``, and
    ``memo`` holds {(0, 0): 1} at the all-zero counts."""
    table = memo.get(counts)
    if table is None:
        i = 0 if counts[0] else 1 if counts[1] else 2 if counts[2] else 3
        reduced = counts[:i] + (counts[i] - 1,) + counts[i + 1:]
        table = _product(means[i], _moment_table(reduced, means, s, memo))
        for j, cnt in enumerate(reduced):
            if cnt and (cov := -0.5 * s[i][j]):
                further = reduced[:j] + (cnt - 1,) + reduced[j + 1:]
                _add_scaled(table, _moment_table(further, means, s, memo), cov * cnt)
        memo[counts] = table
    return table


def star_gaussian(f: GaussPolySymbol, g: GaussPolySymbol, xi: float) -> GaussPolySymbol:
    """Star product via the closed-form Berezin double phase-space integral.

    The double integral over (x1, x2) has the pure-phase kernel
    exp((2i/xi)(x1^x2 + x2^x + x^x1)); it is evaluated exactly by Wick
    expansion of the polynomial prefactor around the stationary point,
    with the Fresnel branch fixed by the eps -> 0+ damping.

    With the exponent u.Q u + (W x + l0).u over u = (x1, x2), every output
    but the branch is a block of the congruence S = A^T Q^-1 A of the
    columns A = [z1, z1*, z2, z2* | W | l0]: the forms' covariance -S/2 and
    means -S/2 (in x and constant), and the result's exponent -S/4.  Raises
    ValueError unless 0 < xi < inf, and DivergentIntegral off the Fresnel class.
    """
    _check_xi(xi)
    (f11, f12), (_, f22) = f.quad
    (g11, g12), (_, g22) = g.quad
    (fl1, fl2), (gl1, gl2) = f.lin, g.lin
    c = 1j / xi                        # off-diagonal blocks (i/xi) J and its transpose
    w = 2.0 * c                        # W = (2i/xi) (-J; J)
    qa = np.array([[f11, f12, 0.0, c, 1.0, 1.0, 0.0, 0.0, 0.0, -w, fl1],
                   [f12, f22, -c, 0.0, 1j, -1j, 0.0, 0.0, w, 0.0, fl2],
                   [0.0, -c, g11, g12, 0.0, 0.0, 1.0, 1.0, 0.0, w, gl1],
                   [c, 0.0, g12, g22, 0.0, 0.0, 1j, -1j, -w, 0.0, gl2]], dtype=complex)
    q_mat, a_mat = qa[:, :4], qa[:, 4:]

    # 4x4, not 2x2: det(I - xi^2 JGJF) signs the root only if xi^2 JGJF has no eigenvalue >= 1
    sqrt_det = _fresnel_sqrt_det(np.linalg.eigvals(q_mat).tolist())
    s = (a_mat.T @ np.linalg.solve(q_mat, a_mat)).tolist()

    quad_out = ((-0.25 * s[4][4], -0.25 * s[4][5]), (-0.25 * s[5][4], -0.25 * s[5][5]))
    lin_out = (-0.5 * s[4][6], -0.5 * s[5][6])
    const_out = f.const + g.const - 0.25 * s[6][6]
    means = []      # each as the nonzero terms of ZPoly.linear_qp
    for cq, cp, c0 in ((-0.5 * row[4], -0.5 * row[5], -0.5 * row[6]) for row in s[:4]):
        means.append(_nonzero({(0, 0): c0, (1, 0): 0.5 * (cq - 1j * cp),
                               (0, 1): 0.5 * (cq + 1j * cp)}))
    pref = 1.0 / (xi * xi * sqrt_det)
    memo: dict = {(0, 0, 0, 0): {(0, 0): 1 + 0j}}
    poly_out: dict = {}
    for (k1, l1), c1 in f.poly.coeffs.items():
        for (k2, l2), c2 in g.poly.coeffs.items():
            _add_scaled(poly_out, _moment_table((k1, l1, k2, l2), means, s, memo), c1 * c2)
    return GaussPolySymbol(quad_out, lin_out, const_out,
                           ZPoly({key: pref * val for key, val in poly_out.items()}))


def star_differential(f: GaussPolySymbol, g: GaussPolySymbol, xi: float) -> GaussPolySymbol:
    """Star product via the terminating derivative expansion.

    The bidifferential (i xi/2) d1.J d2 = xi (dz1 dz2* - dz1* dz2) has an
    exponential that factors into independent orders in dz and dz*:

        f * g = sum_{a,b} xi^(a+b) (-1)^b / (a! b!) (dz^a dz*^b f)(dz*^a dz^b g).

    Requires a purely polynomial left factor: a runs while dz^a f != 0 and
    b while dz^a dz*^b f != 0, so no order past deg(f) is formed.  Every
    derivative is a bare coefficient table, formed once from the one before
    it and only if used; the product is the one ZPoly built.
    """
    _check_xi(xi)
    if not f.is_polynomial:
        raise ValueError("left factor must be purely polynomial; use star_gaussian")
    # g = P e^E is differentiated on P alone: dz(P e^E) = (dz P + P dz E) e^E,
    # with dz E and dz* E linear in (z, z*) for E = x.A x + b.x + c; dz E is
    # read only past a z* power of f, and dz* E only past a z power
    (a11, a12), (_, a22) = g.quad
    b1, b2 = g.lin
    f_a, g_a, a = f.poly.coeffs, g.poly.coeffs, 0        # dz^a f and dz*^a g
    dz_e = _nonzero({(1, 0): 0.5 * (a11 - a22 - 2j * a12), (0, 1): 0.5 * (a11 + a22),
                     (0, 0): 0.5 * (b1 - 1j * b2)}) if any(l for _, l in f_a) else {}
    dzbar_e = _nonzero({(0, 1): 0.5 * (a11 - a22 + 2j * a12), (1, 0): 0.5 * (a11 + a22),
                        (0, 0): 0.5 * (b1 + 1j * b2)}) if any(k for k, _ in f_a) else {}
    total: dict = {}
    while f_a:
        f_ab, g_ab, b = f_a, g_a, 0        # dz^a dz*^b f and dz*^a dz^b g
        while f_ab:
            coeff = xi ** (a + b) * (-1.0) ** b / (math.factorial(a) * math.factorial(b))
            _add_scaled(total, _product(f_ab, g_ab), coeff)
            f_ab, b = _dzbar(f_ab), b + 1
            g_ab = _sum(_dz(g_ab), _product(g_ab, dz_e)) if f_ab else g_ab
        f_a, a = _dz(f_a), a + 1
        g_a = _sum(_dzbar(g_a), _product(g_a, dzbar_e)) if f_a else g_a
    return GaussPolySymbol(g.quad, g.lin, g.const, ZPoly(total))


def moyal_bracket(f: GaussPolySymbol, g: GaussPolySymbol, xi: float) -> GaussPolySymbol:
    """{f, g}_M = (f*g - g*f)/(i xi) of two polynomial symbols, both products
    through star_differential, which raises ValueError on a Gaussian factor."""
    fg = star_differential(f, g, xi)
    gf = star_differential(g, f, xi)
    return GaussPolySymbol.polynomial((fg.poly + gf.poly.scale(-1.0)).scale(1.0 / (1j * xi)))


# ---------------------------------------------------------------------------
# Trace pairing
# ---------------------------------------------------------------------------

def phase_space_inner_product(f: GaussPolySymbol, g: GaussPolySymbol, xi: float) -> complex:
    """int f(x) g(x) d^2x = (2 pi xi) Tr(f_hat g_hat) for trace-class pairs.

    The product poly(z, z*) exp(x.A x + b.x + c) is integrated in closed form
    on the sums of the two Gaussian factors' entries and the product of the
    coefficient tables (Fresnel branch).  The 2x2 form is solved in closed
    form on scalars: eigenvalues m +- sqrt(m^2 - det) with the root of larger
    modulus first and the other as det over it, and the inverse through the
    adjugate.  Raises ValueError unless 0 < xi < inf (xi is read for nothing
    else) or where a summed form entry is NaN (opposite infinities),
    DegreeCapExceeded where the product's degree exceeds DEGREE_CAP,
    DivergentIntegral off the Fresnel class, and ToleranceNotMet when
    eps sum_l |c_l M_l| |prefactor| > _PAIRING_RTOL (1 + |value|).
    """
    _check_xi(xi)
    (f11, f12), (_, f22) = f.quad
    (g11, g12), (_, g22) = g.quad
    a11, a12, a22 = f11 + g11, f12 + g12, f22 + g22
    coeffs = _product(f.poly.coeffs, g.poly.coeffs)
    _check_entries(a11, a12, a22, coeffs)
    (fb1, fb2), (gb1, gb2) = f.lin, g.lin
    b1, b2 = fb1 + gb1, fb2 + gb2
    m = 0.5 * (a11 + a22)
    det = a11 * a22 - a12 * a12
    half_gap = 0.5 * (a11 - a22)
    root = cmath.sqrt(half_gap * half_gap + a12 * a12)   # m^2 - det, cancellation-free
    lam1 = m + root if (m.conjugate() * root).real >= 0.0 else m - root
    lam = [lam1, det / lam1] if lam1 else [0j, 0j]
    sqrt_det = _fresnel_sqrt_det(lam)
    # covariance -A^{-1}/2 and mean -A^{-1} b/2 of (q, p), A^{-1} = adj(A)/det
    c11, c12, c22 = -0.5 * a22 / det, 0.5 * a12 / det, -0.5 * a11 / det
    mu_q = c11 * b1 + c12 * b2
    mu_p = c12 * b1 + c22 * b2
    means = [mu_q + 1j * mu_p, mu_q - 1j * mu_p]
    # the covariance carried to the forms z = q + ip, z* = q - ip, summed on
    # the entries of A before the division: c11 - c22 from the quotients
    # cancels when a11 ~ a22
    cov_forms = [[(half_gap + 1j * a12) / det, -m / det],
                 [-m / det, (half_gap - 1j * a12) / det]]
    memo: dict = {(0, 0): 1.0}
    total, size = 0j, 0.0
    for (k, l), coeff in coeffs.items():
        term = coeff * _gaussian_moment((k, l), means, cov_forms, memo)
        total, size = total + term, size + _abs(term)
    # -b.A^{-1}.b/4 = b.mu/2
    norm, gauss = math.pi / sqrt_det, cmath.exp(f.const + g.const + 0.5 * (b1 * mu_q + b2 * mu_p))
    value = total * norm * gauss
    bound = math.ulp(1.0) * size * _abs(norm * gauss)     # eps sum_l |c_l M_l| |prefactor|
    if bound > _PAIRING_RTOL * (1.0 + _abs(value)):
        raise ToleranceNotMet(f"pairing rounding bound {bound:.3e} above tolerance", bound)
    return value
