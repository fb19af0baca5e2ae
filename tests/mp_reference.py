"""50-digit references for the tests, computed in mpmath from the float inputs.

Nothing here imports kerrmoyal: a state and the Kerr parameters are read
through their fields alone, so a fault in the library's Fock routes cannot
reach these values.
"""

import functools

import mpmath

DPS = 50


@functools.lru_cache(maxsize=8)
def squeezed_coefficients(alpha, tau_abs, tau_phase, xi, dim):
    """c_0 .. c_{dim-1} of |tau alpha> in the xi-scaled number basis, at DPS digits.

    With beta = alpha/sqrt(xi) and r = 2 xi |tau|, the three-term recurrence
    of the squeezed annihilator's eigen-equation,

        c_{n+1} = (beta c_n + e^{i phi} sinh r sqrt(n) c_{n-1}) / (cosh r sqrt(n+1)),

    runs from the closed-form vacuum amplitude
    c_0 = exp(-|beta|^2/2 - e^{-i phi} tanh r beta^2/2) / sqrt(cosh r).
    c_0 is exact, so the truncation only drops the tail past dim; the
    coefficients are not renormalized.
    """
    with mpmath.workdps(DPS):
        xi = mpmath.mpf(xi)
        beta = mpmath.mpc(alpha) / mpmath.sqrt(xi)
        r = 2 * xi * mpmath.mpf(tau_abs)
        rot = mpmath.expj(mpmath.mpf(tau_phase))
        cosh_r, sinh_r = mpmath.cosh(r), mpmath.sinh(r)
        c = [mpmath.exp(-abs(beta) ** 2 / 2 - mpmath.conj(rot) * mpmath.tanh(r) * beta ** 2 / 2)
             / mpmath.sqrt(cosh_r)]
        c.append(beta * c[0] / cosh_r)
        for n in range(1, dim - 1):
            c.append((beta * c[n] + rot * sinh_r * mpmath.sqrt(n) * c[n - 1])
                     / (cosh_r * mpmath.sqrt(n + 1)))
        return tuple(c)


def fock_expectation(s, m, times, state, params, dim=260):
    """<psi| e^{iHt/xi} (a^dag)^s a^m e^{-iHt/xi} |psi> at each t, as complex.

    The operator maps |l+m> to prod_{i<=m} sqrt(xi (l+i)) prod_{i<=s} sqrt(xi (l+i)) |l+s>,
    and H is diagonal with E_n = w2 xi^2 n(n-1) + w1 xi n, so the value is
    sum_l conj(c_{l+s}) band_l c_{l+m} exp(-i (E_{l+m} - E_{l+s}) t/xi).
    """
    if params.xi != state.xi:
        raise ValueError(f"state and params carry different xi ({state.xi!r} != {params.xi!r})")
    c = squeezed_coefficients(complex(state.alpha), float(state.tau_abs),
                              float(state.tau_phase), float(state.xi), dim)
    with mpmath.workdps(DPS):
        xi, w1, w2 = (mpmath.mpf(x) for x in (state.xi, params.w1, params.w2))

        def energy(n):
            return w2 * xi ** 2 * n * (n - 1) + w1 * xi * n

        terms = []
        for l in range(dim - max(s, m)):
            band = mpmath.fprod(mpmath.sqrt(xi * (l + i)) for i in range(1, m + 1))
            band *= mpmath.fprod(mpmath.sqrt(xi * (l + i)) for i in range(1, s + 1))
            terms.append((mpmath.conj(c[l + s]) * band * c[l + m],
                          energy(l + m) - energy(l + s)))
        return [complex(mpmath.fsum(w * mpmath.expj(-mpmath.mpf(t) * gap / xi)
                                    for w, gap in terms))
                for t in times]
