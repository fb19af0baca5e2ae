"""Thin adapters, one group per library layer.

Every call the benchmark makes into kerrmoyal goes through this module, and
every call looks its function up on the library module when it runs
(``fock.squeezed_vector``, never a name bound at import time).  The traced
run replaces those module attributes with timing wrappers, so the lookups
here reach the wrappers, and so do the library's own calls from one public
function to another within a module.  When the library's API changes, the
change touches one adapter here and no workload.
"""

from __future__ import annotations

import contextlib
import io
import math

from kerrmoyal import cli, expectations, fock, kerr, phase_space, states
from kerrmoyal.errors import KerrMoyalError as LibraryError  # counted as a failed op

QUADRATURE_TOL = 1e-8


# -- cli ---------------------------------------------------------------------

def figure_csv(name: str, steps: int, alpha: complex, w1: float, w2: float,
               xi: float) -> tuple[int, str]:
    """`kerr figure <name>` with stdout captured in memory: (exit code, text)."""
    argv = ["figure", name, "--steps", str(steps),
            "--alpha-re", repr(alpha.real), "--alpha-im", repr(alpha.imag),
            "--w1", repr(w1), "--w2", repr(w2), "--xi", repr(xi)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# -- kerr --------------------------------------------------------------------

def params(w1: float, w2: float, xi: float):
    return kerr.KerrParams(w1, w2, xi)


def moyal_symbol(s: int, m: int, t: float, kerr_params):
    """Theta_sm(t|.) as a GaussPolySymbol."""
    return kerr.moyal_solution_symbolic(kerr.ObservableIndex(s, m), t, kerr_params)


# -- states ------------------------------------------------------------------

def squeezed_state(alpha: complex, s: float, delta_phi: float, xi: float):
    """The squeezed state with squeeze factor s and Delta_phi = phi - 2 arg(alpha)."""
    tau_abs = -math.log(s) / (2.0 * xi)
    tau_phase = delta_phi + 2.0 * math.atan2(alpha.imag, alpha.real)
    return states.SqueezedState.from_values(alpha, tau_abs, tau_phase, xi)


def squeezed_projector(state):
    return states.squeezed_projector(state)


# -- expectations ------------------------------------------------------------

def closed(t: float, state, kerr_params) -> complex:
    return expectations.expectation_a_closed(t, state, kerr_params).value


def quadrature(t: float, state, kerr_params) -> complex:
    return expectations.expectation_a_quadrature(t, state, kerr_params,
                                                 tol=QUADRATURE_TOL)


# -- fock --------------------------------------------------------------------

def fock_prepare(state, cap: int):
    """(space, vector) of the squeezed state; the library picks the dimension."""
    space = fock.fock_space_for(state, cap=cap)
    return space, fock.squeezed_vector(state, space)


def fock_sweep(times, vec, space, kerr_params):
    """<a(t)> over the time grid by exact Heisenberg evolution."""
    return fock.heisenberg_expectation_sweep(kerr.ObservableIndex(0, 1), times,
                                             vec, space, kerr_params)


# -- phase_space -------------------------------------------------------------

def monomial(k: int, l: int):
    """The polynomial symbol z^k zbar^l."""
    return phase_space.GaussPolySymbol.polynomial(phase_space.ZPoly.monomial(k, l))


def star_gaussian(f, g, xi: float):
    return phase_space.star_gaussian(f, g, xi)


def star_differential(f, g, xi: float):
    return phase_space.star_differential(f, g, xi)


def inner_product(f, g, xi: float) -> complex:
    return phase_space.phase_space_inner_product(f, g, xi)


def evaluate(symbol, q: float, p: float) -> complex:
    return symbol(phase_space.PhasePoint(q, p))

