"""The four workloads: seeded inputs, one timed op each, and its check.

Inputs are plain numbers drawn from ``random.Random`` seeded by the workload
name and the seed, so the same seed gives the same inputs on any numpy.  Each
workload draws a small pool once; the run cycles through the pool in whole
passes, so per-op counts repeat exactly.  The values that set an op's cost
(squeeze, |alpha| and Delta_phi for the oracles, index and monomial degree
for the symbols) sit on a fixed lattice that covers their range, and the seed
draws the rest (arg alpha, w1, w2, times, points), which rotate the state or
rescale time without changing the work.  So two seeds give pools of equal
cost: drawing the magnitudes as well made ops_per_s differ by 27% between two
oracle-strong seeds.

Every op is checked against a route that shares no code with the one under
test, by tolerance and never by bytes.  ``check`` returns the worst
deviation per check; ``TOLERANCES`` holds the bound each must meet.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Callable

import adapters

XI = 1.0
W1_FIGURE = 1.0

FIGURE_STEPS = 1001
FIGURE_POOL = 8
FIGURE_S = (1.0, 0.5, 0.2, 0.1)      # squeeze factors the cli sweeps, in order

ORACLE_CAP = 2048
# The repository's acceptance grid: t~ = k pi / 24 over one period, without
# the pole at k = 12.  Nearer the pole the quadrature's node count grows as
# |tan t~| without bound: with times drawn over the whole period one call
# reached 7.8 GB.
ORACLE_TT = tuple(k * math.pi / 24.0 for k in range(25) if k != 12)
# (s, |alpha|, Delta_phi) lattices.  Mild: s over [0.5, 1], |alpha| over
# [0, 1.5] and Delta_phi over the circle, permuted so no two move together;
# the strongest squeeze meets the largest |alpha| near phase squeezing, the
# one state that needs dim 128 (the rest fit in 64).  Strong: one state needs
# dim 2048 and sets peak memory, three fit in 1024; with two of each the
# median op fell between the two sizes and moved with both.
MILD_LATTICE = tuple((0.5 + 0.5 * k / 7, 1.5 * ((7 - 3 * k) % 8 + 0.5) / 8,
                      math.pi * (((5 * k + 3) % 8 + 0.5) / 4 - 1)) for k in range(8))
STRONG_LATTICE = ((0.10, 0.5, math.pi), (0.11666666666666667, 0.25, 0.5 * math.pi),
                  (0.13333333333333333, 1.0, math.pi), (0.15, 0.75, -0.5 * math.pi))

SYMBOL_INDICES = ((0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                  (0, 3), (1, 2), (2, 1), (3, 0))
SYMBOL_MONOMIALS = ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                    (3, 0), (2, 1), (1, 2), (0, 3))
# Every index against two monomials of different degree: index j with
# monomials j and j + 4 (mod 9).
SYMBOL_PAIRS = tuple((SYMBOL_INDICES[j], SYMBOL_MONOMIALS[(j + shift) % 9])
                     for shift in (0, 4) for j in range(9))
# Both star engines are exact only away from the poles: within |cos| < 1e-6
# the Gaussian engine's form degenerates (DegenerateQuadraticForm), the same
# exclusion the repository's acceptance grid makes.
SYMBOL_COS_MIN = 1e-6

TOLERANCES = {
    "exit_code": 0.0,
    "rows": 0.0,
    "nonfinite": 0.0,
    "coherent_s1": 1e-12,
    "closed_vs_fock": 1e-8,
    "quad_vs_closed": 1e-6,
    "engines": 1e-10,
    "pairing01_vs_closed": 1e-8,
    "pairing_finite": 0.0,
}


def _rel(value: complex, ref: complex) -> float:
    return abs(value - ref) / (1.0 + abs(ref))


def _strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal slices of [lo, hi], shuffled."""
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in range(n)]
    rng.shuffle(vals)
    return vals


def _polar(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius, rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# figure: `kerr figure squeeze-num|squeeze-phase` through cli.main
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FigureInput:
    name: str
    alpha: complex
    w2: float


def figure_inputs(rng: random.Random) -> list[FigureInput]:
    radii = _strata(rng, FIGURE_POOL, 0.5, 1.5)
    w2s = _strata(rng, FIGURE_POOL, 0.05, 0.2)
    names = ("squeeze-num", "squeeze-phase")
    return [FigureInput(names[k % 2], _polar(rng, radii[k]), w2s[k])
            for k in range(FIGURE_POOL)]


def figure_op(inp: FigureInput) -> dict:
    code, text = adapters.figure_csv(inp.name, FIGURE_STEPS, inp.alpha,
                                     W1_FIGURE, inp.w2, XI)
    return {"code": code, "text": text, "bytes_out": len(text.encode())}


def coherent_mean(alpha: complex, t: float, w1: float, w2: float, xi: float) -> complex:
    """<a(t)> of a coherent state: alpha exp(-i w1 t - (2i|alpha|^2/xi) sin(t~) e^{-i t~})."""
    tt = xi * w2 * t
    return alpha * cmath.exp(-1j * w1 * t
                             - 2j * abs(alpha) ** 2 / xi * math.sin(tt) * cmath.exp(-1j * tt))


def figure_check(inp: FigureInput, out: dict) -> dict[str, float]:
    lines = out["text"].splitlines()
    rows = [line.split(",") for line in lines[2:]]
    nonfinite = 0
    worst = 0.0
    for row in rows:
        t, s, q, p = (float(cell) for cell in row)
        if not all(math.isfinite(v) for v in (t, s, q, p)):
            nonfinite += 1
        elif s == 1.0:
            ref = coherent_mean(inp.alpha, t, W1_FIGURE, inp.w2, XI)
            worst = max(worst, _rel(complex(q, p) / math.sqrt(2.0), ref))
    return {"exit_code": float(out["code"]),
            "rows": float(abs(len(rows) - FIGURE_STEPS * len(FIGURE_S))),
            "nonfinite": float(nonfinite),
            "coherent_s1": worst}


# ---------------------------------------------------------------------------
# oracle-mild / oracle-strong: closed form vs Fock oracle vs quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateInput:
    alpha: complex
    s: float
    delta_phi: float
    w1: float
    w2: float


def _state_inputs(rng: random.Random, lattice) -> list[StateInput]:
    return [StateInput(_polar(rng, radius), s, delta_phi,
                       rng.uniform(0.5, 1.5), rng.uniform(0.05, 0.2))
            for s, radius, delta_phi in lattice]


def mild_inputs(rng: random.Random) -> list[StateInput]:
    return _state_inputs(rng, MILD_LATTICE)


def strong_inputs(rng: random.Random) -> list[StateInput]:
    return _state_inputs(rng, STRONG_LATTICE)


def oracle_prepare(inp: StateInput):
    state = adapters.squeezed_state(inp.alpha, inp.s, inp.delta_phi, XI)
    kerr_params = adapters.params(inp.w1, inp.w2, XI)
    times = [tt / (XI * inp.w2) for tt in ORACLE_TT]
    return state, kerr_params, times


def oracle_op(prepared) -> dict:
    state, kerr_params, times = prepared
    space, vec = adapters.fock_prepare(state, ORACLE_CAP)
    fock_vals = adapters.fock_sweep(times, vec, space, kerr_params)
    closed = [adapters.closed(t, state, kerr_params) for t in times]
    quad = [adapters.quadrature(t, state, kerr_params) for t in times]
    return {"dim": space.dim, "fock": fock_vals, "closed": closed, "quad": quad}


def oracle_check(prepared, out: dict) -> dict[str, float]:
    pairs = list(zip(out["closed"], out["fock"], out["quad"]))
    return {"closed_vs_fock": max(_rel(c, complex(f)) for c, f, _ in pairs),
            "quad_vs_closed": max(_rel(q, c) for c, _, q in pairs)}


# ---------------------------------------------------------------------------
# symbols: Moyal solution paired with a squeezed projector; both star engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SymbolInput:
    s_idx: int
    m_idx: int
    alpha: complex
    s: float
    delta_phi: float
    w1: float
    w2: float
    t: float
    mono: tuple[int, int]
    points: tuple[tuple[float, float], ...]


def _symbol_time(rng: random.Random, d: int, w2: float) -> float:
    """t with t~ = w2 t uniform on one period, away from the poles of both
    Theta_sm (cos(d t~) = 0) and Theta_01 (cos t~ = 0)."""
    while True:
        tt = rng.uniform(0.0, math.pi)
        if abs(math.cos(tt)) >= SYMBOL_COS_MIN and abs(math.cos(d * tt)) >= SYMBOL_COS_MIN:
            return tt / (XI * w2)


def symbols_inputs(rng: random.Random) -> list[SymbolInput]:
    n = len(SYMBOL_PAIRS)
    squeezes = _strata(rng, n, 0.3, 1.0)
    radii = _strata(rng, n, 0.0, 1.5)
    out = []
    for j, ((s_idx, m_idx), mono) in enumerate(SYMBOL_PAIRS):
        w2 = rng.uniform(0.05, 0.2)
        out.append(SymbolInput(
            s_idx, m_idx, _polar(rng, radii[j]), squeezes[j],
            rng.uniform(-math.pi, math.pi), rng.uniform(0.5, 1.5), w2,
            _symbol_time(rng, m_idx - s_idx, w2), mono,
            tuple((rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(2))))
    return out


def symbols_prepare(inp: SymbolInput):
    state = adapters.squeezed_state(inp.alpha, inp.s, inp.delta_phi, XI)
    return inp, state, adapters.params(inp.w1, inp.w2, XI), adapters.monomial(*inp.mono)


def symbols_op(prepared) -> dict:
    inp, state, kerr_params, mono = prepared
    norm = 2.0 * math.pi * XI
    projector = adapters.squeezed_projector(state)
    theta = adapters.moyal_symbol(inp.s_idx, inp.m_idx, inp.t, kerr_params)
    pairing = adapters.inner_product(theta, projector, XI) / norm
    theta01 = adapters.moyal_symbol(0, 1, inp.t, kerr_params)
    pairing01 = adapters.inner_product(theta01, projector, XI) / norm
    return {"pairing": pairing, "pairing01": pairing01,
            "gaussian": adapters.star_gaussian(mono, theta, XI),
            "differential": adapters.star_differential(mono, theta, XI)}


def symbols_check(prepared, out: dict) -> dict[str, float]:
    inp, state, kerr_params, _ = prepared
    engines = 0.0
    for q, p in inp.points:
        ref = adapters.evaluate(out["differential"], q, p)
        engines = max(engines, _rel(adapters.evaluate(out["gaussian"], q, p), ref))
    closed = adapters.closed(inp.t, state, kerr_params)
    return {"engines": engines,
            "pairing01_vs_closed": _rel(out["pairing01"], closed),
            "pairing_finite": 0.0 if cmath.isfinite(out["pairing"]) else 1.0}


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable[[random.Random], list]
    prepare: Callable
    op: Callable[..., dict]
    check: Callable[..., dict[str, float]]


WORKLOADS = {
    "figure": Workload(figure_inputs, lambda inp: inp, figure_op, figure_check),
    "oracle-mild": Workload(mild_inputs, oracle_prepare, oracle_op, oracle_check),
    "oracle-strong": Workload(strong_inputs, oracle_prepare, oracle_op, oracle_check),
    "symbols": Workload(symbols_inputs, symbols_prepare, symbols_op, symbols_check),
}


def generate(workload: str, seed: int) -> list:
    """The seeded input pool of one workload (plain numbers only)."""
    return WORKLOADS[workload].inputs(random.Random(f"{workload}:{seed}"))
