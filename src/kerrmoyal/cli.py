"""Command-line front end: figure data regeneration, single expectation
records and validation suites.

Output is deterministic: floats are written with 17 significant digits,
lines end with '\\n', and grid points falling inside a singular-time window
are emitted as explicit "singular" sentinel rows (never NaN or Inf).

Exit codes: 0 success, 1 validation failed, 2 usage or config error,
3 numerical limit reached (a typed KerrMoyalError such as
TruncationInsufficient; one "error:" line on stderr, no traceback).

Default figure grids (documented choices; the source text fixes none):
t spans one singular period, xi w2 t in [0, pi], with 401 steps, and the
squeeze sweeps use s in {1, 0.5, 0.2, 0.1}.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import expectations, fock, kerr, states, validate
from .errors import KerrMoyalError

DEFAULT_STEPS = 401
_QAMPL_XIS = (1.0, 0.5, 0.25, 0.1)
_QPHASE_X2S = (0.5, 1.0, 2.0, 4.0)
_SQUEEZE_FACTORS = (1.0, 0.5, 0.2, 0.1)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` format with '#' comments."""
    out: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{path}:{lineno}: empty key or value")
        out[key] = value
    return out


_FLOAT_KEYS = {"xi", "w1", "w2", "alpha_re", "alpha_im", "tau_abs", "tau_phase",
               "t", "t_max"}
_INT_KEYS = {"steps"}
_STR_KEYS = {"out", "format"}


def apply_config(args: argparse.Namespace, config: dict[str, str]) -> None:
    """Fill unset CLI values from the config file (flags win)."""
    for key, value in config.items():
        if key in _FLOAT_KEYS:
            parsed: object = _parse_number(key, value)
        elif key in _INT_KEYS:
            try:
                parsed = int(value)
            except ValueError as exc:
                raise ConfigError(f"field {key}: not an integer: {value!r}") from exc
        elif key in _STR_KEYS:
            parsed = value
        else:
            raise ConfigError(f"unknown config field {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, parsed)


def _parse_number(key: str, value: str) -> float:
    try:
        parsed = float(value)
    except ValueError as exc:
        raise ConfigError(f"field {key}: not a number: {value!r}") from exc
    if not math.isfinite(parsed):
        raise ConfigError(f"field {key}: must be finite, got {value!r}")
    return parsed


def _resolved_config(args: argparse.Namespace) -> dict[str, object]:
    keys = sorted(_FLOAT_KEYS | _INT_KEYS | {"format"})
    resolved = {}
    for key in keys:
        val = getattr(args, key, None)
        if val is not None:
            resolved[key] = val
    return resolved


def _config_comment(resolved: dict[str, object]) -> str:
    parts = []
    for key, val in resolved.items():
        parts.append(f"{key}={_fmt(val) if isinstance(val, float) else val}")
    return "# config: " + " ".join(parts)


def write_rows(path: str | None, fmt: str, header: list[str],
               rows: list[list[object]], resolved: dict[str, object]) -> None:
    if fmt == "csv":
        # one %-template formats an all-numeric row; "%.17g" % x is
        # format(float(x), ".17g") for ints and floats alike
        template = ",".join(["%.17g"] * len(header))
        lines = [_config_comment(resolved), ",".join(header)]
        for row in rows:
            try:
                lines.append(template % tuple(row))
            except TypeError:  # a "singular" sentinel cell
                lines.append(",".join(
                    cell if isinstance(cell, str) else _fmt(cell) for cell in row))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        data = [
            {name: (cell if isinstance(cell, str) else float(_fmt(cell)))
             for name, cell in zip(header, row)}
            for row in rows
        ]
        text = json.dumps({"config": resolved, "data": data},
                          sort_keys=True, indent=1) + "\n"
    else:
        raise ConfigError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# figure subcommand
# ---------------------------------------------------------------------------

def _figure_qampl(args) -> tuple[list[str], list[list[object]]]:
    steps = args.steps or DEFAULT_STEPS
    rows: list[list[object]] = []
    for xi in _QAMPL_XIS:
        w2t_grid = np.linspace(0.0, math.pi / xi, steps)
        for w2t in w2t_grid:
            c = math.cos(xi * w2t)
            if abs(c) < kerr.SINGULAR_COS_WINDOW:
                rows.append([xi, float(w2t), "singular"])
            else:
                rows.append([xi, float(w2t), 1.0 / (c * c)])
    return ["xi", "w2_t", "ratio_abs"], rows


def _figure_qphase(args) -> tuple[list[str], list[list[object]]]:
    xi = args.xi if args.xi is not None else 1.0
    w1 = args.w1 if args.w1 is not None else 1.0
    w2 = args.w2 if args.w2 is not None else 1.0
    steps = args.steps or DEFAULT_STEPS
    params = kerr.KerrParams(w1, w2, xi)
    t_max = args.t_max if args.t_max is not None else math.pi / (xi * w2)
    t_grid = np.linspace(0.0, t_max, steps)
    rows: list[list[object]] = []
    for x2 in _QPHASE_X2S:
        pt = kerr.PhasePoint(math.sqrt(x2), 0.0)
        for t in t_grid:
            if abs(math.cos(xi * w2 * t)) < kerr.SINGULAR_COS_WINDOW:
                rows.append([float(t), x2, "singular"])
            else:
                rows.append([float(t), x2, kerr.quantum_phase(xi, pt, float(t), params)])
    return ["t", "x2", "phi"], rows


def _figure_squeeze(args, delta_phi: float) -> tuple[list[str], list[list[object]]]:
    xi = args.xi if args.xi is not None else 1.0
    w1 = args.w1 if args.w1 is not None else 1.0
    w2 = args.w2 if args.w2 is not None else 0.1
    alpha = complex(args.alpha_re if args.alpha_re is not None else 1.0,
                    args.alpha_im if args.alpha_im is not None else 0.0)
    steps = args.steps or DEFAULT_STEPS
    params = kerr.KerrParams(w1, w2, xi)
    t_max = args.t_max if args.t_max is not None else math.pi / (xi * w2)
    t_grid = np.linspace(0.0, t_max, steps)
    rows: list[list[object]] = []
    for s in _SQUEEZE_FACTORS:
        tau_abs = -math.log(s) / (2.0 * xi)
        phi = delta_phi + 2.0 * np.angle(alpha)
        state = states.SqueezedState.from_values(alpha, tau_abs, phi, xi)
        for t in t_grid.tolist():
            res = expectations.expectation_a_closed(t, state, params)
            rows.append([t, s, res.mean_q, res.mean_p])
    return ["t", "s", "mean_q", "mean_p"], rows


def cmd_figure(args) -> int:
    if args.name == "qampl":
        header, rows = _figure_qampl(args)
    elif args.name == "qphase":
        header, rows = _figure_qphase(args)
    elif args.name == "squeeze-num":
        header, rows = _figure_squeeze(args, math.pi)
    elif args.name == "squeeze-phase":
        header, rows = _figure_squeeze(args, 0.0)
    else:  # argparse choices guard this
        raise ConfigError(f"unknown figure {args.name!r}")
    write_rows(args.out, args.format or "csv", header, rows, _resolved_config(args))
    return EXIT_OK


# ---------------------------------------------------------------------------
# expect subcommand
# ---------------------------------------------------------------------------

def cmd_expect(args) -> int:
    xi = args.xi if args.xi is not None else 1.0
    params = kerr.KerrParams(args.w1 if args.w1 is not None else 1.0,
                             args.w2 if args.w2 is not None else 0.1,
                             xi)
    alpha = complex(args.alpha_re if args.alpha_re is not None else 1.0,
                    args.alpha_im if args.alpha_im is not None else 0.0)
    state = states.SqueezedState.from_values(
        alpha,
        args.tau_abs if args.tau_abs is not None else 0.0,
        args.tau_phase if args.tau_phase is not None else 0.0,
        xi)
    t = args.t if args.t is not None else 0.0
    res = expectations.expectation_a_closed(t, state, params)
    record = {
        "t": t,
        "a_re": res.value.real,
        "a_im": res.value.imag,
        "mean_q": res.mean_q,
        "mean_p": res.mean_p,
        "branch_winding": res.branch_winding,
    }
    if args.check:
        space = fock.fock_space_for(state)
        v = fock.squeezed_vector(state, space)
        oracle = fock.heisenberg_expectation(kerr.ObservableIndex(0, 1), t, v,
                                             space, params)
        record["fock_re"] = oracle.real
        record["fock_im"] = oracle.imag
        record["fock_deviation"] = abs(res.value - oracle)
        try:
            quad = expectations.expectation_a_quadrature(t, state, params, tol=1e-8)
            record["quadrature_re"] = quad.real
            record["quadrature_im"] = quad.imag
            record["quadrature_deviation"] = abs(res.value - quad)
        except expectations.SingularWindow:
            record["quadrature_re"] = "singular"
            record["quadrature_im"] = "singular"
            record["quadrature_deviation"] = "singular"
    payload = {key: (val if isinstance(val, (str, int)) else float(_fmt(val)))
               for key, val in record.items()}
    text = json.dumps({"config": _resolved_config(args), "record": payload},
                      sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    names = list(validate.SUITES) if args.suite == "all" else [args.suite]
    params = None
    if args.xi is not None or args.w1 is not None or args.w2 is not None:
        params = kerr.KerrParams(args.w1 if args.w1 is not None else 1.0,
                                 args.w2 if args.w2 is not None else 0.1,
                                 args.xi if args.xi is not None else 1.0)
    reports = validate.run_suites(names, params)
    doc = {"passed": all(r.passed for r in reports),
           "suites": [r.to_dict() for r in reports]}
    text = json.dumps(doc, sort_keys=True, indent=1, default=float) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if doc["passed"] else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kerr",
        description="Exact Kerr-oscillator phase-space data: figures, "
                    "expectation records and validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--xi", type=float, default=None)
        p.add_argument("--w1", type=float, default=None)
        p.add_argument("--w2", type=float, default=None)
        p.add_argument("--alpha-re", dest="alpha_re", type=float, default=None)
        p.add_argument("--alpha-im", dest="alpha_im", type=float, default=None)
        p.add_argument("--tau-abs", dest="tau_abs", type=float, default=None)
        p.add_argument("--tau-phase", dest="tau_phase", type=float, default=None)
        p.add_argument("--t", type=float, default=None)
        p.add_argument("--t-max", dest="t_max", type=float, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", type=str, choices=("csv", "json"), default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--check", action="store_true")

    p_fig = sub.add_parser("figure", help="emit figure data")
    p_fig.add_argument("name", choices=("qampl", "qphase", "squeeze-num", "squeeze-phase"))
    add_common(p_fig)
    p_fig.set_defaults(func=cmd_figure)

    p_exp = sub.add_parser("expect", help="single expectation record")
    add_common(p_exp)
    p_exp.set_defaults(func=cmd_expect)

    p_val = sub.add_parser("validate", help="run invariant suites")
    p_val.add_argument("suite", choices=tuple(validate.SUITES) + ("all",))
    add_common(p_val)
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            apply_config(args, parse_config_file(args.config))
        if args.steps is not None and args.steps < 2:
            raise ConfigError("steps must be at least 2")
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KerrMoyalError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
