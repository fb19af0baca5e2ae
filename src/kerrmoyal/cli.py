"""Command-line front end: figure data regeneration, single expectation
records and validation suites.

PARAMETERS holds what each command reads and its defaults. A value comes
from its flag, else the --config file, else that table; an unread flag or
config key, a non-finite float (the derived t_max included) and a
non-positive xi are usage errors.

Output is deterministic: floats are written with 17 significant digits,
lines end with '\\n', and qampl and qphase grid points inside a singular-time
window are explicit "singular" sentinel rows. The writer emits no NaN or Inf.

Exit codes: 0 success, 1 validation failed, 2 usage or config error,
3 numerical limit reached (a typed KerrMoyalError such as
TruncationInsufficient, a float overflow or a non-finite result; one
"error:" line on stderr, no traceback, no output written).

Default figure grids (documented choices; the source text fixes none):
t spans one singular period, xi w2 t in [0, pi], with 401 steps, and the
squeeze sweeps use s in {1, 0.5, 0.2, 0.1}.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterator

import numpy as np

from . import expectations, fock, kerr, states, validate
from .errors import KerrMoyalError, SingularTime

_QAMPL_XIS = (1.0, 0.5, 0.25, 0.1)
_QPHASE_X2S = (0.5, 1.0, 2.0, 4.0)
_SQUEEZE_FACTORS = (1.0, 0.5, 0.2, 0.1)
_SQRT2 = math.sqrt(2.0)

# The type each flag and config value is parsed to; --check is a flag only.
_TYPES = {"xi": float, "w1": float, "w2": float, "alpha_re": float,
          "alpha_im": float, "tau_abs": float, "tau_phase": float, "t": float,
          "t_max": float, "steps": int, "out": str, "format": str}

# The parameters each command reads, with their defaults.  out None writes
# to stdout; t_max None spans one singular period, pi / (xi w2).
_KERR = {"xi": 1.0, "w1": 1.0, "w2": 0.1}
_ALPHA = {"alpha_re": 1.0, "alpha_im": 0.0}
_GRID = {"steps": 401, "out": None, "format": "csv"}
_SQUEEZE = {**_KERR, **_ALPHA, **_GRID, "t_max": None}
PARAMETERS = {
    "figure qampl": _GRID,
    "figure qphase": {**_KERR, "w2": 1.0, **_GRID, "t_max": None},
    "figure squeeze-num": _SQUEEZE,
    "figure squeeze-phase": _SQUEEZE,
    "expect": {**_KERR, **_ALPHA, "tau_abs": 0.0, "tau_phase": 0.0, "t": 0.0,
               "check": False, "out": None},
    "validate": {**_KERR, "out": None},
}

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


class NonFiniteResult(KerrMoyalError):
    """A computed value the writer would have emitted as NaN or Inf."""


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def parse_config_file(path: str) -> dict[str, str]:
    """Flat `key = value` format with '#' comments."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
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


def _parse_value(key: str, text: str) -> object:
    if key not in _TYPES:
        raise ConfigError(f"unknown config field {key!r}")
    try:
        return _TYPES[key](text)
    except ValueError as exc:
        raise ConfigError(f"field {key}: not a valid {_TYPES[key].__name__}: {text!r}") from exc


def resolve(command: str, args: argparse.Namespace) -> tuple[dict, dict]:
    """(values, echo) for `command`: each parameter from its flag, else the
    config file, else PARAMETERS. echo is the user-set subset that the
    output's config record shows."""
    table = PARAMETERS[command]
    flags = {key: getattr(args, key) for key in (*_TYPES, "check")
             if getattr(args, key) is not None}
    config = {} if args.config is None else {
        key: _parse_value(key, text) for key, text in parse_config_file(args.config).items()}
    unread = ([_flag(key) for key in flags if key not in table]
              + [f"config field {key!r}" for key in config if key not in table])
    if unread:
        raise ConfigError(f"{command} does not read {', '.join(unread)}")
    given = {**config, **flags}
    values = {**table, **given}
    if values.get("xi", 1.0) <= 0:  # the KerrParams rule, before t_max divides by xi
        raise ConfigError(f"xi must be positive, got {values['xi']!r}")
    if "t_max" in table and "t_max" not in given:  # one singular period
        xi_w2 = values["xi"] * values["w2"]
        values["t_max"] = math.pi / xi_w2 if xi_w2 else math.inf
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
    if "steps" in values and values["steps"] < 2:
        raise ConfigError("steps must be at least 2")
    if values.get("format") not in (None, "csv", "json"):
        raise ConfigError(f"unknown format {values['format']!r}")
    echo = {key: given[key] for key in sorted(given) if key not in ("out", "check")}
    return values, echo


def _check_finite(rows) -> None:
    """Raise NonFiniteResult on a NaN or Inf cell. A finite sum proves there
    is none, so the cells are walked only after a non-finite or failed sum."""
    cells = itertools.chain.from_iterable
    with contextlib.suppress(TypeError):  # a "singular" sentinel cell
        if math.isfinite(sum(cells(rows))):
            return
    for cell in cells(rows):
        if not (isinstance(cell, str) or math.isfinite(cell)):
            raise NonFiniteResult(f"result {cell!r} is not finite; nothing written")


def _emit(path: str | None, text: str) -> None:
    if not path:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_rows(path: str | None, fmt: str, header: list[str],
               rows: list[tuple], echo: dict[str, object]) -> None:
    """Write the rows, each a tuple: "%" takes a tuple as its arguments, so
    an all-numeric row is formatted in one step (a list would take the
    sentinel path below, with the same bytes, cell by cell)."""
    _check_finite(rows)
    if fmt == "csv":
        # one %-template formats an all-numeric row; "%.17g" % x is
        # format(float(x), ".17g") for ints and floats alike
        template = ",".join(["%.17g"] * len(header))
        lines = ["# config: " + " ".join(
            f"{key}={_fmt(val) if isinstance(val, float) else val}"
            for key, val in echo.items()), ",".join(header)]
        for row in rows:
            try:
                lines.append(template % row)
            except TypeError:  # a "singular" sentinel cell
                lines.append(",".join(
                    cell if isinstance(cell, str) else _fmt(cell) for cell in row))
        text = "\n".join(lines) + "\n"
    else:
        data = [
            {name: (cell if isinstance(cell, str) else float(cell))
             for name, cell in zip(header, row)}
            for row in rows
        ]
        text = json.dumps({"config": echo, "data": data},
                          sort_keys=True, indent=1) + "\n"
    _emit(path, text)


# ---------------------------------------------------------------------------
# figure subcommand
# ---------------------------------------------------------------------------

def _figure_qampl(p) -> tuple[list[str], list[tuple]]:
    rows: list[tuple] = []
    for xi in _QAMPL_XIS:
        w2t_grid = np.linspace(0.0, math.pi / xi, p["steps"])
        for w2t in w2t_grid:
            try:
                c = kerr.checked_cos(xi * w2t)
                ratio = 1.0 / (c * c)
            except SingularTime:
                ratio = "singular"
            rows.append((xi, float(w2t), ratio))
    return ["xi", "w2_t", "ratio_abs"], rows


def _figure_qphase(p) -> tuple[list[str], list[tuple]]:
    xi, w2 = p["xi"], p["w2"]
    params = kerr.KerrParams(p["w1"], w2, xi)
    t_grid = np.linspace(0.0, p["t_max"], p["steps"])
    rows: list[tuple] = []
    for x2 in _QPHASE_X2S:
        pt = kerr.PhasePoint(math.sqrt(x2), 0.0)
        for t in t_grid:
            try:
                phi = kerr.quantum_phase(pt, float(t), params)
            except SingularTime:
                phi = "singular"
            rows.append((float(t), x2, phi))
    return ["t", "x2", "phi"], rows


def _figure_squeeze(p, delta_phi: float) -> tuple[list[str], list[tuple]]:
    xi = p["xi"]
    params = kerr.KerrParams(p["w1"], p["w2"], xi)
    alpha = complex(p["alpha_re"], p["alpha_im"])
    t_grid = np.linspace(0.0, p["t_max"], p["steps"])
    rows: list[tuple] = []
    for s in _SQUEEZE_FACTORS:
        tau_abs = -math.log(s) / (2.0 * xi)
        phi = delta_phi + 2.0 * np.angle(alpha)
        state = states.SqueezedState(alpha, tau_abs, phi, xi)
        # read once per state, but from the module, so a tracer that wraps
        # the attribute still sees every call
        closed = expectations.expectation_a_closed
        for t in t_grid.tolist():
            # (mean_q, mean_p) = sqrt(2) (Re, Im) <a(t)>, as ExpectationResult has them
            value = closed(t, state, params)
            rows.append((t, s, _SQRT2 * value.real, _SQRT2 * value.imag))
    return ["t", "s", "mean_q", "mean_p"], rows


_FIGURES = {
    "qampl": _figure_qampl,
    "qphase": _figure_qphase,
    "squeeze-num": lambda p: _figure_squeeze(p, math.pi),
    "squeeze-phase": lambda p: _figure_squeeze(p, 0.0),
}


def cmd_figure(name: str, p: dict, echo: dict) -> int:
    write_rows(p["out"], p["format"], *_FIGURES[name](p), echo)
    return EXIT_OK


# ---------------------------------------------------------------------------
# expect subcommand
# ---------------------------------------------------------------------------

def cmd_expect(p: dict, echo: dict) -> int:
    xi = p["xi"]
    params = kerr.KerrParams(p["w1"], p["w2"], xi)
    state = states.SqueezedState(complex(p["alpha_re"], p["alpha_im"]),
                                 p["tau_abs"], p["tau_phase"], xi)
    t = p["t"]
    res = expectations.expectation_a_closed(t, state, params)
    record = {
        "t": t,
        "a_re": res.value.real,
        "a_im": res.value.imag,
        "mean_q": res.mean_q,
        "mean_p": res.mean_p,
        "branch_winding": expectations.branch_winding(t, params),
    }
    if p["check"]:
        space = fock.fock_space_for(state)
        v = fock.squeezed_vector(state, space)
        oracle = fock.heisenberg_matrix_element(kerr.ObservableIndex(0, 1), t, v, v,
                                                space, params)
        record["fock_re"] = oracle.real
        record["fock_im"] = oracle.imag
        record["fock_deviation"] = abs(res.value - oracle)
        try:
            quad = expectations.expectation_a_quadrature(t, state, params, tol=1e-8)
            record["quadrature_re"] = quad.real
            record["quadrature_im"] = quad.imag
            record["quadrature_deviation"] = abs(res.value - quad)
        except SingularTime:
            record["quadrature_re"] = "singular"
            record["quadrature_im"] = "singular"
            record["quadrature_deviation"] = "singular"
    _check_finite([record.values()])
    payload = {key: (val if isinstance(val, (str, int)) else float(val))
               for key, val in record.items()}
    _emit(p["out"], json.dumps({"config": echo, "record": payload},
                               sort_keys=True, indent=1) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def cmd_validate(suite: str, p: dict) -> int:
    names = list(validate.SUITES) if suite == "all" else [suite]
    # a non-finite deviation is refused below, so numpy need not warn of it
    with np.errstate(all="ignore"):
        reports = validate.run_suites(names, kerr.KerrParams(p["w1"], p["w2"], p["xi"]))
    # tolerances are finite; a deviation must be finite too
    _check_finite([[c.max_deviation for r in reports for c in r.checks]])
    doc = {"passed": all(r.passed for r in reports),
           "suites": [r.to_dict() for r in reports]}
    _emit(p["out"], json.dumps(doc, sort_keys=True, indent=1, default=float,
                               allow_nan=False) + "\n")
    return EXIT_OK if doc["passed"] else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use; parse_args leaves
    it unchanged, so every main call shares it.  Callers must not add to it."""
    common = argparse.ArgumentParser(add_help=False)
    for key in (*_TYPES, "check"):
        readers = ", ".join(cmd for cmd, table in PARAMETERS.items() if key in table)
        kind = ({"type": _TYPES[key]} if key in _TYPES
                else {"action": "store_true", "default": None})
        common.add_argument(_flag(key), dest=key, help=f"read by: {readers}", **kind)
    common.add_argument("--config", help="flat 'key = value' file; flags win")

    parser = argparse.ArgumentParser(
        prog="kerr",
        description="Exact Kerr-oscillator phase-space data: figures, "
                    "expectation records and validation suites.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figure", parents=[common], help="emit figure data"
                   ).add_argument("name", choices=tuple(_FIGURES))
    sub.add_parser("expect", parents=[common], help="single expectation record")
    sub.add_parser("validate", parents=[common], help="run invariant suites"
                   ).add_argument("suite", choices=tuple(validate.SUITES) + ("all",))
    return parser


def _attach_values(argv: list[str]) -> Iterator[str]:
    """Join each value flag to its value as "--flag=value": argparse reads a
    value such as "-2.5e-01" as an option string (only -N and -N.N count as
    negative numbers), never a value joined to its flag.  A flag is named in
    full or, as argparse allows, by a prefix of exactly one option; an
    ambiguous prefix is left for argparse to reject."""
    value_flags = {_flag(key) for key in _TYPES} | {"--config"}
    options = value_flags | {"--check", "--help"}
    tokens = iter(argv)
    for token in tokens:
        named = {token} if token in options else {
            option for option in options if option.startswith(token)}
        joins = len(named) == 1 and named <= value_flags
        value = next(tokens, None) if joins else None
        yield token if value is None else f"{token}={value}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(list(_attach_values(
        sys.argv[1:] if argv is None else argv)))
    command = f"figure {args.name}" if args.command == "figure" else args.command
    try:
        p, echo = resolve(command, args)
        if args.command == "figure":
            return cmd_figure(args.name, p, echo)
        if args.command == "expect":
            return cmd_expect(p, echo)
        return cmd_validate(args.suite, p)
    except (ConfigError, ValueError, OSError) as exc:  # OSError: --out, --config
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (KerrMoyalError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
