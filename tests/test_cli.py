"""CLI surface: figures, expect records, validation suites, config handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import kerrmoyal.cli as cli
import kerrmoyal.expectations as expectations
import kerrmoyal.kerr as kerr
import kerrmoyal.validate as validate
from kerrmoyal.phase_space import GaussPolySymbol, ZPoly


def run_cli(argv):
    return cli.main(argv)


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config:")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


# ---------------------------------------------------------------------------
# figure subcommand
# ---------------------------------------------------------------------------

def test_figure_qampl_values_and_sentinel(tmp_path):
    out = tmp_path / "qampl.csv"
    assert run_cli(["figure", "qampl", "--steps", "401", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["xi", "w2_t", "ratio_abs"]
    xi1 = [r for r in rows if float(r[0]) == 1.0]
    assert float(xi1[0][2]) == 1.0                      # xi w2 t = 0
    assert float(xi1[100][2]) == pytest.approx(2.0)     # xi w2 t = pi/4
    assert xi1[200][2] == "singular"                    # xi w2 t = pi/2
    text = out.read_text()
    assert "nan" not in text.lower() and "inf" not in text.lower()


def test_figure_qampl_envelope_grows_toward_singularity(tmp_path):
    out = tmp_path / "qampl.csv"
    run_cli(["figure", "qampl", "--steps", "201", "--out", str(out)])
    _, rows = read_csv(out)
    xi1 = [r for r in rows if float(r[0]) == 1.0 and r[2] != "singular"]
    vals = [float(r[2]) for r in xi1[:100]]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_figure_qphase_width_grows_with_intensity(tmp_path):
    out = tmp_path / "qphase.csv"
    assert run_cli(["figure", "qphase", "--steps", "401", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["t", "x2", "phi"]
    # |Phi| at fixed t just below the singular time increases with x^2
    by_x2 = {}
    for t_str, x2_str, phi_str in rows:
        if phi_str == "singular":
            continue
        by_x2.setdefault(float(x2_str), []).append((float(t_str), float(phi_str)))
    t_probe = math.pi / 2.0 - 0.05
    magnitudes = []
    for x2 in sorted(by_x2):
        t_arr = np.array([t for t, _ in by_x2[x2]])
        phi_arr = np.array([phi for _, phi in by_x2[x2]])
        magnitudes.append(abs(phi_arr[np.argmin(np.abs(t_arr - t_probe))]))
    assert all(b > a for a, b in zip(magnitudes, magnitudes[1:]))


def test_figure_squeeze_num_peak_ordering(tmp_path):
    out = tmp_path / "num.csv"
    assert run_cli(["figure", "squeeze-num", "--steps", "201", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    t_sing = (math.pi / 2.0) / 0.1
    peaks = {}
    for t_str, s_str, mq_str, mp_str in rows:
        t, s = float(t_str), float(s_str)
        if abs(t - t_sing) < 0.2 * t_sing:
            amp = math.hypot(float(mq_str), float(mp_str))
            peaks[s] = max(peaks.get(s, 0.0), amp)
    assert peaks[0.1] > peaks[0.2] > peaks[0.5]


def test_figure_squeeze_phase_flat(tmp_path):
    out = tmp_path / "phase.csv"
    assert run_cli(["figure", "squeeze-phase", "--steps", "201", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    t_sing = (math.pi / 2.0) / 0.1
    t0_amp = {}
    near = {}
    for t_str, s_str, mq_str, mp_str in rows:
        t, s = float(t_str), float(s_str)
        amp = math.hypot(float(mq_str), float(mp_str))
        if t == 0.0:
            t0_amp[s] = amp
        if abs(t - t_sing) < 0.2 * t_sing:
            near[s] = max(near.get(s, 0.0), amp)
    for s in (0.5, 0.2, 0.1):
        assert near[s] <= 0.1 * t0_amp[s]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(cli._FIGURES))
def test_figure_deterministic(tmp_path, name, fmt):
    # qampl and qphase write "singular" sentinel cells, the squeeze figures
    # numbers alone
    out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    for out in (out1, out2):
        assert run_cli(["figure", name, "--steps", "64", "--format", fmt,
                        "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("name", ["squeeze-num", "squeeze-phase"])
def test_figure_squeeze_means_are_the_closed_forms(name):
    # each row's means are the mean_q and mean_p of one closed-form result,
    # bit for bit, and every call is looked up on the module, where a tracer
    # that wraps it sees it
    args = cli.build_parser().parse_args(["figure", name, "--steps", "9",
                                          "--alpha-re", "0.7", "--alpha-im", "-0.4"])
    results = []
    real = expectations.expectation_a_closed

    def closed(*call):
        results.append(real(*call))
        return results[-1]
    with mock.patch.object(expectations, "expectation_a_closed", closed):
        _, blocks = cli._FIGURES[name](cli.resolve(f"figure {name}", args)[0])
    means = [pair for _, _, mean_q, mean_p in blocks for pair in zip(mean_q, mean_p)]
    assert len(results) == len(means) == 4 * 9
    assert means == [(res.mean_q, res.mean_p) for res in results]


@pytest.mark.parametrize("name", sorted(cli._FIGURES))
def test_figure_blocks_fit_the_header(name):
    # one block per sweep value, one entry per header name: a list column of
    # one cell per grid point or one cell the block shares; the figures over
    # t hand every block the same t list, which the writer formats once
    args = cli.build_parser().parse_args(["figure", name, "--steps", "9"])
    header, blocks = cli._FIGURES[name](cli.resolve(f"figure {name}", args)[0])
    assert len(blocks) == 4
    for block in blocks:
        assert type(block) is tuple and len(block) == len(header)
        lists = [entry for entry in block if isinstance(entry, list)]
        assert len(lists) == len(header) - 1 and all(len(col) == 9 for col in lists)
    if header[0] == "t":
        assert all(block[0] is blocks[0][0] for block in blocks)
    assert cli.build_parser() is cli.build_parser()      # one parser per process


def test_writer_matches_a_row_by_row_reference(tmp_path):
    # a column shared by both blocks, holding 0.0 and -0.0 (equal as keys of
    # a dict, written apart), a shared int cell, a shared float cell and a
    # "singular" sentinel, against each row written cell by cell
    shared = [0.0, -0.0, 1.5, 1e-300, 2.0 / 3.0]
    blocks = [(shared, 2, [1.0, "singular", -0.0, 7, -2.5e-7]),
              (shared, 0.1, [0.25, 3, 1.0 / 3.0, 1e300, "singular"])]
    header, echo = ["t", "k", "v"], {"steps": 5, "xi": 0.5}
    rows = [(t, k, v) for column, k, values in blocks for t, v in zip(column, values)]
    text = {"csv": "# config: steps=5 xi=0.5\nt,k,v\n" + "".join(
        ",".join(c if isinstance(c, str) else format(float(c), ".17g") for c in row) + "\n"
        for row in rows)}
    text["json"] = json.dumps({"config": echo, "data": [
        {name: c if isinstance(c, str) else float(c) for name, c in zip(header, row)}
        for row in rows]}, sort_keys=True, indent=1) + "\n"
    assert "\n-0,2,singular\n" in text["csv"] and "\n1.5,2,-0\n" in text["csv"]
    formatted = []
    real = cli._format_column

    def format_column(column):
        formatted.append(column)
        return real(column)
    for fmt in ("csv", "json"):
        out = tmp_path / f"table.{fmt}"
        with mock.patch.object(cli, "_format_column", format_column):
            cli.write_blocks(str(out), fmt, header, blocks, echo)
        assert out.read_bytes() == text[fmt].encode()
    # the shared column once, each block's own column and shared cell once
    assert sum(column is shared for column in formatted) == 1
    assert len(formatted) == 5


@pytest.mark.parametrize("steps", [2, 64])
@pytest.mark.parametrize("name", sorted(cli._FIGURES))
def test_figure_csv_and_json_hold_the_same_cells(tmp_path, name, steps):
    # every CSV cell parses to the JSON cell at its row and column, the sign
    # of a zero included; a "singular" sentinel is the same string in both
    paths = {fmt: tmp_path / f"figure.{fmt}" for fmt in ("csv", "json")}
    for fmt, path in paths.items():
        assert run_cli(["figure", name, "--steps", str(steps), "--format", fmt,
                        "--out", str(path)]) == 0
    header, rows = read_csv(paths["csv"])
    data = json.loads(paths["json"].read_text())["data"]
    assert len(rows) == len(data) == 4 * steps
    for row, record in zip(rows, data):
        assert sorted(record) == sorted(header)
        for key, cell in zip(header, row):
            if isinstance(record[key], str):
                assert cell == record[key] == "singular"
            else:
                value = float(cell)
                assert value == record[key]
                assert math.copysign(1.0, value) == math.copysign(1.0, record[key])


def test_figure_json_format(tmp_path):
    out = tmp_path / "q.json"
    assert run_cli(["figure", "qampl", "--steps", "17", "--format", "json",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "data"}
    assert doc["config"]["steps"] == 17
    assert doc["data"][0]["ratio_abs"] == 1.0
    sentinel = [row for row in doc["data"] if row["ratio_abs"] == "singular"]
    assert sentinel


def test_threads_option_removed(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["figure", "squeeze-num", "--steps", "48", "--threads", "4"])
    assert exc.value.code == 2
    cfg = tmp_path / "threads.cfg"
    cfg.write_text("threads = 2\n")
    capsys.readouterr()
    assert run_cli(["figure", "squeeze-num", "--config", str(cfg)]) == 2
    assert "unknown config field" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# expect subcommand
# ---------------------------------------------------------------------------

def test_expect_record_matches_library(tmp_path, capsys):
    assert run_cli(["expect", "--t", "0.8", "--tau-abs", "0.3",
                    "--tau-phase", str(math.pi), "--check"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rec = doc["record"]
    import kerrmoyal as km
    params = km.KerrParams(1.0, 0.1, 1.0)
    state = km.SqueezedState(1.0, 0.3, math.pi, 1.0)
    res = km.expectation_a_closed(0.8, state, params)
    assert rec["a_re"] == pytest.approx(res.value.real)
    assert rec["mean_q"] == pytest.approx(res.mean_q)
    assert rec["branch_winding"] == km.expectations.branch_winding(0.8, params) == 0
    assert rec["fock_deviation"] <= 1e-14
    assert rec["quadrature_deviation"] <= 1e-14


def test_expect_check_at_a_pole_marks_the_quadrature_singular(capsys):
    # xi w2 t = pi/2: the quadrature of Theta_01 has no value there, while the
    # closed form and the Fock oracle still agree
    assert run_cli(["expect", "--check", "--t", "15.707963267948966",
                    "--tau-abs", "0.3", "--tau-phase", str(math.pi)]) == 0
    rec = json.loads(capsys.readouterr().out)["record"]
    for key in ("quadrature_re", "quadrature_im", "quadrature_deviation"):
        assert rec[key] == "singular"
    assert rec["fock_deviation"] <= 1e-12


def test_expect_check_builds_its_oracle_under_the_one_fock_cap(capsys):
    # s = 0.2, dphi = 0 at xi = 0.1: the Fock oracle state needs dim 2048
    assert run_cli(["expect", "--check", "--xi", "0.1", "--t", "0.8",
                    "--tau-abs", "8.047189562170502"]) == 0
    rec = json.loads(capsys.readouterr().out)["record"]
    assert rec["fock_deviation"] <= 1e-10


def test_expect_at_t0_with_huge_w2_is_alpha(capsys):
    # xi w2 = 2e308 overflows; the winding and t~ take w2 * t = 0 first
    assert run_cli(["expect", "--xi", "2", "--w2", "1e308", "--t", "0"]) == 0
    rec = json.loads(capsys.readouterr().out)["record"]
    assert (rec["a_re"], rec["a_im"], rec["branch_winding"]) == (1.0, 0.0, 0)


@pytest.mark.parametrize("argv,error", [
    (["--xi", "2", "--w2", "1e308", "--t", "1"], "OverflowError: t~"),
    (["--tau-abs", "178"], "InvalidState"),
    (["--tau-abs", "200"], "InvalidState"),
    (["--tau-abs", "400"], "InvalidState"),
], ids=["t-tilde-overflow", "s2-subnormal", "s2-underflow", "s-underflow"])
def test_expect_state_and_angle_limits_exit_code(capsys, argv, error):
    # xi w2 t = 2e308 overflows t~; s^2 = exp(-712) is subnormal, s^2 =
    # exp(-800) is 0, and so is s = exp(-800)
    assert run_cli(["expect"] + argv) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {error}")


def test_expect_numerical_limit_exit_code(capsys):
    # s = e^{-4} needs a Fock basis past fock.DIM_CAP = 8192 states
    code = run_cli(["expect", "--tau-abs", "2.0", "--check"])
    assert code == cli.EXIT_NUMERICAL == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: TruncationInsufficient")


def test_expect_nosqueeze_reproduces_known_result(capsys):
    assert run_cli(["expect", "--t", "1.7", "--tau-abs", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    val = doc["record"]["a_re"] + 1j * doc["record"]["a_im"]
    ref = np.exp(-1j * 1.7 - 2j * math.sin(0.17) * np.exp(-0.17j))
    assert val == pytest.approx(ref, abs=1e-12)


def test_expect_t0_is_bogoliubov_mean(capsys):
    tau_abs = 0.4
    assert run_cli(["expect", "--t", "0", "--tau-abs", str(tau_abs),
                    "--tau-phase", "1.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    val = doc["record"]["a_re"] + 1j * doc["record"]["a_im"]
    ref = math.cosh(2 * tau_abs) + np.exp(1.1j) * math.sinh(2 * tau_abs)
    assert val == pytest.approx(ref, abs=1e-12)


@pytest.mark.parametrize("argv,field", [
    (["expect", "--xi", "nan"], "xi"),
    (["figure", "squeeze-num", "--w2", "nan"], "w2"),
    (["expect", "--w1", "inf"], "w1"),
    (["expect", "--alpha-re", "inf"], "alpha"),
    (["expect", "--t", "nan"], "t"),
    (["expect", "--t", "inf"], "t"),
    (["figure", "squeeze-num", "--t-max", "nan"], "t_max"),
    (["figure", "qphase", "--w2", "1e-320"], "t_max"),   # pi / (xi w2) overflows
])
def test_non_finite_inputs_are_usage_errors(argv, field, capsys):
    assert run_cli(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert field in captured.err and "finite" in captured.err


def test_qphase_zero_xi_names_xi(capsys):
    # xi is checked before the default t_max = pi / (xi w2) divides by it
    assert run_cli(["figure", "qphase", "--xi", "0"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: xi ")
    assert "t_max" not in lines[0]


def test_negative_exponent_values_are_read(capsys):
    assert run_cli(["expect", "--t", "0.8", "--alpha-re", "-9.724225676131032e-05",
                    "--alpha-im", "-2.5e-01"]) == 0
    rec = json.loads(capsys.readouterr().out)["record"]
    import kerrmoyal as km
    state = km.SqueezedState(complex(-9.724225676131032e-05, -0.25),
                             0.0, 0.0, 1.0)
    res = km.expectation_a_closed(0.8, state, km.KerrParams(1.0, 0.1, 1.0))
    assert rec["a_re"] == float(format(res.value.real, ".17g"))
    assert rec["a_im"] == float(format(res.value.imag, ".17g"))


def test_abbreviated_flag_takes_a_negative_exponent_value(capsys):
    assert run_cli(["expect", "--t", "0.8", "--alpha-r", "-1e-5"]) == 0
    rec = json.loads(capsys.readouterr().out)["record"]
    import kerrmoyal as km
    state = km.SqueezedState(complex(-1e-5, 0.0), 0.0, 0.0, 1.0)
    res = km.expectation_a_closed(0.8, state, km.KerrParams(1.0, 0.1, 1.0))
    assert rec["a_re"] == float(format(res.value.real, ".17g"))
    assert rec["a_im"] == float(format(res.value.imag, ".17g"))
    # --c is a prefix of both --check and --config, so argparse refuses it
    with pytest.raises(SystemExit) as exc:
        run_cli(["expect", "--c", "x"])
    assert exc.value.code == 2
    assert "ambiguous" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["figure", "squeeze-num", "--steps", "5", "--w1", "1e308"],
    ["expect", "--t", "1e307", "--w1", "1e308"],
    ["expect", "--alpha-re", "1e154"],
    ["expect", "--alpha-re", "1e200"],                  # OverflowError inside
    pytest.param(["validate", "all", "--w1", "1e308"],  # (m - s) w1 t overflows
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    # w1 t overflows: the closed form raises before any oracle runs, one
    # stderr line and no numpy warning, with or without --check
    pytest.param(["expect", "--w1", "1e308", "--t", "10", "--check"],
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
    pytest.param(["expect", "--w1", "1e308", "--t", "10"],
                 marks=pytest.mark.filterwarnings("error::RuntimeWarning")),
])
def test_non_finite_results_write_nothing(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_NUMERICAL
    assert run_cli(argv) == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert not out.exists() and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 2 and all(line.startswith("error: ") for line in lines)


# ---------------------------------------------------------------------------
# validate subcommand
# ---------------------------------------------------------------------------

def test_validate_all_passes(tmp_path):
    out = tmp_path / "report.json"
    assert run_cli(["validate", "all", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] is True
    assert {s["suite"] for s in doc["suites"]} == {"algebra", "moyal", "states",
                                                   "expectation"}
    for suite in doc["suites"]:
        for check in suite["checks"]:
            assert "max_deviation" in check and "tolerance" in check


@pytest.mark.parametrize("suite, xi", [
    # the oracle states need Fock dim 2048 at xi = 0.1, under fock.DIM_CAP = 8192
    (validate.validate_expectation, 0.1),
    # the coherent overlap states need dim 128 at xi = 0.01
    (validate.validate_states, 0.01),
], ids=["expectation", "states"])
def test_validate_expectation_passes_at_small_xi(suite, xi):
    report = suite(kerr.KerrParams(w1=1.0, w2=0.1, xi=xi))
    assert report.passed, report.to_dict()


def test_validate_at_a_pole_is_a_numerical_limit(capsys):
    # w2 = pi / 2.2 puts the moyal suite's t = 1.1 on the pole of Theta_01
    code = run_cli(["validate", "moyal", "--w2", repr(math.pi / 2.2)])
    assert code == cli.EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: SingularTime")


def test_validate_report_is_strict_json(capsys):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    assert run_cli(["validate", "all"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
    checks = [c for suite in doc["suites"] for c in suite["checks"]]
    # every check asserts: a finite float tolerance, no informational entries
    assert all(type(c["tolerance"]) is float and math.isfinite(c["tolerance"])
               for c in checks)
    assert not any("informational" in c for c in checks)


def test_validate_catches_injected_sign_flip(monkeypatch, tmp_path, capsys):
    # a deliberate w2 sign fault in the solution must fail the moyal suite
    true_solution = kerr.moyal_solution_symbolic

    def flipped(idx, t, params):
        bad = kerr.KerrParams(params.w1, -params.w2, params.xi)
        return true_solution(idx, t, bad)

    monkeypatch.setattr(kerr, "moyal_solution_symbolic", flipped)
    report = validate.validate_moyal(kerr.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    assert not report.passed
    failing = {c.name for c in report.checks if not c.passed}
    assert "pde_residual" in failing
    out = tmp_path / "report.json"
    assert run_cli(["validate", "moyal", "--out", str(out)]) == 1


def _swap_monomial_keys(symbolic):
    def swapped(idx, t, params):
        sym = symbolic(idx, t, params)
        poly = ZPoly({(l, k): c for (k, l), c in sym.poly.coeffs.items()})
        return GaussPolySymbol(sym.quad, sym.lin, sym.const, poly)
    return swapped


def _extra_secant(symbolic):
    def secant(idx, t, params):
        sym = symbolic(idx, t, params)
        return GaussPolySymbol(sym.quad, sym.lin, sym.const,
                               sym.poly.scale(1.0 / math.cos(idx.t_tilde(t, params))))
    return secant


@pytest.mark.parametrize("name,mutate,check", [
    ("moyal_solution_symbolic", _extra_secant, "pde_residual"),
    ("moyal_solution_symbolic", _swap_monomial_keys, "angular_eigenvalue"),
], ids=["secant-power", "monomial-keys"])
def test_validate_moyal_identities_catch_a_perturbed_solution(monkeypatch, name, mutate,
                                                              check):
    # sec^{s+m+2} t~ keeps every symmetry of Theta_sm, so of the checks that
    # read Theta_sm alone only the equation of motion sees it; swapping
    # z^k z*^l for z^l z*^k turns the number commutator's eigenvalue
    # xi (m-s) into xi (s-m)
    monkeypatch.setattr(kerr, name, mutate(getattr(kerr, name)))
    report = validate.validate_moyal(kerr.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    assert report.to_dict()["passed"] is False
    assert not {c.name: c for c in report.checks}[check].passed


def test_validate_keeps_a_nan_deviation(monkeypatch):
    # a NaN W(m, s, l) for l >= 1 makes every Theta_sm value with min(s, m) >= 1
    # NaN while the other indices stay finite; a fold that drops a NaN reads
    # the finite ones and passes both checks
    monkeypatch.setattr(kerr, "w_coefficient", lambda m, s, l: math.nan if l else 1.0)
    with np.errstate(all="ignore"):
        report = validate.validate_moyal(kerr.KerrParams(w1=1.0, w2=0.1, xi=1.0))
    checks = {c.name: c for c in report.checks}
    for name in ("angular_eigenvalue", "adjoint_symmetry"):
        assert math.isnan(checks[name].max_deviation)
        assert not checks[name].passed


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nsteps = 33\nxi = 0.5\nformat = csv\n")
    out = tmp_path / "out.csv"
    assert run_cli(["figure", "qphase", "--config", str(cfg), "--xi", "1.0",
                    "--out", str(out)]) == 0
    header, rows = read_csv(out)
    per_x2 = len({r[1] for r in rows})
    assert len(rows) == 33 * per_x2          # steps from config
    assert "xi=1" in out.read_text().splitlines()[0]  # flag beat config


def test_config_parse_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("steps 33\n")
    assert run_cli(["figure", "qampl", "--config", str(cfg)]) == 2
    assert "bad.cfg:1" in capsys.readouterr().err


def test_config_unknown_field_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("wibble = 3\n")
    assert run_cli(["figure", "qampl", "--config", str(cfg)]) == 2
    assert "wibble" in capsys.readouterr().err


@pytest.mark.parametrize("argv,config,key,command", [
    (["figure", "qampl", "--xi", "0.5"], None, "--xi", "figure qampl"),
    (["expect", "--format", "csv"], None, "--format", "expect"),
    (["figure", "squeeze-num", "--tau-abs", "9"], None, "--tau-abs", "figure squeeze-num"),
    (["validate", "all", "--steps", "5"], None, "--steps", "validate"),
    (["figure", "squeeze-num"], "t = 4\n", "'t'", "figure squeeze-num"),
], ids=["qampl-xi", "expect-format", "squeeze-num-tau-abs", "validate-steps",
        "squeeze-num-config-t"])
def test_unread_parameters_are_usage_errors(argv, config, key, command, tmp_path,
                                            capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    assert run_cli(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert key in lines[0] and command in lines[0]


# What each command reads, written out here apart from cli.PARAMETERS.
READS = {
    ("figure", "qampl"): {"steps", "out", "format"},
    ("figure", "qphase"): {"xi", "w1", "w2", "t_max", "steps", "out", "format"},
    ("figure", "squeeze-num"): {"xi", "w1", "w2", "alpha_re", "alpha_im", "t_max",
                                "steps", "out", "format"},
    ("figure", "squeeze-phase"): {"xi", "w1", "w2", "alpha_re", "alpha_im", "t_max",
                                  "steps", "out", "format"},
    ("expect",): {"xi", "w1", "w2", "alpha_re", "alpha_im", "tau_abs", "tau_phase",
                  "t", "out", "check"},
    ("validate", "all"): {"xi", "w1", "w2", "out"},
}
KEYS = {"xi", "w1", "w2", "alpha_re", "alpha_im", "tau_abs", "tau_phase", "t",
        "t_max", "steps", "out", "format", "check"}
VALUES = {"steps": "5", "format": "csv", "check": None}


def test_every_unread_flag_and_config_key_is_a_usage_error(tmp_path, capsys):
    values = dict(VALUES, out=str(tmp_path / "unused.txt"))
    pairs = 0
    for command, reads in READS.items():
        for key in sorted(KEYS - reads):
            pairs += 1
            flag = "--" + key.replace("_", "-")
            value = values.get(key, "0.5")
            argv = list(command) + ([flag] if value is None else [flag, value])
            assert run_cli(argv) == cli.EXIT_USAGE, argv
            if value is not None:           # --check has no config key
                cfg = tmp_path / "run.cfg"
                cfg.write_text(f"{key} = {value}\n")
                assert run_cli(list(command) + ["--config", str(cfg)]) == cli.EXIT_USAGE, key
    assert pairs == 36
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "unused.txt").exists()


def test_invalid_steps_rejected(tmp_path, capsys):
    assert run_cli(["figure", "qampl", "--steps", "1"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "kerrmoyal.cli", "figure", "qampl", "--steps", "5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# config:")


@pytest.mark.parametrize("argv", [
    ["expect", "--check"],
    ["validate", "all"],
    ["figure", "squeeze-num", "--steps", "11"],
], ids=["expect-check", "validate-all", "figure-squeeze-num"])
def test_commands_run_without_scipy(argv):
    # scipy serves only the tests' references; a None entry in sys.modules
    # makes any import of it fail
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; sys.modules['scipy'] = None; "
            f"import kerrmoyal.cli as cli; sys.exit(cli.main({argv!r}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
