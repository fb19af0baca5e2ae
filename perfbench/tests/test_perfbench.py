"""Tests of the benchmark itself: self-time arithmetic, seeded inputs, exact
counts, failure accounting and the output contract.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import kerrmoyal  # noqa: E402
import numpy as np  # noqa: E402

import adapters  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

Span = tracing.Span


def test_self_times_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 3.0, 0),
        Span("a.child", 1.5, 2.0, 1),
        Span("b", 2.0, 4.0, 0),      # overlaps a: covered time is the union 1..4
        Span("c", 8.0, 12.0, 0),     # runs past its parent: clipped to 8..10
        Span("other", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 1.5, 0.5, 2.0, 4.0, 1.0])


def test_tracer_folds_busy_once_under_recursion():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return None

    inner_t = tracer.wrap("m.inner", inner)

    def outer(depth):
        if depth:
            outer_t(depth - 1)
        inner_t()

    outer_t = tracer.wrap("m.outer", outer)
    outer_t(1)           # outer(1) [0, 7]: outer(0) [1, 4] > inner [2, 3]; inner [5, 6]
    tracer.end_op()
    outer_stats, inner_stats = tracer.stats["m.outer"], tracer.stats["m.inner"]
    assert (outer_stats.calls, outer_stats.busy, outer_stats.self) == (2, 7.0, 5.0)
    assert (inner_stats.calls, inner_stats.busy, inner_stats.self) == (2, 2.0, 2.0)
    assert tracer.layer_self("m") == 7.0
    assert tracer.spans == [] and len(tracer.kept) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_seed_determined(name):
    first = workloads.generate(name, 11)
    assert first == workloads.generate(name, 11)
    assert first != workloads.generate(name, 12)


def _traced_pass(name: str, items: int) -> tuple[dict, int, int]:
    wl = workloads.WORKLOADS[name]
    prepared = [wl.prepare(inp) for inp in workloads.generate(name, 3)[:items]]
    tracer = tracing.Tracer()
    tracer.install(getattr(kerrmoyal, mod) for mod in worker.TRACED_MODULES)
    try:
        loop = worker.Loop(wl, prepared, workloads.TOLERANCES, adapters.LibraryError,
                           worker.ReferenceKernel(np), tracer)
        loop.run(cycles=1)
    finally:
        tracer.uninstall()
    assert loop.failed == 0
    counts = {fn: (st.calls, st.failed) for fn, st in tracer.stats.items()}
    return counts, loop.dim_max, loop.bytes_out


@pytest.mark.parametrize("name,items", [("figure", 2), ("oracle-mild", 3),
                                        ("oracle-strong", 1), ("symbols", 18)])
def test_counts_repeat_exactly(name, items):
    first = _traced_pass(name, items)
    assert first == _traced_pass(name, items)
    counts, dim_max, bytes_out = first
    if name == "figure":
        assert counts["expectations.expectation_a_closed"][0] == 2 * 4 * workloads.FIGURE_STEPS
        assert bytes_out > 0
    if name.startswith("oracle"):
        per_state = len(workloads.ORACLE_TT) * items
        assert counts["expectations.expectation_a_quadrature"] == (per_state, 0)
        assert counts["fock.squeezed_vector"][0] > counts["fock.fock_space_for"][0] == items
        assert dim_max >= 64
    assert not hasattr(kerrmoyal.fock.squeezed_vector, "__wrapped__")


def test_library_errors_and_failed_checks_count_as_failures():
    def op(item):
        if item == "raise":
            raise kerrmoyal.SingularTime("at a pole")
        return {"dev": 1.0 if item == "bad" else 0.0}

    wl = workloads.Workload(lambda rng: [], lambda x: x, op,
                            lambda item, out: {"coherent_s1": out["dev"]})
    loop = worker.Loop(wl, ["ok", "raise", "bad"], workloads.TOLERANCES,
                       adapters.LibraryError, worker.ReferenceKernel(np))
    loop.run(cycles=1)
    summary = loop.summary()
    assert (summary["ops"], summary["failed"]) == (3, 2)
    assert summary["errors"] == {"SingularTime": 1}
    assert summary["worst"] == {"coherent_s1": 1.0}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,key", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_matches_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run(ROOT, "--workload", "symbols", "--seed", "5", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "figure", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
