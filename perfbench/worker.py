"""One workload process: set up, run the closed loop, print one JSON line.

``run.py`` starts this process with the BLAS thread pools pinned to one
thread.  With ``--setup-only`` it stops where the first op would start and
reports the time since ``--t0``, a CLOCK_MONOTONIC reading taken just before
the process was started: interpreter start, the library import and input
generation.  Otherwise it runs the closed loop: one process, one client, each
op sent only after the previous one returned.

    python3 perfbench/worker.py --workload figure --seed 1 --seconds 5 \
        --trace 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_MODULES = ("cli", "expectations", "fock", "kerr", "states", "phase_space")
REF_EVERY_S = 0.1      # cadence of the host reference kernel between ops
REF_BURST = 3          # kernel runs per sample point
REF_NEAREST = 6        # fewest kernel samples behind a pass's local host speed


class ReferenceKernel:
    """Fixed work that never calls the library, timed to gauge host speed.

    It mixes, in about equal parts, the three kinds of work the workloads do:
    interpreted Python, a numpy pass over 256 KB and a dense mat-vec that
    streams an 8 MB matrix, so that it slows down with them when the host is
    shared.  A change to the library leaves it alone.
    """

    def __init__(self, np):
        self.phases = np.linspace(0.0, 0.16384, 16_384)
        self.matrix = np.linspace(-1.0, 1.0, 1024 * 1024).reshape(1024, 1024)
        self.vector = np.ones(1024)
        self.np = np

    def __call__(self) -> float:
        """Seconds for one run."""
        start = time.perf_counter()
        acc = 0
        for i in range(5_000):
            acc += i * i % 7
        self.np.exp(1j * self.phases).sum()
        self.matrix @ self.vector
        return time.perf_counter() - start


class Loop:
    """Runs whole passes over the prepared pool and keeps per-op results."""

    def __init__(self, workload, prepared, tolerances, error_type, kernel, tracer=None):
        self.workload = workload
        self.prepared = prepared
        self.tolerances = tolerances
        self.error_type = error_type
        self.kernel = kernel
        self.tracer = tracer
        self.latencies: list[float] = []
        self.failed = 0
        self.errors: dict[str, int] = {}
        self.worst: dict[str, float] = {}
        self.dim_max = 0
        self.bytes_out = 0
        self.pass_bounds: list[tuple[float, float, int]] = []   # (start, end, ops so far)
        self.ref: list[tuple[float, float]] = []     # (when, kernel seconds)
        self._next_ref = 0.0

    def sample_host(self) -> None:
        for _ in range(REF_BURST):
            self.ref.append((time.perf_counter(), self.kernel()))
        self._next_ref = time.perf_counter() + REF_EVERY_S

    def one(self, item) -> None:
        start = time.perf_counter()
        try:
            out = self.workload.op(item)
        except self.error_type as exc:
            out = None
            name = type(exc).__name__
            self.errors[name] = self.errors.get(name, 0) + 1
        self.latencies.append(time.perf_counter() - start)
        if self.tracer is not None:
            self.tracer.end_op()
        if out is None:
            self.failed += 1
        else:
            devs = self.workload.check(item, out)
            if self.tracer is not None:
                self.tracer.spans.clear()      # the check is not part of the op
            bad = False
            for name, dev in devs.items():
                self.worst[name] = max(self.worst.get(name, 0.0), dev)
                bad = bad or not dev <= self.tolerances[name]
            self.failed += bad
            self.dim_max = max(self.dim_max, out.get("dim", 0))
            self.bytes_out += out.get("bytes_out", 0)
        if time.perf_counter() >= self._next_ref:
            self.sample_host()

    def run(self, seconds: float | None = None, cycles: int | None = None) -> int:
        """Whole passes until `seconds` of loop time have passed, or `cycles` passes."""
        self.sample_host()
        begin = time.perf_counter()
        done = 0
        while True:
            pass_start = time.perf_counter()
            for item in self.prepared:
                self.one(item)
            self.pass_bounds.append((pass_start, time.perf_counter(), len(self.latencies)))
            done += 1
            if cycles is not None and done >= cycles:
                return done
            if seconds is not None and time.perf_counter() - begin >= seconds:
                return done

    def pass_ref(self) -> list[float]:
        """Local reference-kernel seconds of each whole pass.

        The median of the kernel samples taken during the pass, or of the
        REF_NEAREST samples closest to its midpoint when the pass is short,
        so that host slowdowns lasting a pass or longer cancel in the ratio.
        """
        times = [when for when, _ in self.ref]
        out = []
        for start, end, _ in self.pass_bounds:
            lo, hi = bisect.bisect(times, start), bisect.bisect(times, end)
            if hi - lo < REF_NEAREST:
                mid = bisect.bisect(times, 0.5 * (start + end))
                lo = max(0, min(mid - REF_NEAREST // 2, len(times) - REF_NEAREST))
                hi = lo + REF_NEAREST
            out.append(statistics.median(k for _, k in self.ref[lo:hi]))
        return out

    def relative(self) -> list[float]:
        """Each op's latency in units of its pass's reference-kernel time."""
        out = []
        first = 0
        for (_, _, last), ref in zip(self.pass_bounds, self.pass_ref()):
            out.extend(lat / ref for lat in self.latencies[first:last])
            first = last
        return out

    def summary(self) -> dict:
        return {"ops": len(self.latencies), "failed": self.failed,
                "errors": self.errors, "worst": self.worst,
                "latencies": self.latencies, "relative": self.relative(),
                "ref_ms": 1e3 * statistics.median(k for _, k in self.ref),
                "dim_max": self.dim_max, "bytes_out": self.bytes_out}


def per_layer(tracer, traced: dict, overhead: float) -> dict[str, tuple[float, str]]:
    """The traced run's per-layer metrics, per op where a count or time."""
    ops = traced["ops"]
    stats = tracer.stats

    def get(fn: str, field: str) -> float:
        st = stats.get(fn)
        return float(getattr(st, field)) / ops if st is not None else 0.0

    space_for = stats.get("fock.fock_space_for")
    vectors = stats.get("fock.squeezed_vector")
    builds = (vectors.calls / space_for.calls
              if space_for is not None and vectors is not None else 0.0)
    return {
        "expectations.closed.calls": (get("expectations.expectation_a_closed", "calls"), "1/op"),
        "expectations.closed.busy_s": (get("expectations.expectation_a_closed", "busy"), "s/op"),
        "cli.self_s": (tracer.layer_self("cli") / ops, "s/op"),
        "cli.bytes_out": (traced["bytes_out"] / ops, "B/op"),
        "expectations.quadrature.calls": (get("expectations.expectation_a_quadrature", "calls"), "1/op"),
        "expectations.quadrature.busy_s": (get("expectations.expectation_a_quadrature", "busy"), "s/op"),
        "expectations.quadrature.failed": (get("expectations.expectation_a_quadrature", "failed"), "1/op"),
        "fock.space_for.self_s": (get("fock.fock_space_for", "self"), "s/op"),
        "fock.squeezed_vector.calls": (get("fock.squeezed_vector", "calls"), "1/op"),
        "fock.squeezed_vector.busy_s": (get("fock.squeezed_vector", "busy"), "s/op"),
        "fock.vector_builds_per_state": (builds, "count"),
        "fock.dim_max": (float(traced["dim_max"]), "count"),
        "fock.sweep.busy_s": (get("fock.heisenberg_expectation_sweep", "busy"), "s/op"),
        "phase_space.star_gaussian.calls": (get("phase_space.star_gaussian", "calls"), "1/op"),
        "phase_space.star_gaussian.busy_s": (get("phase_space.star_gaussian", "busy"), "s/op"),
        "phase_space.star_differential.calls": (get("phase_space.star_differential", "calls"), "1/op"),
        "phase_space.star_differential.busy_s": (get("phase_space.star_differential", "busy"), "s/op"),
        "phase_space.inner_product.calls": (get("phase_space.phase_space_inner_product", "calls"), "1/op"),
        "phase_space.inner_product.busy_s": (get("phase_space.phase_space_inner_product", "busy"), "s/op"),
        "kerr.moyal_solution_symbolic.busy_s": (get("kerr.moyal_solution_symbolic", "busy"), "s/op"),
        "states.squeezed_projector.busy_s": (get("states.squeezed_projector", "busy"), "s/op"),
        "trace.overhead_ratio": (overhead, "x"),
        "host.ref_ms": (traced["ref_ms"], "ms"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:                    # before numpy is first imported
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy as np
    import scipy

    import adapters
    import kerrmoyal
    import workloads

    if Path(kerrmoyal.__file__).resolve().parent != SRC / "kerrmoyal":
        print(f"error: imported kerrmoyal from {kerrmoyal.__file__}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    prepared = [workload.prepare(inp) for inp in workloads.generate(args.workload, args.seed)]
    record = {"env": {"python": sys.version.split()[0], "numpy": np.__version__,
                      "scipy": scipy.__version__,
                      **{var: os.environ[var] for var in THREAD_VARS}},
              "pool": len(prepared)}
    if args.setup_only:
        record["setup_s"] = time.monotonic() - args.t0
        # the kernel's first runs in a fresh process are cold; time warm runs
        kernel = ReferenceKernel(np)
        runs = [kernel() for _ in range(3 * REF_BURST)]
        record["setup_ref_s"] = statistics.median(runs[REF_BURST:])
        print(json.dumps(record))
        return 0

    kernel = ReferenceKernel(np)
    loop = Loop(workload, prepared, workloads.TOLERANCES, adapters.LibraryError, kernel)
    if not args.trace:
        cycles = loop.run(seconds=args.seconds)
        record.update(loop.summary(), cycles=cycles,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    else:
        # traced and untraced passes alternate, so host drift hits both alike
        import tracing
        loop.tracer = tracing.Tracer()
        modules = [getattr(kerrmoyal, name) for name in TRACED_MODULES]
        plain = Loop(workload, prepared, workloads.TOLERANCES, adapters.LibraryError, kernel)
        begin = time.perf_counter()
        cycles = 0
        while cycles == 0 or time.perf_counter() - begin < args.seconds:
            loop.tracer.install(modules)
            try:
                loop.run(cycles=1)
            finally:
                loop.tracer.uninstall()
            plain.run(cycles=1)
            cycles += 1
        record.update(loop.summary(), cycles=cycles)
        overhead = sum(record["relative"]) / sum(plain.relative())
        record["per_layer"] = per_layer(loop.tracer, record, overhead)
        record["layer_self_s"] = {name: loop.tracer.layer_self(name) / record["ops"]
                                  for name in TRACED_MODULES}
        record["op_ms_traced"] = 1e3 * sum(loop.latencies) / record["ops"]
        record["failed"] += plain.failed
        record["plain_ops"] = len(plain.latencies)
        if args.trace_out:
            loop.tracer.dump(args.trace_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
