"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload figure --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` the last line carries the
end-to-end metrics (ops_per_s, latency_p50_ms, setup_s, peak_rss_mb); with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it print every metric by name and unit, the failed ratio, the worst
deviation of every check and the run's environment.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("figure", "oracle-mild", "oracle-strong", "symbols")
SETUP_PROBES = 5        # set-up-only processes; setup_s is their median
RUN_LIMIT_S = 170.0     # every process of one invocation ends within this
# Timings are reported for a host on which the reference kernel
# (worker.reference_kernel) takes REFERENCE_MS: each measured time is divided
# by the kernel time measured next to it and multiplied by this constant.
REFERENCE_MS = 1.5


def git_rev(root: Path) -> str:
    """HEAD's commit read from .git in the checkout, without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    """sha256 over the library's Python sources, to name the code measured."""
    digest = hashlib.sha256()
    for path in sorted((src / "kerrmoyal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def spawn(args: list[str], env: dict, deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    cmd = [sys.executable, str(WORKER), *args, "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def percentile_with_tail(values: list[float], pct: int) -> tuple[float, int]:
    """(value at pct, number of samples above it)."""
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return cut, sum(v > cut for v in values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="kerrmoyal benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kerrmoyal" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        probes = [spawn([*common, "--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES)]
        extra = []
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            extra = ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.json")]
        rec = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                     *extra], env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lat = rec["latencies"]
    rel = rec["relative"]
    ref_s = REFERENCE_MS / 1e3
    attempted = rec["ops"] + rec.get("plain_ops", 0)
    failed = rec["failed"]
    env_rec = {**rec["env"], "nproc": os.cpu_count(),
               "affinity": len(os.sched_getaffinity(0)), "git_rev": git_rev(ROOT),
               "src_sha256": source_digest(SRC)}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"pool {rec['pool']}, {rec['cycles']} passes, {rec['ops']} ops, 1 client")
    print("env " + json.dumps(env_rec, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in rec["per_layer"].items()}
        op_ms = rec["op_ms_traced"]
        for layer, self_s in rec["layer_self_s"].items():
            print(f"  share {layer:<14} {100.0 * 1e3 * self_s / op_ms:6.1f} % of traced op time (self)")
    else:
        ok_ops = rec["ops"] - failed
        setup = [p["setup_s"] for p in probes]
        setup_rel = [p["setup_s"] / p["setup_ref_s"] for p in probes]
        metrics = {
            "ops_per_s": {"value": ok_ops / (ref_s * sum(rel)), "unit": "1/s"},
            "latency_p50_ms": {"value": REFERENCE_MS * statistics.median(rel), "unit": "ms"},
            "setup_s": {"value": ref_s * statistics.median(setup_rel), "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
        }
        p90, beyond = percentile_with_tail(rel, 90)
        tail = f"{REFERENCE_MS * p90:.4f} ms ({beyond} samples beyond)" if beyond >= 10 else \
            f"not reported: {beyond} samples beyond p90, fewer than 10"
        print(f"  latency_p90_ms {tail}; n = {len(lat)}")
        print(f"  host.ref_ms    {rec['ref_ms']:.4f} ms; timings below are scaled to "
              f"{REFERENCE_MS} ms")
        print(f"  raw wall time  ops_per_s {ok_ops / sum(lat):.6g} 1/s, latency_p50_ms "
              f"{1e3 * statistics.median(lat):.6g} ms, setup_s {statistics.median(setup):.6g} s")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio   {failed / attempted:.6g} ({failed}/{attempted}) {rec['errors'] or ''}")
    for name, dev in sorted(rec["worst"].items()):
        print(f"  check {name:<22} worst deviation {dev:.3e}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
