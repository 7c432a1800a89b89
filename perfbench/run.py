"""Benchmark of the mixedsdp pipeline: certified bounds, exact block
construction with SDPA emission, and the exact-oracle sandwich.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sdp-table --seed 1 --seconds 10 --trace 0

One closed-loop client runs one instance at a time in this process.  A run
makes whole passes over the workload's instance list, in an order drawn from
the seed, until ``--seconds`` have elapsed (at least one pass).  Set-up and
the cold README bound are measured in fresh child processes of this script.
With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics,
and the spans are written to ``.bench_out/``.  The exit code is 0 when every
output checked is correct, 1 when one is wrong, 2 when the checkout lacks the
program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 5  # fresh processes per run for setup_s and cold_bound_s
PROBE_TIMEOUT_S = 120
WORKLOADS = ("sdp-table", "exact-oracle")


def pin_environment() -> None:
    """Fix the BLAS thread count before numpy is imported.  One thread: the
    solver's matrices are small, and a second thread slows the first solve
    in a process and speeds up none of the workloads."""
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe(workload: str, seed: int) -> int:
    """Child side: set up as the main run does, signal readiness, then time
    the README bound as the first operation."""
    import workloads
    from harness import Tracer

    workloads.setup(Tracer(enabled=False), workload, seed, OUT_DIR)
    print("ready", flush=True)
    t0 = time.perf_counter()
    value = workloads.cold_bound()
    print(json.dumps({"cold_s": time.perf_counter() - t0, "value": value}), flush=True)
    return 0


def run_probe(workload: str, seed: int) -> tuple[float, float, int]:
    """Parent side: setup time is from spawning the child to its ready line."""
    cmd = [sys.executable, __file__, "--probe", "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe process failed with exit code {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    return setup_s, result["cold_s"], result["value"]


def declared_units(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mixedsdp" / "__init__.py").is_file():
        print(f"error: no mixedsdp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    if args.probe:
        return probe(args.workload, args.seed)

    import workloads
    from harness import (
        FAILED, Tracer, end_to_end_metrics, layer_metrics, run_instance, span_cost_s,
    )

    OUT_DIR.mkdir(exist_ok=True)
    tracer = Tracer(enabled=bool(args.trace))
    instances, mismatches = workloads.setup(tracer, args.workload, args.seed, OUT_DIR)
    # Probes are spread over the first pass: this host's speed changes over
    # seconds, and spaced probes sample several of its phases.
    slots = [len(instances) * j // PROBES for j in range(PROBES)]
    probes = []
    outcomes = []
    start = time.perf_counter()
    with workloads.traced_model(tracer) if args.trace else nullcontext():
        while not outcomes or time.perf_counter() - start < args.seconds:
            for pos, inst in enumerate(instances):
                if len(probes) < PROBES:
                    probes += [run_probe(args.workload, args.seed) for _ in range(slots.count(pos))]
                outcomes.append(run_instance(inst, tracer))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for o in outcomes:
        print(f"{o.status:10s} {o.seconds:9.3f} s  {o.name}" + (f"  -- {o.detail}" if o.detail else ""))
    for line in mismatches:
        print(f"failed     packaged table: {line}")
    cold_wrong = [value for _, _, value in probes if value != workloads.COLD_VALUE]
    for value in cold_wrong:
        print(f"failed     cold bound{workloads.COLD_SPEC}: {value}, expected {workloads.COLD_VALUE}")

    busy_s = sum(o.seconds for o in outcomes)
    if args.trace:
        overhead_s = span_cost_s() * len(tracer.spans) + tracer.bookkeeping_s
        values = layer_metrics(tracer.spans, busy_s, overhead_s)
        units = declared_units("per_layer")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "env": env,
            "spans": [vars(sp) for sp in tracer.spans],
        }))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end_metrics(
            outcomes, [setup_s for setup_s, _, _ in probes], peak_rss_mb
        )
        units = declared_units("end_to_end")
    # Printed, not gated: on a shared host their spread over ten runs comes
    # close to the largest regression bound (see README.md).
    print(
        f"instance_s.p50 {statistics.median(o.seconds for o in outcomes):.3f} s "
        f"over {len(outcomes)} instances"
    )
    print(
        f"cold_bound_s {min(cold_s for _, cold_s, _ in probes):.3f} s "
        f"(fastest of {len(probes)} fresh processes)"
    )
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    failed = sum(o.status == FAILED for o in outcomes) + len(cold_wrong)
    correct = failed == 0 and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes) + len(probes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
