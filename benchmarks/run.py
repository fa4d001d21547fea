"""Benchmark of the waveprop public API: one workload, one seed, one process.

    python3 benchmarks/run.py --workload commuting --seed 1 --seconds 60 --trace 0

One caller drives the package in a closed loop, with BLAS pinned to one
thread before numpy loads (the CLI default).  The workload's fixed solve
list runs in passes until the time budget is spent (at least three passes
untraced); every output is checked against its oracle.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with
--trace 1 the run spends half its budget untraced and half with the
tracer installed, and reports the per-layer metrics of the traced passes.
The exit code is 0 when every solve passed, 1 when one failed, 2 on a
usage error or when the waveprop sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_PASSES = 3
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("commuting", "cli")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "accuracy_digits.min": "digits",
    "peak_rss_mb": "MB",
}

# times the import of every waveprop module in a fresh interpreter
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import waveprop.ascent, waveprop.cli, waveprop.fields, waveprop.operators, waveprop.pde
import waveprop.quadrature, waveprop.serialization, waveprop.trotter, waveprop.verify
print(time.perf_counter() - start)
"""


def use_checkout_sources() -> None:
    """Import waveprop from this checkout's src/, and from nowhere else."""
    if not (SRC / "waveprop" / "__init__.py").is_file():
        raise ImportError(f"no waveprop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import waveprop

    if Path(waveprop.__file__).resolve().parent != SRC / "waveprop":
        raise ImportError(f"waveprop was imported from {waveprop.__file__}, not {SRC}")


def time_imports() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def run_passes(solves, budget: float, min_passes: int, tracer=None, layer_metrics=None) -> dict:
    """Run the solve list in passes until the next pass would overrun budget.

    Returns per-solve times (one list per solve), the accuracy digits, the
    failure count and, when traced, per-pass layer metrics and spans.
    """
    times = [[] for _ in solves]
    lowest = math.inf
    failed = attempted = passes = 0
    per_pass, spans = [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        written = 0
        for index, solve in enumerate(solves):
            attempted += 1
            root = tracer.open("workload", solve.label) if tracer else None
            try:
                t0 = time.perf_counter()
                try:
                    output = solve.run()
                finally:
                    times[index].append(time.perf_counter() - t0)
                    if tracer:
                        tracer.close(root)
                passed, digits, nbytes = solve.check(output)
            except Exception:  # a failed solve is counted, the run goes on
                failed += 1
                sys.stderr.write(f"solve {solve.label!r} raised:\n{traceback.format_exc()}")
                continue
            written += nbytes
            lowest = min(lowest, digits)
            if not passed:
                failed += 1
                sys.stderr.write(f"solve {solve.label!r} failed its check (digits {digits:.3f})\n")
        passes += 1
        if tracer:
            taken = tracer.take()
            per_pass.append(layer_metrics(taken, written))
            spans += [dict(span, pass_index=passes - 1) for span in taken]
        now = time.perf_counter()
        if passes >= min_passes and (now - start) + (now - pass_start) > budget:
            break
    return {"times": times, "digits": lowest, "failed": failed, "attempted": attempted,
            "passes": passes, "per_pass": per_pass, "spans": spans}


def wall_seconds(times) -> float:
    """Seconds for one pass: the sum over solves of each solve's median time."""
    return sum(statistics.median(t) for t in times)


def end_to_end_metrics(wall_s: float, setup_s: float, digits: float, rss_mb: float) -> dict:
    values = {"wall_s": wall_s, "setup_s": setup_s, "accuracy_digits.min": digits,
              "peak_rss_mb": rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def per_layer_metrics(per_pass: list[dict], overhead: float, units: dict) -> dict:
    """Mean over traced passes of each layer metric, plus the trace overhead."""
    out = {}
    for name, unit in units.items():
        value = overhead if name == "trace.overhead_frac" else statistics.fmean(p[name] for p in per_pass)
        out[name] = {"value": value, "unit": unit}
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except ImportError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    import spans
    import workloads

    build = workloads.WORKLOADS[args.workload][1]
    import_s = statistics.median(time_imports() for _ in range(SETUP_REPEATS))
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        build_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            solves = build(args.seed, scratch)
            build_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(build_times)

        if args.trace:
            plain = run_passes(solves, args.seconds / 2.0, 1)
            tracer = spans.Tracer()
            try:
                tracer.install()
                traced = run_passes(solves, args.seconds / 2.0, 1, tracer, spans.layer_metrics)
            finally:
                tracer.uninstall()
            runs = (plain, traced)
            overhead = wall_seconds(traced["times"]) / wall_seconds(plain["times"]) - 1.0
            metrics = per_layer_metrics(traced["per_pass"], overhead, spans.PER_LAYER_UNITS)
            with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w", encoding="utf-8") as fh:
                for span in traced["spans"]:
                    fh.write(json.dumps(span) + "\n")
        else:
            runs = (run_passes(solves, args.seconds, MIN_PASSES),)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            digits = runs[0]["digits"]  # infinite only when no solve was checked
            metrics = end_to_end_metrics(wall_seconds(runs[0]["times"]), setup_s,
                                         digits if math.isfinite(digits) else None, rss_mb)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{sum(r['passes'] for r in runs)} passes of {len(solves)} solves")
    for solve, samples in zip(solves, runs[-1]["times"]):
        print(f"#   {statistics.median(samples):10.4f} s  {solve.label}")
    print(f"# failed_frac = {failed / attempted:.6g} ({failed} of {attempted} solves)")
    for name, metric in metrics.items():
        print(f"# {name} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
