"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload h6_cipsi_pipeline --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from `src/` of the checkout
that holds this script. One caller, one solve at a time (a closed loop):
each measurement is a fresh `perfbench/measure.py` process with the BLAS
thread count pinned to 1. A new measurement starts while at least half of
it, judged by the last one's duration, fits in --seconds, so a run lasts
--seconds on average. With --trace 0 the last line holds the end-to-end
metrics, their times host-corrected by the reference kernel that runs
beside each measurement (metronome.py). With --trace 1 it holds the
per-layer metrics of traced measurements, interleaved with untraced ones
that give the tracing overhead; these run no kernel and time by the wall
clock. The workloads are fixed fixtures; --seed is recorded but changes no input
(see README.md).

Every line before the last is for people; the last line is one JSON
object. The full record, with every measurement and the environment, goes
to .bench_out/<workload>-seed<seed>-trace<t>.json in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"

# A run must end within 180 s: no measurement starts that would be expected
# to end after START_LIMIT_S, and each is killed at MEASUREMENT_LIMIT_S
# from the start of the run.
START_LIMIT_S = 120.0
MEASUREMENT_LIMIT_S = 170.0

# NUMPY_MADVISE_HUGEPAGE=0: numpy otherwise asks for huge pages for arrays
# of 4 MB and more, and whether the OS has one free then moved the peak
# RSS of the same H6 solve between 125 and 132 MB.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "PYTHONHASHSEED": "0",
}


def measure_once(workload, spans_out=None, raw=False, timeout=MEASUREMENT_LIMIT_S):
    """Run measure.py in a fresh process; returns its result dict. The
    process and its reference kernel get a session of their own, so a
    timeout kills both."""
    env = dict(os.environ, **PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload]
    if raw:
        cmd.append("--raw")
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
        out = json.loads(stdout.strip().splitlines()[-1])
    except subprocess.TimeoutExpired:
        out = {"ok": False, "problems": [f"killed after {timeout:.0f} s"]}
    except (IndexError, json.JSONDecodeError):
        tail = stderr.strip().splitlines()[-3:]
        out = {"ok": False, "problems": [f"exit {proc.returncode}: " + " | ".join(tail)]}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    out["wall_s"] = time.monotonic() - start
    return out


def run_measurements(workload, seconds, trace, seed):
    """Start measurements while at least half of one more, judged by the
    last one's duration, fits in `seconds`. Traced measurements alternate
    with untraced ones, starting traced; a traced run takes at least two
    traced measurements (so counts can be compared) and one untraced."""
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 0
        spans_out = None
        if traced:
            spans_out = OUT_DIR / f"{workload}-seed{seed}-spans{len(runs) // 2}.json"
        elapsed = time.monotonic() - start
        out = measure_once(workload, spans_out, raw=trace,
                           timeout=MEASUREMENT_LIMIT_S - elapsed)
        out["traced"] = traced
        runs.append(out)
        elapsed = time.monotonic() - start
        n_traced = sum(r["traced"] for r in runs)
        enough = not trace or (n_traced >= 2 and len(runs) - n_traced >= 1)
        if ((elapsed + out["wall_s"] / 2 > seconds and enough)
                or elapsed + out["wall_s"] > START_LIMIT_S):
            return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
                    "final_error_ha": "Ha", "cnots": "count"}


def end_to_end(runs):
    """Median of each metric over the measurements; set-up over every set-up.
    Times are host-corrected (see metronome.py); the wall times and kernel
    rates behind them are printed for people."""
    walls = [r["solve_section"]["wall_s"] for r in runs]
    rates = [r["solve_section"]["rate"] for r in runs]
    print(f"  solve wall median {statistics.median(walls):.4g} s over {len(walls)}, "
          f"reference kernel {min(rates):.0f}..{max(rates):.0f} loops/s during solves")
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        samples = [t for r in runs for t in r[name]] if name == "setup_s" \
            else [r[name] for r in runs]
        value = statistics.median(samples)
        q1, q3 = quartiles(samples)
        print(f"  {name:<16}{value:<14.6g}{unit:<7}median of {len(samples)}, "
              f"quartiles {q1:.6g} .. {q3:.6g}")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


PER_LAYER_UNITS = {"_s": "s", "_us": "us", "evals_per_iteration": "ratio"}

# Per-layer metrics that count work rather than time it: hardware
# independent, so they must repeat exactly between traced measurements.
COUNT_METRICS = (
    "pauli.to_sparse_matrix_calls", "ci.cipsi_iterations", "ci.cipsi_dets",
    "statevector.energy_grad_calls", "statevector.overlap_grad_calls",
    "statevector.apply_ansatz_calls", "statevector.rotations",
    "statevector.h_applications", "optimizer.minimize_calls",
    "optimizer.objective_evals", "optimizer.iterations",
    "optimizer.evals_per_iteration", "optimizer.not_converged", "adapt.iterations",
    "adapt.screen_calls", "overlap_adapt.iterations", "trace.spans",
)


def count_mismatches(traced):
    """Counts that differ between traced measurements, as messages."""
    return [f"count {key} differs between traced runs: {[t[key] for t in traced]}"
            for key in COUNT_METRICS if len({t[key] for t in traced}) > 1]


def per_layer(runs):
    """Layer metrics of the traced measurement with the median root span, so
    that its self times still add up to its root span."""
    traced = sorted((r["layers"] for r in runs if r["traced"]),
                    key=lambda layers: layers["trace.root_s"])
    untraced = [r["solve_s"] for r in runs if not r["traced"]]
    layers = dict(traced[(len(traced) - 1) // 2])
    layers["trace.solve_untraced_s"] = statistics.median(untraced)
    layers["trace.overhead_s"] = layers["trace.root_s"] - layers["trace.solve_untraced_s"]
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)),
                    "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<34}{value:<14.6g}{unit}")
    return metrics, count_mismatches(traced)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "oada" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'oada'}; "
                 "run from a checkout of the repository")

    runs = run_measurements(args.workload, args.seconds, bool(args.trace), args.seed)
    good = [r for r in runs if r["ok"]]
    env = next((r["env"] for r in runs if "env" in r), {})
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(runs)} measurements, {len(runs) - len(good)} failed")
    print("  " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for i, r in enumerate(runs):
        print(f"  run {i}{' traced' if r['traced'] else ''}: "
              + ("ok" if r["ok"] else "FAILED " + "; ".join(r["problems"]))
              + (f", solve_s {r['solve_s']:.4f}" if "solve_s" in r else ""))
    # Measurements that failed the physics check still report their numbers;
    # `correct` then reads false.
    finished = [r for r in runs if "solve_s" in r]
    if args.trace:
        if {r["traced"] for r in finished} != {True, False}:
            sys.exit("perfbench: no finished traced and untraced measurement pair")
        metrics, problems = per_layer(finished)
    elif finished:
        metrics, problems = end_to_end(finished), []
    else:
        sys.exit("perfbench: every measurement crashed")
    failed = len(runs) - len(good)
    print(f"  {'failed_runs':<16}{failed:<14d}{'count':<7}of {len(runs)} attempted")
    for p in problems:
        print(f"  PROBLEM {p}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "pinned_env": PINNED_ENV, "env": env, "runs": runs,
              "metrics": metrics, "problems": problems}
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    print(f"  record: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
