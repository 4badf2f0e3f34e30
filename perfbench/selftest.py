"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py [workload ...]

For each workload (all by default) it takes two traced measurements, each
in a fresh process, and checks that:

- both pass the physics check and every traced name was found;
- every hardware-independent count repeats exactly;
- spans nest: each lies inside its parent;
- the self times of a solve's spans add up to its root span, and the root
  span matches the benchmark's own clock around the solve.

Prints one PASS or FAIL line per workload and exits 1 on any failure.
"""

from __future__ import annotations

import json
import sys

from run import OUT_DIR, count_mismatches, measure_once
from workloads import WORKLOADS

# Float rounding of a sum of a few thousand span durations.
SUM_TOL_S = 1e-6
# Benchmark-side work between its clock reads and the root span's.
CLOCK_TOL_S = 1e-3


def nesting_problems(spans):
    problems = []
    for name, start, end, parent in spans:
        if end < start:
            problems.append(f"span {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            if not p_start <= start <= end <= p_end:
                problems.append(f"span {name} is not inside its parent {spans[parent][0]}")
    return problems


def check_workload(name):
    problems, layers = [], []
    for k in range(2):
        spans_out = OUT_DIR / f"selftest-{name}-{k}.json"
        out = measure_once(name, spans_out)
        if not out["ok"]:
            return [f"measurement {k} failed: {out['problems']}"]
        if out["untraced_names"]:
            problems.append(f"names not found to trace: {out['untraced_names']}")
        problems += nesting_problems(json.loads(spans_out.read_text())["spans"])
        root, self_sum = out["layers"]["trace.root_s"], out["layers"]["trace.self_sum_s"]
        if abs(self_sum - root) > SUM_TOL_S:
            problems.append(f"self times sum to {self_sum!r} s, root span is {root!r} s")
        if abs(root - out["solve_s"]) > CLOCK_TOL_S:
            problems.append(f"root span {root!r} s, benchmark clock {out['solve_s']!r} s")
        layers.append(out["layers"])
    return problems + count_mismatches(layers)


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    failed = False
    for name in names:
        problems = check_workload(name)
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {name}")
        for p in problems:
            print(f"  {p}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
