"""One measurement of one workload, in a process of its own.

    python3 perfbench/measure.py --workload h6_cipsi_pipeline [--raw] [--spans-out FILE]

`perfbench/run.py` starts this script once per measurement, so the peak
RSS and the package's module-level caches never carry over from another
measurement. Every import happens before the first clock read. The
script sets the fixture up several times before and after one solve,
timing each, checks the physics against perfbench/reference.json and
prints one JSON object as its last line.

The script pins itself to one CPU. By default it runs the reference
kernel of metronome.py beside itself on that CPU and reports each
section's host-corrected time; with --raw it reports wall time and runs
no kernel. With --spans-out it traces the layers (see tracer.py), writes
the spans to that file, and implies --raw.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np
import scipy

import oada
from oada import adapt, fcidump, fixtures, overlap_adapt, pauli, pool

import metronome
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Host speed changes from one second to the next, and set-ups taken back
# to back share one moment of it. So a measurement sets up on both sides
# of its solve, seconds apart; the solve uses the last set-up before it.
SETUPS_BEFORE_SOLVE = 2
SETUPS_AFTER_SOLVE = 2

# Tolerances of the physics check against the recorded trajectory. Ties
# between pool operators may resolve to another operator id, so ids are
# never compared. Runs with 2 BLAS threads or with gtol=1e-10 moved the
# energy-stage energies by <= 1.3e-14 Ha, infidelities by <= 5e-15,
# overlap-stage energies (not minimized, so first order in the angles) by
# <= 3.3e-9 Ha and selected gradients by <= 1.1e-6 relative; taking
# another tied operator on H6 moved them by 4e-2 Ha and 5x.
ENERGY_TOL_HA = 1e-8
OVERLAP_ENERGY_TOL_HA = 1e-6
INFIDELITY_TOL = 1e-8
GRADIENT_RTOL = 1e-4
VARIATIONAL_TOL_HA = 1e-9


def setup(path):
    mol = fcidump.to_spin_orbital(fcidump.read_fcidump(path))
    ham = pauli.jw_hamiltonian(mol)
    ops = pool.build_pool(mol.n_spin_orbitals, mol.n_electrons)
    return mol, ham, ops


def solve(workload, mol, ham, ops, e_ref):
    """The workload's public call; returns (ansatz, adapt trace, overlap trace)."""
    if workload.ref_source is None:
        ansatz, trace = adapt.run_adapt(ham, ops, n_electrons=mol.n_electrons,
                                        e_ref=e_ref, **workload.options)
        return ansatz, trace, None
    result = overlap_adapt.pipeline(mol, ham, ops, workload.ref_source, e_ref=e_ref,
                                    **workload.options)
    return result.ansatz, result.adapt_trace, result.overlap_trace


def trajectory(adapt_trace, overlap_trace):
    out = {
        "stop": adapt_trace.stop_reason,
        "gradients": [r.gradient for r in adapt_trace.records],
        "energies": [r.energy for r in adapt_trace.records],
    }
    if overlap_trace is not None:
        out["overlap"] = {
            "stop": overlap_trace.stop_reason,
            "gradients": [r.gradient for r in overlap_trace.records],
            "infidelities": [r.infidelity for r in overlap_trace.records],
            "energies": [r.energy for r in overlap_trace.records],
        }
    return out


def _compare(label, got, want, tol, relative=False):
    if len(got) != len(want):
        return [f"{label}: {len(got)} iterations, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want)):
        limit = tol * abs(w) if relative else tol
        if not abs(g - w) <= limit:
            problems.append(f"{label}[{i}] = {g!r}, reference {w!r}")
    return problems


def check(got, ref, final_error_ha, e_fci):
    """Physics problems of one solve, as messages; empty when it is correct."""
    problems = []
    if not abs(final_error_ha - ref["final_error_ha"]) <= ENERGY_TOL_HA:
        problems.append(f"final_error_ha {final_error_ha!r}, reference "
                        f"{ref['final_error_ha']!r}")
    ref = ref["trajectory"]
    if got["stop"] != ref["stop"]:
        problems.append(f"adapt stop reason {got['stop']!r}, reference {ref['stop']!r}")
    problems += _compare("adapt gradient", got["gradients"], ref["gradients"],
                         GRADIENT_RTOL, relative=True)
    problems += _compare("adapt energy", got["energies"], ref["energies"], ENERGY_TOL_HA)
    energies = list(got["energies"])
    if ("overlap" in got) != ("overlap" in ref):
        problems.append("overlap stage present in only one of run and reference")
    elif "overlap" in ref:
        g, r = got["overlap"], ref["overlap"]
        if g["stop"] != r["stop"]:
            problems.append(f"overlap stop reason {g['stop']!r}, reference {r['stop']!r}")
        problems += _compare("overlap gradient", g["gradients"], r["gradients"],
                             GRADIENT_RTOL, relative=True)
        problems += _compare("infidelity", g["infidelities"], r["infidelities"],
                             INFIDELITY_TOL)
        problems += _compare("overlap energy", g["energies"], r["energies"],
                             OVERLAP_ENERGY_TOL_HA)
        energies += g["energies"]
    below = [e for e in energies if not e >= e_fci - VARIATIONAL_TOL_HA]
    if below:
        problems.append(f"{len(below)} energies below REF_FCI {e_fci!r}, lowest {min(below)!r}")
    return problems


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class SectionClock:
    """Times sections of a measurement: wall and CPU seconds, the reference
    kernel's rate over the section when one runs, and the reported time
    (host-corrected seconds with the kernel, wall seconds without)."""

    def __init__(self, kernel=None):
        self.kernel = kernel
        self.sections = []

    @contextmanager
    def section(self):
        beat = self.kernel.read() if self.kernel else None
        cpu, wall = time.process_time(), time.perf_counter()
        yield
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        record = {"wall_s": wall, "cpu_s": cpu, "time_s": wall}
        if self.kernel:
            record["rate"] = metronome.rate(beat, self.kernel.read())
            record["time_s"] = cpu * record["rate"] / metronome.NOMINAL_RATE
        self.sections.append(record)


def measure(workload, spans_out, raw):
    source = Path(oada.__file__).resolve().parent
    if source != HERE.parent / "src" / "oada":
        raise RuntimeError(f"oada was imported from {source}, not from this checkout")
    path = fixtures.fixture_path(workload.fixture)
    digest = sha256(path)
    e_fci = fcidump.reference_energies(path)["REF_FCI"]
    reference = json.loads(REFERENCE.read_text()).get(workload.name)
    tracer = Tracer() if spans_out else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    # The kernel inherits this pinning, so both share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with (nullcontext() if raw or tracer else metronome.Metronome()) as kernel:
        clock = SectionClock(kernel)

        def timed_setup():
            with clock.section(), span("bench.setup"):
                return setup(path)

        if tracer:
            tracer.install()
        try:
            for _ in range(SETUPS_BEFORE_SOLVE):
                mol, ham, ops = timed_setup()
            gc.collect()
            with clock.section(), span("bench.solve"):
                ansatz, adapt_trace, overlap_trace = solve(workload, mol, ham, ops, e_fci)
            solve_section = clock.sections[-1]
            # Read before the later set-ups, which could only raise it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            for _ in range(SETUPS_AFTER_SOLVE):
                timed_setup()
        finally:
            if tracer:
                tracer.uninstall()
    setup_sections = [s for s in clock.sections if s is not solve_section]

    got = trajectory(adapt_trace, overlap_trace)
    final_error_ha = adapt_trace.final_energy - e_fci
    if reference is None:
        problems = [f"no reference for {workload.name} in {REFERENCE.name}"]
    elif digest != reference["fixture_sha256"]:
        problems = [f"fixture {workload.fixture} sha256 {digest} differs from the "
                    f"reference's {reference['fixture_sha256']}"]
    else:
        problems = check(got, reference, final_error_ha, e_fci)
    out = {
        "ok": not problems,
        "problems": problems[:10],
        "host_corrected": kernel is not None,
        "setup_s": [s["time_s"] for s in setup_sections],
        "solve_s": solve_section["time_s"],
        "setup_sections": setup_sections,
        "solve_section": solve_section,
        "peak_rss_mb": peak_rss_mb,
        "final_error_ha": final_error_ha,
        "cnots": oada.ansatz_resource_counts(ansatz.excitations)[2],
        "trajectory": got,
        "env": {
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "fixture": workload.fixture,
            "fixture_sha256": digest,
        },
    }
    if tracer:
        out["layers"] = layer_metrics(tracer.spans, tracer.counts)
        out["untraced_names"] = tracer.missing
        Path(spans_out).parent.mkdir(parents=True, exist_ok=True)
        with open(spans_out, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--raw", action="store_true",
                        help="report wall time; run no reference kernel")
    parser.add_argument("--spans-out", help="trace the layers; write spans here")
    args = parser.parse_args()
    try:
        out = measure(WORKLOADS[args.workload], args.spans_out, args.raw)
    except Exception as exc:  # reported to the parent as a failed run
        traceback.print_exc()
        out = {"ok": False, "problems": [f"{type(exc).__name__}: {exc}"]}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
