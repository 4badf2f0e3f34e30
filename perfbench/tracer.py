"""Span tracing of the package's layers from outside the package.

Each traced name is replaced, where its caller looks it up, by a wrapper
that records a span (name, start, end, parent) and, for a few names,
hardware-independent counts computed from the call's arguments and
result. Spans stay in memory until the measurement ends.

A span's name is `<layer>.<function>`; the layer is the module of the
package the function belongs to, so the self time of all spans in a solve
sums to the solve's root span.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from oada import adapt, ci, fcidump, overlap_adapt, pauli, pool, statevector

ROOT_SPAN = "bench.solve"
SETUP_SPAN = "bench.setup"


def _count_apply(counts, args, result):
    counts["statevector.rotations"] += len(args[0])


def _count_energy_grad(counts, args, result):
    # Forward apply_ansatz is its own span; the reverse sweep un-rotates
    # both the state and H|psi>.
    counts["statevector.rotations"] += 2 * len(args[0])
    counts["statevector.h_applications"] += 1


def _count_overlap_grad(counts, args, result):
    counts["statevector.rotations"] += 2 * len(args[0])


def _count_energy_screen(counts, args, result):
    counts["statevector.h_applications"] += 1


def _count_minimize(counts, args, result):
    counts["optimizer.objective_evals"] += result.n_evaluations
    counts["optimizer.iterations"] += result.n_iterations
    counts["optimizer.not_converged"] += not result.converged


def _count_adapt(counts, args, result):
    counts["adapt.iterations"] += len(result[1].records)


def _count_overlap(counts, args, result):
    counts["overlap_adapt.iterations"] += len(result[1].records)


def _count_cipsi(counts, args, result):
    counts["ci.cipsi_dets"] += len(result.dets)


# (owner, attribute, span name, counter). The owner is the namespace the
# caller resolves the name in at call time.
PATCHES = (
    (fcidump, "read_fcidump", "fcidump.read_fcidump", None),
    (fcidump, "to_spin_orbital", "fcidump.to_spin_orbital", None),
    (pauli, "jw_hamiltonian", "pauli.jw_hamiltonian", None),
    (pauli.QubitOperator, "to_sparse_matrix", "pauli.to_sparse_matrix", None),
    (pool, "build_pool", "pool.build_pool", None),
    (ci, "fci_ground_state", "ci.fci_ground_state", None),
    (ci, "run_cipsi", "ci.run_cipsi", _count_cipsi),
    (ci, "cipsi_iterate", "ci.cipsi_iterate", None),
    (ci, "export_statevector", "ci.export_statevector", None),
    (statevector, "apply_ansatz", "statevector.apply_ansatz", _count_apply),
    (adapt, "apply_ansatz", "statevector.apply_ansatz", _count_apply),
    (overlap_adapt, "apply_ansatz", "statevector.apply_ansatz", _count_apply),
    (adapt, "energy_and_gradient", "statevector.energy_and_gradient", _count_energy_grad),
    (overlap_adapt, "energy_and_gradient", "statevector.energy_and_gradient",
     _count_energy_grad),
    (overlap_adapt, "overlap_and_gradient", "statevector.overlap_and_gradient",
     _count_overlap_grad),
    (adapt, "minimize", "optimizer.minimize", _count_minimize),
    (overlap_adapt, "minimize", "optimizer.minimize", _count_minimize),
    (adapt, "screen_energy_gradients", "adapt.screen_energy_gradients",
     _count_energy_screen),
    (adapt, "run_adapt", "adapt.run_adapt", _count_adapt),
    (overlap_adapt, "run_adapt", "adapt.run_adapt", _count_adapt),
    (overlap_adapt, "screen_overlap_gradients", "overlap_adapt.screen_overlap_gradients",
     None),
    (overlap_adapt, "run_overlap_adapt", "overlap_adapt.run_overlap_adapt", _count_overlap),
    (overlap_adapt, "build_target", "overlap_adapt.build_target", None),
    (overlap_adapt, "pipeline", "overlap_adapt.pipeline", None),
)

# The layers that run inside a solve; fcidump and pool run only in set-up.
# `optimizer.minimize` is traced through its callers' names; its self time
# is scipy's BFGS bookkeeping around the objective.
SOLVE_LAYERS = ("pauli", "ci", "statevector", "optimizer", "adapt", "overlap_adapt")


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def install(self):
        for owner, attr, name, count in PATCHES:
            original = getattr(owner, attr, None)
            if original is None:
                # A renamed or removed lookup reads as zero calls, and is
                # listed in the results file.
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name, count))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, name, count):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def self_times(spans):
    """Per-span duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts):
    """Per-layer metrics of one traced measurement (see perfbench/README.md).

    Solve metrics cover the subtree of the `bench.solve` span. Set-up
    metrics are per set-up, averaged over the `bench.setup` spans.
    """
    own = self_times(spans)
    in_solve = [False] * len(spans)
    in_setup = [False] * len(spans)
    for i, (name, _, _, parent) in enumerate(spans):
        in_solve[i] = name == ROOT_SPAN or (parent >= 0 and in_solve[parent])
        in_setup[i] = name == SETUP_SPAN or (parent >= 0 and in_setup[parent])
    calls, total, setup_total = Counter(), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        if in_setup[i]:
            setup_total[name] += end - start
        elif in_solve[i]:
            calls[name] += 1
            total[name] += end - start
            layer_self[name.split(".")[0]] += own[i]
    per_setup = 1.0 / max(1, sum(1 for s in spans if s[0] == SETUP_SPAN))

    energy_calls = calls["statevector.energy_and_gradient"]
    iterations = counts["optimizer.iterations"]
    m = {
        "fcidump.read_s": setup_total["fcidump.read_fcidump"] * per_setup,
        "fcidump.to_spin_orbital_s": setup_total["fcidump.to_spin_orbital"] * per_setup,
        "pauli.jw_hamiltonian_s": setup_total["pauli.jw_hamiltonian"] * per_setup,
        "pool.build_s": setup_total["pool.build_pool"] * per_setup,
        "pauli.to_sparse_matrix_calls": calls["pauli.to_sparse_matrix"],
        "pauli.to_sparse_matrix_s": total["pauli.to_sparse_matrix"],
        "ci.fci_s": total["ci.fci_ground_state"],
        "ci.cipsi_s": total["ci.run_cipsi"],
        "ci.cipsi_iterations": calls["ci.cipsi_iterate"],
        "ci.cipsi_dets": counts["ci.cipsi_dets"],
        "ci.export_s": total["ci.export_statevector"],
        "statevector.energy_grad_calls": energy_calls,
        "statevector.energy_grad_s": total["statevector.energy_and_gradient"],
        "statevector.energy_grad_us": (1e6 * total["statevector.energy_and_gradient"]
                                       / energy_calls if energy_calls else 0.0),
        "statevector.overlap_grad_calls": calls["statevector.overlap_and_gradient"],
        "statevector.overlap_grad_s": total["statevector.overlap_and_gradient"],
        "statevector.apply_ansatz_calls": calls["statevector.apply_ansatz"],
        "statevector.apply_ansatz_s": total["statevector.apply_ansatz"],
        "statevector.rotations": counts["statevector.rotations"],
        "statevector.h_applications": counts["statevector.h_applications"],
        "optimizer.minimize_calls": calls["optimizer.minimize"],
        "optimizer.objective_evals": counts["optimizer.objective_evals"],
        "optimizer.iterations": iterations,
        "optimizer.evals_per_iteration": (counts["optimizer.objective_evals"] / iterations
                                          if iterations else 0.0),
        "optimizer.not_converged": counts["optimizer.not_converged"],
        "adapt.iterations": counts["adapt.iterations"],
        "adapt.screen_calls": calls["adapt.screen_energy_gradients"],
        "adapt.screen_s": total["adapt.screen_energy_gradients"],
        "overlap_adapt.iterations": counts["overlap_adapt.iterations"],
        "overlap_adapt.screen_s": total["overlap_adapt.screen_overlap_gradients"],
        "overlap_adapt.build_target_s": total["overlap_adapt.build_target"],
        "trace.spans": len(spans),
    }
    for layer in SOLVE_LAYERS + ("bench",):
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.root_s"] = total[ROOT_SPAN]
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m
