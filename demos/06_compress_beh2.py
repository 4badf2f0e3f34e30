#!/usr/bin/env python3
"""Ansatz compression on stretched BeH2 (14 qubits).

Grow a 50-operator ansatz the plain adaptive way, then use it as the
overlap target of a fresh two-stage run with the same 50-operator budget.
The recompressed ansatz lands an order of magnitude closer to FCI: the
overlap stage repacks the information of the plateau-afflicted ansatz
into a better-ordered operator sequence. Takes about two seconds on one
CPU core.
"""

import oada

path = oada.fixture_path("beh2_3.0")
mol = oada.to_spin_orbital(oada.read_fcidump(path))
ham = oada.jw_hamiltonian(mol)
pool = oada.build_pool(mol.n_spin_orbitals, mol.n_electrons)
e_fci, _ = oada.fci_ground_state(mol)
print(f"BeH2 at 3.0 A: {mol.n_spin_orbitals} qubits, pool of {len(pool)} operators")
print(f"E_FCI = {e_fci:.10f}")

print("\nplain adaptive growth, 50 operators ...")
ansatz, trace = oada.run_adapt(ham, pool, n_electrons=mol.n_electrons,
                               eps=1e-8, max_ops=50, e_ref=e_fci)
err_plain = trace.final_energy - e_fci
sq, dq, cnots = oada.ansatz_resource_counts(ansatz.excitations)
print(f"  error {err_plain:.3e} Ha  (SQ={sq} DQ={dq} CNOTs={cnots})")

print("\ncompression: overlap-target the 50-operator ansatz, re-grow ...")
result = oada.pipeline(mol, ham, pool, "adapt-ansatz", p_overlap=20, p_total=50,
                       target_ansatz=ansatz, e_ref=e_fci)
err_comp = result.adapt_trace.final_energy - e_fci
sq, dq, cnots = oada.ansatz_resource_counts(result.ansatz.excitations)
print(f"  error {err_comp:.3e} Ha  (SQ={sq} DQ={dq} CNOTs={cnots})")
print(f"\nimprovement factor: {err_plain / err_comp:.1f}x")
