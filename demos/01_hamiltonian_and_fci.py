#!/usr/bin/env python3
"""From an FCIDUMP file to a qubit Hamiltonian and its exact ground state.

Walks the ingestion chain on the bundled H2/STO-3G fixture: parse the
integral file, assemble the spin-orbital Hamiltonian, map it to Pauli
strings, and cross-check the Hartree-Fock and FCI energies recorded in
the fixture against three independent evaluations.
"""

import numpy as np

import oada
from oada.ci import mask_to_strings

path = oada.fixture_path("h2_0.7414")
refs = oada.reference_energies(path)
data = oada.read_fcidump(path)
print(f"Loaded {path}")
print(f"  {data.norb} spatial orbitals, {data.nelec} electrons, MS2={data.ms2}")
print(f"  recorded references: {refs}")

mol = oada.to_spin_orbital(data)
ham = oada.jw_hamiltonian(mol)
print(f"\nQubit Hamiltonian: {len(ham)} Pauli terms on {ham.n_qubits} qubits")
print(oada.format_operator(ham))

# Route 1: statevector expectation in the Hartree-Fock determinant.
hf = oada.prepare_hf(mol.n_spin_orbitals, mol.n_electrons)
e_hf = oada.expectation(hf, ham)
print(f"\n<HF|H|HF>            = {e_hf:.12f}   (REF_HF  {refs['REF_HF']:.12f})")

# Route 2: Slater-Condon diagonal element of the same determinant, whose
# occupation mask has the lowest n_electrons spin orbitals set.
det = (1 << mol.n_electrons) - 1
print(f"Slater-Condon <D|H|D> = {oada.slater_condon(mol, det, det):.12f}")

# Route 3: exact diagonalization, dense qubit matrix vs determinant FCI.
dense = ham.to_dense_matrix()
e_dense = np.linalg.eigvalsh(dense)[0]
e_fci, state = oada.fci_ground_state(mol)
print(f"\ndense qubit minimum  = {e_dense:.12f}")
print(f"determinant FCI      = {e_fci:.12f}   (REF_FCI {refs['REF_FCI']:.12f})")

print("\nFCI determinant expansion:")
expansion = [(mask, c) for mask, c in zip(state.basis.masks.tolist(), state.amplitudes)
             if abs(c) > 1e-14]
for mask, coeff in sorted(expansion, key=lambda kv: -abs(kv[1])):
    alpha, beta = mask_to_strings(mask)
    print(f"  alpha={alpha:02b} beta={beta:02b}  c = {coeff:+.8f}")
