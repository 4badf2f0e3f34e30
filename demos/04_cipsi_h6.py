#!/usr/bin/env python3
"""Selected CI on stretched H6: watch the reference space double.

CIPSI runs on the Jordan-Wigner Hamiltonian projected onto the
400-determinant (N_alpha, N_beta) sector, the basis the ansatz loops use.
Each iteration scores every connected external determinant with its
Epstein-Nesbet second-order estimate, doubles the reference space with
the highest scorers, and rediagonalizes. A handful of determinants already
recovers most of the correlation energy of this strongly correlated chain.
"""

import oada
from oada.ci import cipsi_initial_state, cipsi_iterate, mask_to_strings
from oada.statevector import Basis

path = oada.fixture_path("h6_3.0")
mol = oada.to_spin_orbital(oada.read_fcidump(path))
e_fci, _ = oada.fci_ground_state(mol)
print(f"E_FCI = {e_fci:.10f}")
sector = Basis.sector(mol.n_spin_orbitals, mol.n_electrons)
h_sector = sector.project(oada.jw_hamiltonian(mol))

state = cipsi_initial_state(h_sector)
print(f"\n{'iter':>4} {'dets':>5} {'E_v':>16} {'E_v - E_FCI':>13} {'E2':>12}")
print(f"{0:4d} {1:5d} {state.e_variational:16.10f} "
      f"{state.e_variational - e_fci:13.3e} {'':>12}")
for _ in range(8):
    state = cipsi_iterate(state, h_sector)
    print(f"{state.iteration:4d} {len(state.dets):5d} {state.e_variational:16.10f} "
          f"{state.e_variational - e_fci:13.3e} {state.e_pt2:12.3e}")
    if state.e_pt2 == 0.0:
        break

print(f"\nE_CIPSI = E_v + E2 = {state.e_cipsi:.10f}")
print("dominant determinants:")
ranked = sorted(zip(state.coefficients, state.dets), key=lambda t: -abs(t[0]))
for c, position in ranked[:8]:
    alpha, beta = mask_to_strings(int(sector.masks[position]))
    print(f"  alpha={alpha:06b} beta={beta:06b}  c = {c:+.6f}")
