"""Invariant suite runnable against any FCIDUMP, behind the CLI `verify`.

Each check returns (name, passed, detail). The Slater-Condon matrix is
compared with the Jordan-Wigner Hamiltonian projected onto the same
determinant sector entry by entry, over the whole sector, and its lowest
eigenpair is the FCI check; the dense generator identities run at up to 8
spin orbitals.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from . import ci
from .fcidump import dump_fcidump, parse_fcidump, read_fcidump, reference_energies, to_spin_orbital
from .pauli import PauliString, QubitOperator, jw_hamiltonian
from .pool import build_pool
from .statevector import apply_ansatz, expectation, prepare_hf
from .statevector import Ansatz

__all__ = ["run_verification"]


def _number_operator(n):
    terms = {PauliString(0, 0): n / 2.0}
    for p in range(n):
        terms[PauliString(0, 1 << p)] = -0.5
    return QubitOperator(n, terms)


def _sz_operator(n):
    terms = {}
    for p in range(n):
        sign = 1.0 if p % 2 == 0 else -1.0
        terms[PauliString(0, 1 << p)] = -0.25 * sign
        terms[PauliString(0, 0)] = terms.get(PauliString(0, 0), 0.0) + 0.25 * sign
    return QubitOperator(n, terms)


def run_verification(fcidump_path, rng_seed=7):
    checks = []
    rng = np.random.default_rng(rng_seed)

    data = read_fcidump(fcidump_path)
    refs = reference_energies(fcidump_path)
    mol = to_spin_orbital(data)
    n = mol.n_spin_orbitals

    reparsed = parse_fcidump(dump_fcidump(data))
    checks.append(("fcidump round-trip bit-for-bit",
                   reparsed.one_body == data.one_body
                   and reparsed.two_body == data.two_body
                   and reparsed.core_energy == data.core_energy, ""))

    ham = jw_hamiltonian(mol)
    checks.append(("qubit Hamiltonian hermitian",
                   ham.is_hermitian(1e-12), f"{len(ham)} terms"))

    h_sparse = ham.to_sparse_matrix()
    for name, sym in (("particle number", _number_operator(n)), ("S_z", _sz_operator(n))):
        s_sparse = sym.to_sparse_matrix()
        comm = h_sparse @ s_sparse - s_sparse @ h_sparse
        dev = np.max(np.abs(comm.data)) if comm.nnz else 0.0
        checks.append((f"[H, {name}] = 0", dev < 1e-9, f"max |comm| = {dev:.2e}"))

    h_sc = ci.slater_condon_hamiltonian(mol)
    h_jw = h_sc.basis.project(ham)
    diff = h_sc.matrix - h_jw.matrix
    dev = np.max(np.abs(diff.data)) if diff.nnz else 0.0
    checks.append(("Slater-Condon vs projected qubit matrix (whole sector)",
                   dev < 1e-10, f"dim {h_sc.basis.dim}, max dev = {dev:.2e}"))

    hf = prepare_hf(n, mol.n_electrons)
    e_hf = expectation(hf, h_sparse)
    hf_det = ci.hartree_fock_determinant(mol.n_alpha, mol.n_beta)
    dev = abs(e_hf - ci.slater_condon(mol, hf_det, hf_det))
    detail = f"E_HF = {e_hf:.10f}"
    ok = dev < 1e-10
    if "REF_HF" in refs:
        ok = ok and abs(e_hf - refs["REF_HF"]) < 1e-8
        detail += f" (ref {refs['REF_HF']:.10f})"
    checks.append(("Hartree-Fock energy consistent", ok, detail))

    e_fci, fci_state = ci.sector_ground_state(h_sc)
    detail = f"E_FCI = {e_fci:.10f}"
    ok = True
    if "REF_FCI" in refs:
        ok = abs(e_fci - refs["REF_FCI"]) < 1e-8
        detail += f" (ref {refs['REF_FCI']:.10f})"
    dev = abs(expectation(fci_state, h_jw) - e_fci)
    checks.append(("FCI energy vs reference and qubit Hamiltonian",
                   ok and dev < 1e-9, detail))

    pool = build_pool(n, mol.n_electrons)
    n_op = _number_operator(n).to_sparse_matrix()
    sz_op = _sz_operator(n).to_sparse_matrix()
    dev = 0.0
    for op in pool:
        t = op.generator(n).to_sparse_matrix()
        for sym in (n_op, sz_op):
            comm = t @ sym - sym @ t
            if comm.nnz:
                dev = max(dev, np.max(np.abs(comm.data)))
    checks.append(("pool generators conserve N and S_z", dev < 1e-12,
                   f"{len(pool)} operators, max dev = {dev:.2e}"))

    if n <= 8:
        dev = 0.0
        for op in pool:
            t = op.generator(n).to_dense_matrix()
            b = 1j * t
            dev = max(dev, np.max(np.abs(b @ b @ b - b)))
            for theta in rng.uniform(-np.pi, np.pi, size=3):
                lhs = expm(-1j * theta * b)
                rhs = np.eye(len(b)) + (np.cos(theta) - 1) * (b @ b) - 1j * np.sin(theta) * b
                dev = max(dev, np.max(np.abs(lhs - rhs)))
        checks.append(("generator cube and exponential identity", dev < 1e-12,
                       f"max dev = {dev:.2e}"))

    ansatz = Ansatz(n, mol.n_electrons)
    for _ in range(100):
        op = pool[rng.integers(len(pool))]
        ansatz.append(op.excitation, rng.uniform(-np.pi, np.pi))
    state = apply_ansatz(ansatz)
    dev = abs(state.norm() - 1.0)
    sector_bits = mol.n_electrons
    leaked = sum(abs(a) for i, a in enumerate(state.amplitudes)
                 if i.bit_count() != sector_bits)
    checks.append(("norm and particle number preserved over 100 random evolutions",
                   dev < 1e-10 and leaked == 0.0,
                   f"|norm-1| = {dev:.2e}, leakage = {leaked:.1e}"))

    return checks
