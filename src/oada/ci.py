"""Determinant-space classical solvers: Slater-Condon matrix elements,
sector FCI, and the CIPSI selected-CI loop with Epstein-Nesbet
second-order selection.

FCI runs in `statevector.Basis.sector`, the sector the ansatz simulator
uses: the Slater-Condon matrix is built in its coordinates and solved by
`sector_ground_state`, the Davidson the pipeline runs on the projected
Jordan-Wigner Hamiltonian.

Determinants are (alpha_mask, beta_mask) bitmask pairs over spatial
orbitals; under the interleaved spin-orbital convention they map to the
single N-bit mask 2*i (alpha) / 2*i+1 (beta), which is also the
computational-basis index of the statevector simulator. All fermionic
phases follow the Jordan-Wigner ordering of that mask, so matrix elements
here agree entrywise with the dense qubit Hamiltonian.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .fcidump import FcidumpError
from .statevector import Basis, ProjectedOperator, Statevector

__all__ = [
    "Determinant",
    "DeterminantWavefunction",
    "CipsiState",
    "hartree_fock_determinant",
    "slater_condon",
    "slater_condon_hamiltonian",
    "fci_ground_state",
    "sector_ground_state",
    "cipsi_initial_state",
    "cipsi_iterate",
    "cipsi_states",
    "run_cipsi",
    "export_statevector",
    "write_wavefunction",
    "read_wavefunction",
]

logger = logging.getLogger(__name__)

INTRUDER_THRESHOLD = 1e-10


class Determinant(NamedTuple):
    alpha: int
    beta: int

    def spin_orbital_mask(self):
        mask = 0
        a, b = self.alpha, self.beta
        i = 0
        while a or b:
            mask |= ((a & 1) << (2 * i)) | ((b & 1) << (2 * i + 1))
            a >>= 1
            b >>= 1
            i += 1
        return mask

    @classmethod
    def from_spin_orbital_mask(cls, mask):
        alpha = beta = 0
        i = 0
        while mask:
            alpha |= (mask & 1) << i
            beta |= ((mask >> 1) & 1) << i
            mask >>= 2
            i += 1
        return cls(alpha, beta)

    def n_electrons(self):
        return self.alpha.bit_count() + self.beta.bit_count()


def hartree_fock_determinant(n_alpha, n_beta) -> Determinant:
    return Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)


def _so_integrals(mol):
    """Cached (h1, <pq||rs>) spin-orbital integrals for Slater-Condon rules."""
    cache = getattr(mol, "_sc_cache", None)
    if cache is None:
        cache = (np.ascontiguousarray(mol.h_pq), mol.antisymmetrized_two_body())
        mol._sc_cache = cache
    return cache


def _bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _phase_single(mask, i, a):
    """Sign of a_a^ a_i |mask> under Jordan-Wigner ordering."""
    count = (mask & ((1 << i) - 1)).bit_count()
    mask ^= 1 << i
    count += (mask & ((1 << a) - 1)).bit_count()
    return -1.0 if count & 1 else 1.0


def _phase_double(mask, i, j, a, b):
    """Sign of a_a^ a_b^ a_j a_i |mask>."""
    count = (mask & ((1 << i) - 1)).bit_count()
    mask ^= 1 << i
    count += (mask & ((1 << j) - 1)).bit_count()
    mask ^= 1 << j
    count += (mask & ((1 << b) - 1)).bit_count()
    mask |= 1 << b
    count += (mask & ((1 << a) - 1)).bit_count()
    return -1.0 if count & 1 else 1.0


def slater_condon(mol, det_i: Determinant, det_j: Determinant) -> float:
    """<I|H|J> by the Slater-Condon rules (core energy included on the diagonal)."""
    h1, g2 = _so_integrals(mol)
    mi = det_i.spin_orbital_mask()
    mj = det_j.spin_orbital_mask()
    diff = mi ^ mj
    degree = diff.bit_count() // 2
    if degree > 2:
        return 0.0
    if degree == 0:
        occ = _bits(mj)
        val = mol.core_energy + sum(h1[p, p] for p in occ)
        for a, p in enumerate(occ):
            for q in occ[a + 1:]:
                val += g2[p, q, p, q]
        return float(val)
    if degree == 1:
        i = (diff & mj).bit_length() - 1
        a = (diff & mi).bit_length() - 1
        common = _bits(mj & mi)
        val = h1[a, i] + sum(g2[a, k, i, k] for k in common)
        return float(_phase_single(mj, i, a) * val)
    hole = _bits(diff & mj)
    part = _bits(diff & mi)
    i, j = hole
    a, b = part
    return float(_phase_double(mj, i, j, a, b) * g2[a, b, i, j])


def _connected_determinants(det: Determinant, norb):
    """Same-sector singles and doubles out of `det` (spin- and S_z-conserving)."""
    alpha_occ = _bits(det.alpha)
    alpha_vir = [i for i in range(norb) if not (det.alpha >> i) & 1]
    beta_occ = _bits(det.beta)
    beta_vir = [i for i in range(norb) if not (det.beta >> i) & 1]
    seen = []
    for occ, vir, is_alpha in ((alpha_occ, alpha_vir, True), (beta_occ, beta_vir, False)):
        for i in occ:
            for a in vir:
                if is_alpha:
                    seen.append(Determinant(det.alpha ^ (1 << i) | (1 << a), det.beta))
                else:
                    seen.append(Determinant(det.alpha, det.beta ^ (1 << i) | (1 << a)))
    # alpha-alpha and beta-beta doubles
    for occ, vir, is_alpha in ((alpha_occ, alpha_vir, True), (beta_occ, beta_vir, False)):
        for i, j in itertools.combinations(occ, 2):
            for a, b in itertools.combinations(vir, 2):
                mask = (1 << i) | (1 << j) | (1 << a) | (1 << b)
                if is_alpha:
                    seen.append(Determinant(det.alpha ^ mask, det.beta))
                else:
                    seen.append(Determinant(det.alpha, det.beta ^ mask))
    # alpha-beta doubles
    for i in alpha_occ:
        for a in alpha_vir:
            am = det.alpha ^ ((1 << i) | (1 << a))
            for j in beta_occ:
                for b in beta_vir:
                    seen.append(Determinant(am, det.beta ^ ((1 << j) | (1 << b))))
    return seen


def _sector_matrix(mol, dets):
    """Hamiltonian in the given determinant list, as a real CSR matrix."""
    norb = mol.n_spin_orbitals // 2
    index = {d: k for k, d in enumerate(dets)}
    dim = len(dets)
    diag = np.array([slater_condon(mol, d, d) for d in dets])
    rows, cols, vals = [], [], []
    for jcol, det in enumerate(dets):
        for other in _connected_determinants(det, norb):
            irow = index.get(other)
            if irow is None or irow <= jcol:
                continue
            v = slater_condon(mol, other, det)
            if v != 0.0:
                rows.append(irow)
                cols.append(jcol)
                vals.append(v)
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim))
    return (upper + upper.T + sp.diags(diag)).tocsr()


def slater_condon_hamiltonian(mol) -> ProjectedOperator:
    """The Slater-Condon Hamiltonian in the molecule's `Basis.sector`.

    Rows and columns follow the sector's ascending occupation masks, so the
    matrix compares entry by entry with the Jordan-Wigner Hamiltonian
    projected onto the same basis.

    Raises:
        DimensionCapError: when the sector exceeds `MAX_SECTOR_DIM`, before
            any determinant is enumerated.
    """
    basis = Basis.sector(mol.n_spin_orbitals, mol.n_electrons)
    return ProjectedOperator(basis, _sector_matrix(mol, _determinants(basis)))


def _determinants(basis):
    return [Determinant.from_spin_orbital_mask(int(mask)) for mask in basis.masks]


@dataclass
class DeterminantWavefunction:
    """Sparse determinant expansion with real coefficients."""

    norb: int
    coefficients: dict
    energy: float | None = None

    def normalized(self):
        norm = math.sqrt(sum(c * c for c in self.coefficients.values()))
        return DeterminantWavefunction(
            self.norb, {d: c / norm for d, c in self.coefficients.items()}, self.energy)


def fci_ground_state(mol):
    """Lowest eigenpair of the Slater-Condon Hamiltonian in the molecule's
    (N_alpha, N_beta) sector, by `sector_ground_state`.

    Returns:
        (energy, DeterminantWavefunction)

    Raises:
        DimensionCapError: when the sector exceeds `MAX_SECTOR_DIM`.
        ConvergenceError: when Davidson does not converge.
    """
    energy, state = sector_ground_state(slater_condon_hamiltonian(mol))
    coeffs = {d: float(c) for d, c in zip(_determinants(state.basis), state.amplitudes)
              if abs(c) > 1e-14}
    return energy, DeterminantWavefunction(mol.n_spin_orbitals // 2, coeffs, energy)


def sector_ground_state(h_sector: ProjectedOperator):
    """Lowest eigenpair of a Hamiltonian projected onto a basis.

    Davidson on the projected real matrix to residual 1e-9, started from
    the basis state with the lowest diagonal entry (the Hartree-Fock
    determinant on every bundled fixture); the sign is fixed so that the
    largest-magnitude amplitude is positive. `fci_ground_state` solves the
    Slater-Condon matrix with it, and the ansatz loops the projected
    Jordan-Wigner one, in the same sector coordinates.

    Returns:
        (energy, normalized float64 Statevector in h_sector.basis)

    Raises:
        ConvergenceError: when Davidson does not reach that residual.
    """
    matrix = h_sector.matrix
    if np.iscomplexobj(matrix):
        raise ValueError("sector_ground_state needs a real projected Hamiltonian")
    energy, vec = _davidson(matrix, matrix.diagonal())
    vec = _fix_sign(vec / np.linalg.norm(vec))
    return energy, Statevector(h_sector.n_qubits, vec, h_sector.basis)


def _fix_sign(vec):
    """Deterministic global sign: largest-magnitude coefficient positive."""
    return -vec if vec[int(np.argmax(np.abs(vec)))] < 0 else vec


def _davidson(h, diag, tol=1e-9, max_subspace=20, max_iter=300):
    """Block-1 Davidson for the lowest eigenpair of a sparse symmetric matrix."""
    dim = h.shape[0]
    start = np.zeros(dim)
    start[int(np.argmin(diag))] = 1.0
    basis = [start]
    x = start
    theta = float(diag.min())
    for _ in range(max_iter):
        v = np.array(basis).T
        hv = h @ v
        t = v.T @ hv
        w, u = np.linalg.eigh(t)
        theta = float(w[0])
        x = v @ u[:, 0]
        residual = hv @ u[:, 0] - theta * x
        rnorm = np.linalg.norm(residual)
        if rnorm < tol:
            return theta, x
        denom = theta - diag
        denom[np.abs(denom) < 1e-12] = 1e-12
        correction = residual / denom
        if len(basis) >= max_subspace:
            basis = [x]
        # orthogonalize twice for stability
        for _ in range(2):
            for b in basis:
                correction -= np.dot(b, correction) * b
        cnorm = np.linalg.norm(correction)
        if cnorm < 1e-14:
            return theta, x
        basis.append(correction / cnorm)
    raise ConvergenceError(f"Davidson did not reach residual {tol} in {max_iter} iterations")


@dataclass
class CipsiState:
    """Reference space, variational solution and latest PT2 estimate."""

    dets: list
    coefficients: np.ndarray
    e_variational: float
    e_pt2: float = math.inf
    iteration: int = 0
    forced_intruders: int = 0

    @property
    def e_cipsi(self):
        return self.e_variational + (self.e_pt2 if math.isfinite(self.e_pt2) else 0.0)

    def wavefunction(self, norb):
        return DeterminantWavefunction(
            norb, dict(zip(self.dets, map(float, self.coefficients))),
            self.e_variational).normalized()


def cipsi_initial_state(mol) -> CipsiState:
    hf = hartree_fock_determinant(mol.n_alpha, mol.n_beta)
    e_hf = slater_condon(mol, hf, hf)
    return CipsiState([hf], np.array([1.0]), e_hf)


def _rediagonalize(mol, dets):
    w, v = np.linalg.eigh(_sector_matrix(mol, dets).toarray())
    return float(w[0]), _fix_sign(v[:, 0])


def cipsi_iterate(state: CipsiState, mol, max_total=None) -> CipsiState:
    """One CIPSI enlargement step.

    Generates the external determinants connected to the reference space,
    scores them with the Epstein-Nesbet estimate
    e_k = |<Psi0|H|k>|^2 / (E_v - <k|H|k>), selects the largest-|e_k| ones
    until the space doubles (or hits `max_total`), rediagonalizes, and sums
    the estimates of the non-selected externals into E2. Near-degenerate
    denominators force the offending determinant into the space.
    """
    norb = mol.n_spin_orbitals // 2
    in_space = set(state.dets)
    amplitudes = {}
    for det, coeff in zip(state.dets, state.coefficients):
        if abs(coeff) < 1e-14:
            continue
        for kappa in _connected_determinants(det, norb):
            if kappa in in_space:
                continue
            v = slater_condon(mol, kappa, det)
            if v != 0.0:
                amplitudes[kappa] = amplitudes.get(kappa, 0.0) + coeff * v
    scored = []
    forced = []
    for kappa, amp in amplitudes.items():
        denom = state.e_variational - slater_condon(mol, kappa, kappa)
        if abs(denom) < INTRUDER_THRESHOLD:
            forced.append(kappa)
            continue
        e2 = amp * amp / denom
        scored.append((kappa, e2))
    if forced:
        logger.warning("CIPSI: forcing %d intruder determinant(s) with degenerate "
                       "denominators into the reference space", len(forced))
    # Largest |e2| first; ties broken by determinant bitstring order.
    scored.sort(key=lambda item: (-abs(item[1]), item[0]))
    budget = len(state.dets)  # doubling cap
    if max_total is not None:
        budget = min(budget, max(0, max_total - len(state.dets)))
    selected = forced + [kappa for kappa, _ in scored[:max(0, budget - len(forced))]]
    remaining_e2 = sum(e2 for kappa, e2 in scored[len(selected) - len(forced):])
    if not selected:
        return CipsiState(state.dets, state.coefficients, state.e_variational,
                          0.0, state.iteration + 1, state.forced_intruders)
    new_dets = sorted(state.dets + selected)
    e_v, coeffs = _rediagonalize(mol, new_dets)
    return CipsiState(new_dets, coeffs, e_v, remaining_e2,
                      state.iteration + 1, state.forced_intruders + len(forced))


def cipsi_states(mol, target_e2=None, max_dets=None, max_iter=50):
    """The states of a CIPSI run from the Hartree-Fock reference, in order.

    Yields the initial state, then the result of each `cipsi_iterate`
    step until a stop rule fires: |E2| <= target_e2, the space reaching
    max_dets, or a step that adds no determinant (yielded last, with
    E2 = 0), or max_iter steps.
    """
    if target_e2 is None and max_dets is None:
        raise ValueError("need a stopping rule: target_e2 and/or max_dets")
    state = cipsi_initial_state(mol)
    yield state
    for _ in range(max_iter):
        if target_e2 is not None and abs(state.e_pt2) <= target_e2:
            return
        if max_dets is not None and len(state.dets) >= max_dets:
            return
        new_state = cipsi_iterate(state, mol, max_total=max_dets)
        yield new_state
        if len(new_state.dets) == len(state.dets):
            return
        state = new_state


def run_cipsi(mol, target_e2=None, max_dets=None, max_iter=50) -> CipsiState:
    """The last of `cipsi_states`: iterate CIPSI until a stop rule fires."""
    for state in cipsi_states(mol, target_e2, max_dets, max_iter):
        pass
    return state


def export_statevector(wavefunction: DeterminantWavefunction, n_qubits) -> Statevector:
    """Embed a determinant expansion as a normalized dense statevector."""
    state = Statevector(n_qubits)
    for det, coeff in wavefunction.coefficients.items():
        mask = det.spin_orbital_mask()
        if mask >> n_qubits:
            raise ValueError(f"determinant {det} does not fit in {n_qubits} qubits")
        state.amplitudes[mask] = coeff
    norm = state.norm()
    if norm == 0.0:
        raise ValueError("empty wavefunction")
    state.amplitudes /= norm
    return state


def write_wavefunction(wavefunction: DeterminantWavefunction, path):
    """Text format: header line, then `coeff alpha_mask_hex beta_mask_hex`."""
    nelec = next(iter(wavefunction.coefficients)).n_electrons() \
        if wavefunction.coefficients else 0
    with open(path, "w") as fh:
        fh.write(f"norb={wavefunction.norb} nelec={nelec}\n")
        for det in sorted(wavefunction.coefficients):
            c = wavefunction.coefficients[det]
            fh.write(f"{c!r} {det.alpha:x} {det.beta:x}\n")


def read_wavefunction(path) -> DeterminantWavefunction:
    """Read the text format of `write_wavefunction`.

    Raises:
        FcidumpError: on a malformed line, or a determinant that does not
            fit the header's norb or holds other than its nelec electrons.
    """
    with open(path) as fh:
        try:
            header = dict(part.split("=") for part in fh.readline().split())
            norb, nelec = int(header["norb"]), int(header["nelec"])
        except (KeyError, ValueError):
            raise FcidumpError(f"{path}: header must read 'norb=<int> nelec=<int>'") from None
        coeffs = {}
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                c, a, b = line.split()
                det = Determinant(int(a, 16), int(b, 16))
                coeffs[det] = float(c)
            except ValueError:
                raise FcidumpError(f"{path}:{number}: expected 'coeff alpha_hex beta_hex'") \
                    from None
            if (det.alpha | det.beta) >> norb or det.n_electrons() != nelec:
                raise FcidumpError(f"{path}:{number}: determinant does not fit "
                                   f"norb={norb} nelec={nelec}")
    return DeterminantWavefunction(norb, coeffs)
