"""Determinant-space classical solvers: Slater-Condon matrix elements,
sector FCI, and the CIPSI selected-CI loop with Epstein-Nesbet
second-order selection.

Both solvers run in `statevector.Basis.sector`, the sector the ansatz
simulator uses, on a Hamiltonian projected onto it. FCI solves the
Slater-Condon matrix, built in those coordinates, with
`sector_ground_state`, the solve the pipeline runs on the projected
Jordan-Wigner Hamiltonian for its exact target. CIPSI takes such a
projected Hamiltonian and keeps its space as sector positions. One
Davidson (`_davidson`) serves the FCI oracle, the exact target and
CIPSI's variational step.

A CI state is a `Statevector` in that sector. A determinant is the
occupation mask of a basis state: interleaved spin orbitals, bit 2*i
(alpha) and 2*i+1 (beta) of spatial orbital i. Only the `.dets` text
format (`write_wavefunction`, `read_wavefunction`) spells a determinant
as an (alpha, beta) pair of spatial-orbital strings, through
`mask_to_strings` and `strings_to_mask`. All fermionic phases follow the
Jordan-Wigner ordering of the mask, so matrix elements here agree
entrywise with the qubit Hamiltonian.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError
from .fcidump import FcidumpError
from .statevector import Basis, ProjectedOperator, Statevector

__all__ = [
    "CipsiState",
    "strings_to_mask",
    "mask_to_strings",
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
# A CIPSI run stops after this many enlargement steps if no other rule fires.
CIPSI_MAX_ITER = 50
DAVIDSON_TOL = 1e-9
DAVIDSON_SUBSPACE = 20
DAVIDSON_MAX_ITER = 300


def strings_to_mask(alpha, beta):
    """Interleaved spin-orbital occupation mask of an (alpha, beta) pair of
    spatial-orbital strings."""
    mask = 0
    i = 0
    while alpha or beta:
        mask |= ((alpha & 1) << (2 * i)) | ((beta & 1) << (2 * i + 1))
        alpha >>= 1
        beta >>= 1
        i += 1
    return mask


def mask_to_strings(mask):
    """(alpha, beta) spatial-orbital strings of an interleaved spin-orbital
    occupation mask."""
    alpha = beta = 0
    i = 0
    while mask:
        alpha |= (mask & 1) << i
        beta |= ((mask >> 1) & 1) << i
        mask >>= 2
        i += 1
    return alpha, beta


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


def slater_condon(mol, mask_i: int, mask_j: int) -> float:
    """<I|H|J> by the Slater-Condon rules (core energy included on the
    diagonal), for determinants given as interleaved spin-orbital masks."""
    h1, g2 = _so_integrals(mol)
    diff = mask_i ^ mask_j
    degree = diff.bit_count() // 2
    if degree > 2:
        return 0.0
    if degree == 0:
        occ = _bits(mask_j)
        val = mol.core_energy + sum(h1[p, p] for p in occ)
        for a, p in enumerate(occ):
            for q in occ[a + 1:]:
                val += g2[p, q, p, q]
        return float(val)
    if degree == 1:
        i = (diff & mask_j).bit_length() - 1
        a = (diff & mask_i).bit_length() - 1
        common = _bits(mask_j & mask_i)
        val = h1[a, i] + sum(g2[a, k, i, k] for k in common)
        return float(_phase_single(mask_j, i, a) * val)
    hole = _bits(diff & mask_j)
    part = _bits(diff & mask_i)
    i, j = hole
    a, b = part
    return float(_phase_double(mask_j, i, j, a, b) * g2[a, b, i, j])


def slater_condon_hamiltonian(mol) -> ProjectedOperator:
    """The Slater-Condon Hamiltonian in the molecule's `Basis.sector`.

    Rows and columns follow the sector's ascending occupation masks, so the
    matrix compares entry by entry with the Jordan-Wigner Hamiltonian
    projected onto the same basis. It is the oracle for that projection:
    each column's coupled rows are the masks that differ from it in at most
    four spin orbitals, its same-sector singles and doubles.

    Raises:
        DimensionCapError: when the sector exceeds `MAX_SECTOR_DIM`, before
            any determinant is enumerated.
    """
    basis = Basis.sector(mol.n_spin_orbitals, mol.n_electrons)
    masks = basis.masks
    dets = masks.tolist()
    diag = np.array([slater_condon(mol, d, d) for d in dets])
    rows, cols, vals = [], [], []
    for jcol, det in enumerate(dets):
        below = jcol + 1 + np.flatnonzero(np.bitwise_count(masks[jcol + 1:] ^ masks[jcol]) <= 4)
        for irow in below.tolist():
            v = slater_condon(mol, dets[irow], det)
            if v != 0.0:
                rows.append(irow)
                cols.append(jcol)
                vals.append(v)
    upper = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim))
    return ProjectedOperator(basis, (upper + upper.T + sp.diags(diag)).tocsr())


def fci_ground_state(mol):
    """Lowest eigenpair of the Slater-Condon Hamiltonian in the molecule's
    (N_alpha, N_beta) sector, by `sector_ground_state`.

    Returns:
        (energy, normalized float64 Statevector in the molecule's
        `Basis.sector`)

    Raises:
        DimensionCapError: when the sector exceeds `MAX_SECTOR_DIM`.
        ConvergenceError: when Davidson does not converge.
    """
    return sector_ground_state(slater_condon_hamiltonian(mol))


def sector_ground_state(h_sector: ProjectedOperator):
    """Lowest eigenpair of a Hamiltonian projected onto a basis.

    `_davidson` on the projected real matrix, started from the basis state
    with the lowest diagonal entry (the Hartree-Fock determinant on every
    bundled fixture). `fci_ground_state` solves the Slater-Condon matrix
    with it, and the ansatz loops the projected Jordan-Wigner one, in the
    same sector coordinates.

    Returns:
        (energy, normalized float64 Statevector in h_sector.basis, its
        largest-magnitude amplitude positive)

    Raises:
        ConvergenceError: when Davidson does not reach its residual.
    """
    matrix = h_sector.matrix
    start = np.zeros(matrix.shape[0])
    start[int(np.argmin(matrix.diagonal()))] = 1.0
    energy, vec = _davidson(matrix, start)
    return energy, Statevector(h_sector.n_qubits, vec, h_sector.basis)


def _davidson(h, start):
    """Block-1 Davidson for the lowest eigenpair of a sparse symmetric
    matrix, started from `start`, to residual `DAVIDSON_TOL`.

    The subspace vectors and their H products are the rows of two fixed
    arrays of `DAVIDSON_SUBSPACE` rows. H is applied once to each new
    vector; when the rows are full, the subspace restarts from the current
    Ritz vector, and H is applied to it.

    Returns:
        (energy, vector), the vector normalized with its largest-magnitude
        entry positive.

    Raises:
        ConvergenceError: after `DAVIDSON_MAX_ITER` iterations without
            reaching the residual.
    """
    diag = h.diagonal()
    basis = np.empty((DAVIDSON_SUBSPACE, h.shape[0]))
    h_basis = np.empty_like(basis)
    basis[0] = start / np.linalg.norm(start)
    h_basis[0] = h @ basis[0]
    k = 1
    for _ in range(DAVIDSON_MAX_ITER):
        w, u = np.linalg.eigh(basis[:k] @ h_basis[:k].T)
        theta = float(w[0])
        x = u[:, 0] @ basis[:k]
        residual = u[:, 0] @ h_basis[:k] - theta * x
        if np.linalg.norm(residual) < DAVIDSON_TOL:
            break
        denom = theta - diag
        denom[np.abs(denom) < 1e-12] = 1e-12
        correction = residual / denom
        if k == DAVIDSON_SUBSPACE:
            basis[0], h_basis[0], k = x, h @ x, 1
        # orthogonalize twice for stability
        for _ in range(2):
            correction -= (basis[:k] @ correction) @ basis[:k]
        cnorm = np.linalg.norm(correction)
        if cnorm < 1e-14:
            break
        basis[k] = correction / cnorm
        h_basis[k] = h @ basis[k]
        k += 1
    else:
        raise ConvergenceError(f"Davidson did not reach residual {DAVIDSON_TOL} "
                               f"in {DAVIDSON_MAX_ITER} iterations")
    x /= np.linalg.norm(x)
    return theta, -x if x[int(np.argmax(np.abs(x)))] < 0 else x


@dataclass
class CipsiState:
    """Reference space, variational solution and latest PT2 estimate.

    `dets` holds the ascending positions of the reference determinants in
    the sector basis of the run's Hamiltonian, and `coefficients` their
    float64 amplitudes in that order.
    """

    dets: np.ndarray
    coefficients: np.ndarray
    e_variational: float
    e_pt2: float = math.inf
    iteration: int = 0
    forced_intruders: int = 0

    @property
    def e_cipsi(self):
        return self.e_variational + (self.e_pt2 if math.isfinite(self.e_pt2) else 0.0)

    def statevector(self, basis: Basis) -> Statevector:
        """The variational state in `basis`, the sector the run used."""
        amplitudes = np.zeros(basis.dim)
        amplitudes[self.dets] = self.coefficients
        return Statevector(basis.n_qubits, amplitudes, basis)


def cipsi_initial_state(h_sector: ProjectedOperator) -> CipsiState:
    """The Hartree-Fock determinant alone: position 0 of the sector.

    Raises:
        ValueError: unless the Hamiltonian is projected onto a determinant
            sector (`Basis.sector`), a basis that records its electron counts.
    """
    if h_sector.basis.counts is None:
        raise ValueError("CIPSI needs a Hamiltonian projected onto a determinant sector")
    return CipsiState(np.array([0]), np.array([1.0]), float(h_sector.matrix[0, 0]))


def cipsi_iterate(state: CipsiState, h_sector: ProjectedOperator, max_total=None) -> CipsiState:
    """One CIPSI enlargement step.

    The external determinants are the sector positions outside the space
    that the Hamiltonian couples to it. Each is scored with the
    Epstein-Nesbet estimate e_k = <k|H|Psi0>^2 / (E_v - <k|H|k>); the
    largest-|e_k| ones (ties to the lower position) join until the space
    doubles (or hits `max_total`), the space is rediagonalized by
    `_davidson` from the previous coefficients, and the estimates of the
    non-selected externals sum to E2. Near-degenerate denominators force
    the offending determinant into the space.

    Davidson's start holds zeros at the new determinants, so its Rayleigh
    quotient is the previous E_v, and E_v does not rise.

    Raises:
        ConvergenceError: when Davidson does not reach its residual.
    """
    h = h_sector.matrix
    space = state.dets
    active = np.abs(state.coefficients) >= 1e-14
    # H is symmetric: the rows of the space hold the columns H[:, space].
    rows = h[space[active]]
    external = np.setdiff1d(rows.indices, space)
    amplitudes = (rows.T @ state.coefficients[active])[external]
    denominators = state.e_variational - h.diagonal()[external]
    forced = np.abs(denominators) < INTRUDER_THRESHOLD
    n_forced = int(forced.sum())
    if n_forced:
        logger.warning("CIPSI: forcing %d intruder determinant(s) with degenerate "
                       "denominators into the reference space", n_forced)
    scored = external[~forced]
    e2 = amplitudes[~forced] ** 2 / denominators[~forced]
    order = np.argsort(-np.abs(e2), kind="stable")  # scored is ascending
    budget = len(space)  # doubling cap
    if max_total is not None:
        budget = min(budget, max(0, max_total - len(space)))
    n_scored = max(0, budget - n_forced)
    selected = np.concatenate([external[forced], scored[order[:n_scored]]])
    if not len(selected):
        return CipsiState(space, state.coefficients, state.e_variational,
                          0.0, state.iteration + 1, state.forced_intruders)
    new_space = np.sort(np.concatenate([space, selected]))
    start = np.zeros(len(new_space))
    start[np.searchsorted(new_space, space)] = state.coefficients
    energy, coefficients = _davidson(h[new_space][:, new_space], start)
    return CipsiState(new_space, coefficients, energy,
                      float(np.sum(e2[order[n_scored:]])),
                      state.iteration + 1, state.forced_intruders + n_forced)


def cipsi_states(h_sector: ProjectedOperator, target_e2=None, max_dets=None):
    """The states of a CIPSI run from the Hartree-Fock reference, in order.

    Yields the initial state, then the result of each `cipsi_iterate`
    step until a stop rule fires: |E2| <= target_e2, the space reaching
    max_dets, or a step that adds no determinant (yielded last, with
    E2 = 0), or `CIPSI_MAX_ITER` steps.

    Raises:
        ConvergenceError: from `cipsi_iterate`.
    """
    if target_e2 is None and max_dets is None:
        raise ValueError("need a stopping rule: target_e2 and/or max_dets")
    state = cipsi_initial_state(h_sector)
    yield state
    for _ in range(CIPSI_MAX_ITER):
        if target_e2 is not None and abs(state.e_pt2) <= target_e2:
            return
        if max_dets is not None and len(state.dets) >= max_dets:
            return
        new_state = cipsi_iterate(state, h_sector, max_total=max_dets)
        yield new_state
        if len(new_state.dets) == len(state.dets):
            return
        state = new_state


def run_cipsi(h_sector: ProjectedOperator, target_e2=None, max_dets=None) -> CipsiState:
    """The last of `cipsi_states`: iterate CIPSI until a stop rule fires.

    Raises:
        ConvergenceError: from `cipsi_iterate`.
    """
    for state in cipsi_states(h_sector, target_e2, max_dets):
        pass
    return state


def export_statevector(state: Statevector, basis: Basis) -> Statevector:
    """The state embedded into `basis` and normalized.

    Weight outside the basis is dropped, as `Basis.extract` drops it.

    Raises:
        ValueError: when no weight is left in the basis.
    """
    amplitudes = basis.extract(state).amplitudes
    norm = np.linalg.norm(amplitudes)
    if norm == 0.0:
        raise ValueError("the wavefunction has no weight in the basis")
    return Statevector(basis.n_qubits, amplitudes / norm, basis)


def write_wavefunction(state: Statevector, path):
    """Write a real state's determinant expansion as text.

    A `norb=<int> nelec=<int>` header, then one `coeff alpha_hex beta_hex`
    line per amplitude above 1e-14 in magnitude, in ascending (alpha, beta)
    order.
    """
    kept = np.flatnonzero(np.abs(state.amplitudes) > 1e-14)
    masks = state.basis.masks[kept].tolist()
    nelec = masks[0].bit_count() if masks else 0
    lines = sorted((mask_to_strings(mask), float(c))
                   for mask, c in zip(masks, state.amplitudes[kept]))
    with open(path, "w") as fh:
        fh.write(f"norb={state.n_qubits // 2} nelec={nelec}\n")
        for (alpha, beta), c in lines:
            fh.write(f"{c!r} {alpha:x} {beta:x}\n")


def read_wavefunction(path, basis: Basis) -> Statevector:
    """Read the text format of `write_wavefunction` as a state in `basis`,
    the molecule's sector.

    The amplitudes are the stored coefficients, not rescaled, so a written
    state reads back bit for bit; `export_statevector` normalizes.

    Raises:
        FcidumpError: on a malformed line or a non-finite coefficient, a
            header whose norb or nelec does not fit the basis, a determinant
            that does not fit the header or lies outside the basis, a
            determinant listed twice, or no nonzero coefficient.
    """
    with open(path) as fh:
        try:
            header = dict(part.split("=") for part in fh.readline().split())
            norb, nelec = int(header["norb"]), int(header["nelec"])
        except (KeyError, ValueError):
            raise FcidumpError(f"{path}: header must read 'norb=<int> nelec=<int>'") from None
        # A sector holds the Hartree-Fock mask of its electron count only.
        if 2 * norb != basis.n_qubits or not 0 <= nelec <= basis.n_qubits \
                or basis.index(np.array([(1 << nelec) - 1]))[0] < 0:
            raise FcidumpError(f"{path}: norb={norb} nelec={nelec} does not fit the "
                               f"molecule's {basis.n_qubits}-spin-orbital sector")
        amplitudes = np.zeros(basis.dim)
        listed = set()
        for number, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                c, a, b = line.split()
                coeff, alpha, beta = float(c), int(a, 16), int(b, 16)
            except ValueError:
                raise FcidumpError(f"{path}:{number}: expected 'coeff alpha_hex beta_hex'") \
                    from None
            if not math.isfinite(coeff):
                raise FcidumpError(f"{path}:{number}: coefficient {c} is not a finite number")
            if (alpha | beta) >> norb or alpha.bit_count() + beta.bit_count() != nelec:
                raise FcidumpError(f"{path}:{number}: determinant does not fit "
                                   f"norb={norb} nelec={nelec}")
            pos = int(basis.index(np.array([strings_to_mask(alpha, beta)]))[0])
            if pos < 0:
                raise FcidumpError(f"{path}:{number}: determinant {a} {b} does not fit the "
                                   "molecule's (N_alpha, N_beta) sector")
            if pos in listed:
                raise FcidumpError(f"{path}:{number}: determinant {a} {b} is listed twice")
            listed.add(pos)
            amplitudes[pos] = coeff
    if not np.any(amplitudes):
        raise FcidumpError(f"{path}: no determinant has a nonzero coefficient")
    return Statevector(basis.n_qubits, amplitudes, basis)
