"""Statevector simulation of qubit excitation evolutions over a basis.

A basis is a sorted array of occupation masks (bit p set = spin orbital p
occupied): the full 2^N computational basis, the oracle for arbitrary
states, or the fixed-(N_alpha, N_beta) sector that holds the Hartree-Fock
reference. Every pool excitation conserves N and S_z, so the
adaptive loops simulate only that sector, with real amplitudes: 400 of the
4,096 basis states for H6, 1,225 of 16,384 for BeH2. The basis owns the
mask -> position lookup, the index pairs each excitation couples and the
projection of operators onto it; the kernels below are written once
against it.

A qubit excitation evolution exp(theta T) acts as a Givens rotation between
paired occupation patterns and carries no fermionic parity string:

    source (q occupied / pair (r,s) occupied):  a -> cos(t) a - sin(t) b
    destination (p occupied / pair (p,q)):      b -> cos(t) b + sin(t) a

so d/dtheta exp(theta T)|source> at 0 is +|destination>: the gathered
(2, n) rows of an excitation's pairs turn by G = [[c, -s], [s, c]]
(`_givens`), fixed here once and shared by every kernel and gradient.

The forward pass applies each evolution as one 2x2 product on its rows and
keeps the rotated rows, psi_k on pairs k, as a tape of at most m * dim
amplitudes (an excitation moves each position at most once). The adjoint
sweep of both gradients turns back only lambda = H|psi> (or the target),
with G^T: two gathers, two scatters and two 2x2 products per evolution,
plus one Hamiltonian application. The m gradient brackets and the pool
screens are summed in one pass over concatenated rows (`_run_brackets`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCapError
from .pauli import _I_POWERS, MAX_MASK_QUBITS, QubitOperator
from .pool import SingleExcitation

__all__ = [
    "Basis",
    "ProjectedOperator",
    "sector_dimension",
    "Statevector",
    "Ansatz",
    "prepare_hf",
    "apply_excitation",
    "apply_ansatz",
    "expectation",
    "overlap",
    "energy_and_gradient",
    "overlap_and_gradient",
    "format_state",
]

MAX_QUBITS = 24
# A sector may hold as many amplitudes as the full space at the qubit cap;
# this is also the size limit of the determinant solvers' FCI.
MAX_SECTOR_DIM = 1 << MAX_QUBITS


def sector_dimension(n_qubits, n_electrons):
    """Size of the Hartree-Fock (N_alpha, N_beta) sector, computed without
    enumerating it.

    Raises:
        ValueError: when the electrons do not fit in the spin orbitals.
        DimensionCapError: beyond the 62-bit occupation masks, or when the
            dimension exceeds MAX_SECTOR_DIM.
    """
    if not 0 <= n_electrons <= n_qubits:
        raise ValueError(f"{n_electrons} electrons do not fit in {n_qubits} spin orbitals")
    if n_qubits > MAX_MASK_QUBITS:
        raise DimensionCapError(
            f"{n_qubits} qubits exceeds the {MAX_MASK_QUBITS}-bit mask cap")
    dim = (math.comb((n_qubits + 1) // 2, (n_electrons + 1) // 2)
           * math.comb(n_qubits // 2, n_electrons // 2))
    if dim > MAX_SECTOR_DIM:
        raise DimensionCapError(f"sector dimension {dim} exceeds cap {MAX_SECTOR_DIM}")
    return dim


class Basis:
    """Ordered occupation masks spanning the states a simulation may reach.

    Build one with `Basis.full` or `Basis.sector`. The (source,
    destination) index pairs of each excitation are cached on the
    instance, so they live as long as the basis and are bounded by the
    excitations applied in it.
    """

    def __init__(self, n_qubits, masks):
        self.n_qubits = n_qubits
        self.masks = masks  # ascending int64 occupation masks, one per position
        self.dim = len(masks)
        self._pairs = {}

    @classmethod
    def full(cls, n_qubits):
        """All 2^N computational basis states, where mask == position."""
        if n_qubits > MAX_QUBITS:
            raise DimensionCapError(
                f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit dense-simulation cap")
        return cls(n_qubits, np.arange(1 << n_qubits, dtype=np.int64))

    @classmethod
    def sector(cls, n_qubits, n_electrons):
        """The (N_alpha, N_beta) sector of the n-electron Hartree-Fock state.

        Spin orbitals are interleaved (even = alpha, odd = beta) and the
        reference occupies the lowest n_electrons of them, so it is the
        smallest mask and position 0. The dimension is checked by
        `sector_dimension` before anything is allocated.
        """
        sector_dimension(n_qubits, n_electrons)
        n_alpha, n_beta = (n_electrons + 1) // 2, n_electrons // 2
        n_even, n_odd = (n_qubits + 1) // 2, n_qubits // 2

        def strings(n_orbitals, n_occupied, offset):
            return np.array([sum(1 << (2 * i + offset) for i in occ)
                             for occ in itertools.combinations(range(n_orbitals), n_occupied)],
                            dtype=np.int64)

        masks = strings(n_even, n_alpha, 0)[:, None] | strings(n_odd, n_beta, 1)[None, :]
        return cls(n_qubits, np.sort(masks.ravel()))

    def __eq__(self, other):
        return self is other or (isinstance(other, Basis) and self.n_qubits == other.n_qubits
                                 and np.array_equal(self.masks, other.masks))

    def index(self, masks):
        """Positions of occupation masks in this basis; -1 marks a mask outside it."""
        if self.dim == 1 << self.n_qubits:  # the full basis, where mask == position
            return np.where((masks >= 0) & (masks < self.dim), masks, -1)
        pos = np.minimum(np.searchsorted(self.masks, masks), self.dim - 1)
        return np.where(self.masks[pos] == masks, pos, -1)

    def pairs(self, excitation):
        """The positions the excitation couples, as one C-contiguous (2, n)
        int64 array: row 0 the sources, row 1 their destinations, so
        `src, dst = basis.pairs(e)` unpacks it and `amps[basis.pairs(e)]`
        gathers both rows at once.

        Raises:
            ValueError: when an orbital index is out of range, or when the
                excitation takes a state of this basis out of it.
        """
        pairs = self._pairs.get(excitation)
        if pairs is None:
            pairs = self._pairs[excitation] = self._find_pairs(excitation)
        return pairs

    def _find_pairs(self, excitation):
        for i in excitation.indices():
            if not 0 <= i < self.n_qubits:
                raise ValueError(f"orbital index {i} outside [0, {self.n_qubits})")
        if isinstance(excitation, SingleExcitation):
            occupied, empty = 1 << excitation.q, 1 << excitation.p
        else:
            occupied = (1 << excitation.r) | (1 << excitation.s)
            empty = (1 << excitation.p) | (1 << excitation.q)
        flip = occupied | empty
        masks = self.masks
        pattern = masks & flip
        src = np.flatnonzero(pattern == occupied)
        dst = self.index(masks[src] ^ flip)
        # Every destination pattern in the basis must be some source's partner.
        if np.any(dst < 0) or np.count_nonzero(pattern == empty) != len(src):
            raise ValueError(f"{excitation} leaves the basis (it does not conserve S_z)")
        return np.stack([src, dst])

    def project(self, operator) -> ProjectedOperator:
        """The operator's matrix in this basis, real when its entries are.

        Accepts a QubitOperator, projected term group by term group without
        the 2^N matrix, or an operator already projected onto an equal
        basis, which is returned as it is.
        """
        if isinstance(operator, ProjectedOperator):
            if operator.basis != self:
                raise ValueError("operator was projected onto another basis")
            return operator
        if not isinstance(operator, QubitOperator):
            raise TypeError(f"unsupported operator type {type(operator).__name__}")
        if operator.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch between operator and state")
        return ProjectedOperator(self, self._project_terms(operator))

    def _project_terms(self, operator):
        """The QubitOperator's CSR matrix in this basis, real when its
        entries are; `QubitOperator.to_sparse_matrix` is this on the full
        basis.

        Terms sharing an x_mask send each basis state to the same image, so
        they are grouped and emitted together; images outside the basis are
        dropped. Groups are accumulated 128 at a time to bound the peak
        memory of a 2^N build.
        """
        groups = {}
        for s, c in operator.sorted_terms():
            groups.setdefault(s.x_mask, []).append((s.z_mask, c))
        x_keys = sorted(groups)
        shape = (self.dim, self.dim)
        columns = np.arange(self.dim)
        matrix = sp.csr_matrix(shape, dtype=np.complex128)
        for start in range(0, len(x_keys), 128):
            rows, cols, data = [], [], []
            for x_mask in x_keys[start:start + 128]:
                images = self.masks ^ x_mask
                row = self.index(images)
                inside = row >= 0
                col = columns
                if not inside.all():  # always inside on the full basis
                    images, row, col = images[inside], row[inside], columns[inside]
                values = np.zeros(len(images), dtype=np.complex128)
                for z_mask, c in groups[x_mask]:
                    phase = _I_POWERS[(-(z_mask & x_mask).bit_count()) % 4]
                    signs = 1.0 - 2.0 * (np.bitwise_count(images & z_mask) & 1)
                    values += (c * phase) * signs
                rows.append(row)
                cols.append(col)
                data.append(values)
            matrix = matrix + sp.coo_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=shape).tocsr()
        if matrix.nnz and np.max(np.abs(matrix.data.imag)) < 1e-13:
            matrix = sp.csr_matrix((matrix.data.real, matrix.indices, matrix.indptr),
                                   shape=matrix.shape)
        matrix.eliminate_zeros()
        return matrix

    def extract(self, state: Statevector) -> Statevector:
        """The state's amplitudes on this basis, as a state in it.

        Weight outside the basis is dropped, so overlaps with states of
        this basis are unchanged. The amplitudes keep their dtype.
        """
        if state.basis is self:
            return state
        if state.n_qubits != self.n_qubits:
            raise ValueError("statevector size mismatch")
        pos = state.basis.index(self.masks)
        amplitudes = np.where(pos >= 0, state.amplitudes[pos], 0.0)
        return Statevector(self.n_qubits, amplitudes, self)


class ProjectedOperator(NamedTuple):
    """An operator's matrix in the coordinates of a basis; see `Basis.project`."""

    basis: Basis
    matrix: object

    @property
    def n_qubits(self):
        return self.basis.n_qubits


class Statevector:
    """Amplitude vector over a basis, the full 2^N space unless one is given.

    Amplitudes are float64 unless complex ones are given.
    """

    def __init__(self, n_qubits: int, amplitudes=None, basis: Basis = None):
        if basis is None:
            basis = Basis.full(n_qubits)
        elif basis.n_qubits != n_qubits:
            raise ValueError("basis and statevector disagree on the qubit count")
        self.n_qubits = n_qubits
        self.basis = basis
        dtype = np.complex128 if np.iscomplexobj(amplitudes) else np.float64
        if amplitudes is None:
            self.amplitudes = np.zeros(basis.dim, dtype=dtype)
        else:
            amplitudes = np.asarray(amplitudes, dtype=dtype)
            if amplitudes.shape != (basis.dim,):
                raise ValueError("amplitude array has wrong length")
            self.amplitudes = amplitudes

    def copy(self):
        return Statevector(self.n_qubits, self.amplitudes.copy(), self.basis)

    def norm(self):
        return float(np.linalg.norm(self.amplitudes))


def prepare_hf(n_qubits: int, n_electrons: int, basis: Basis = None) -> Statevector:
    """Hartree-Fock reference: amplitude 1 on the lowest-n-bits occupation mask."""
    if n_electrons > n_qubits:
        raise ValueError(f"{n_electrons} electrons do not fit in {n_qubits} spin orbitals")
    state = Statevector(n_qubits, basis=basis)
    pos = state.basis.index(np.array([(1 << n_electrons) - 1], dtype=np.int64))[0]
    if pos < 0:
        raise ValueError("the Hartree-Fock reference lies outside the basis")
    state.amplitudes[pos] = 1.0
    return state


def _givens(thetas):
    """The Givens matrix [[c, -s], [s, c]] of every angle, as an (m, 2, 2) array."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.array([c, -s, s, c]).T.reshape(-1, 2, 2)


def _evolve(amps, pairs, givens):
    """amps[pairs] = givens @ amps[pairs], in place; returns the rotated rows."""
    rows = givens.dot(amps[pairs])
    amps[pairs] = rows
    return rows


def apply_excitation(state: Statevector, excitation, theta: float) -> Statevector:
    """Return exp(theta T)|state> for a single or double qubit excitation."""
    out = state.copy()
    _evolve(out.amplitudes, state.basis.pairs(excitation), _givens(theta)[0])
    return out


@dataclass
class Ansatz:
    """Ordered (excitation, angle) list applied to the Hartree-Fock state.

    Entry 0 is applied first, matching left-appension of newly selected
    operators.
    """

    n_qubits: int
    n_electrons: int
    excitations: list = field(default_factory=list)
    thetas: list = field(default_factory=list)

    def append(self, excitation, theta=0.0):
        self.excitations.append(excitation)
        self.thetas.append(float(theta))

    def copy(self):
        return Ansatz(self.n_qubits, self.n_electrons,
                      list(self.excitations), list(self.thetas))

    def __len__(self):
        return len(self.excitations)


def _forward(ansatz: Ansatz, thetas, basis):
    """(state, pairs, givens, tape) of the ansatz applied to Hartree-Fock in
    `basis`: per evolution its pairs, its G and the tape's psi_k rows.
    A wrong number of angles raises ValueError."""
    thetas = ansatz.thetas if thetas is None else thetas
    if len(thetas) != len(ansatz):
        raise ValueError(f"{len(thetas)} angles for an ansatz of {len(ansatz)} evolutions")
    state = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis)
    pairs = [state.basis.pairs(e) for e in ansatz.excitations]
    givens = _givens(np.asarray(thetas, dtype=np.float64))
    tape = [_evolve(state.amplitudes, p, g) for p, g in zip(pairs, givens)]
    return state, pairs, givens, tape


def apply_ansatz(ansatz: Ansatz, thetas=None, basis: Basis = None) -> Statevector:
    """The ansatz state, in `basis` (the full 2^N space when None)."""
    return _forward(ansatz, thetas, basis)[0]


def expectation(state: Statevector, operator) -> float:
    """<state|H|state> for a hermitian operator; imaginary residue is rejected."""
    matrix = state.basis.project(operator).matrix
    value = np.vdot(state.amplitudes, matrix @ state.amplitudes)
    if abs(value.imag) > 1e-10 * max(1.0, abs(value.real)):
        raise ValueError(
            f"expectation has imaginary part {value.imag:.3e}; operator not hermitian?")
    return float(value.real)


def overlap(a: Statevector, b: Statevector) -> complex:
    """<a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("statevector size mismatch")
    if a.basis != b.basis:
        b = a.basis.extract(b)
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def _pair_bracket(left, right, pairs):
    """<left|T|right> from the coupled index pairs, without materializing T."""
    src, dst = pairs
    return np.vdot(left[dst], right[src]) - np.vdot(left[src], right[dst])


def _run_brackets(left, right, pairs):
    """<left|T|right> per excitation from rows gathered at its (2, n) pairs
    and concatenated in order: each run sums
    conj(left[dst]) right[src] - conj(left[src]) right[dst], 0 when empty."""
    sizes = np.array([p.shape[1] for p in pairs], dtype=np.int64)
    brackets = np.zeros(len(sizes), dtype=np.result_type(left, right))
    left = left.conj()  # no copy for real amplitudes
    terms = left[1] * right[0] - left[0] * right[1]
    # reduceat returns the start element, not 0, for an empty run.
    nonempty = sizes > 0
    brackets[nonempty] = np.add.reduceat(terms, (np.cumsum(sizes) - sizes)[nonempty])
    return brackets


def _pool_brackets(left, right, basis, excitations):
    """<left|T|right> for every excitation, in one pass over all their pairs;
    `_pair_bracket` per excitation up to summation order."""
    pairs = [basis.pairs(e) for e in excitations]
    gathered = np.concatenate(pairs, axis=1)
    return _run_brackets(left[gathered], right[gathered], pairs)


def _adjoint_brackets(pairs, givens, tape, left):
    """<left_k|T_k|psi_k> for every k: psi_k's rows from the forward tape,
    left_k a copy of `left` with evolutions k+1, k+2, ... undone by G^T."""
    if not pairs:
        return np.zeros(0, dtype=left.dtype)
    left = left.copy()
    back = givens.transpose(0, 2, 1)
    rows = [None] * len(pairs)
    for k in range(len(pairs) - 1, 0, -1):
        rows[k] = left[pairs[k]]
        left[pairs[k]] = back[k].dot(rows[k])
    rows[0] = left[pairs[0]]
    return _run_brackets(np.concatenate(rows, axis=1), np.concatenate(tape, axis=1), pairs)


def energy_and_gradient(ansatz: Ansatz, h: ProjectedOperator, thetas=None):
    """E(theta) = <psi|H|psi> and dE/dtheta_k for all k via a reverse sweep.

    The simulation runs in the basis the Hamiltonian is projected onto
    (`Basis.project`). The sweep un-applies each evolution from
    lambda = H|psi> only, reading off dE/dtheta_k = 2 Re <lambda_k|T_k|psi_k>
    against the forward tape's rows of psi_k.

    Raises:
        TypeError: when `h` is not a ProjectedOperator.
        ValueError: when the number of angles is not the ansatz length.
    """
    if not isinstance(h, ProjectedOperator):
        raise TypeError(f"energy_and_gradient needs a ProjectedOperator, "
                        f"not {type(h).__name__}")
    state, pairs, givens, tape = _forward(ansatz, thetas, h.basis)
    lam = h.matrix @ state.amplitudes
    energy = np.vdot(state.amplitudes, lam)
    if abs(energy.imag) > 1e-10 * max(1.0, abs(energy.real)):
        raise ValueError("non-hermitian operator in energy evaluation")
    grad = 2.0 * _adjoint_brackets(pairs, givens, tape, lam).real
    return float(energy.real), grad


def overlap_and_gradient(ansatz: Ansatz, target: Statevector, thetas=None):
    """F(theta) = |<target|psi(theta)>|^2 and its gradient via a reverse sweep,
    in the target's basis; a wrong number of angles raises ValueError."""
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError("target size mismatch")
    state, pairs, givens, tape = _forward(ansatz, thetas, target.basis)
    c = np.vdot(target.amplitudes, state.amplitudes)
    brackets = _adjoint_brackets(pairs, givens, tape, target.amplitudes)
    return float(abs(c) ** 2), 2.0 * (np.conjugate(c) * brackets).real


def format_state(state: Statevector) -> str:
    """`mask amplitude_re amplitude_im` lines of the nonzero amplitudes, for
    debugging dumps."""
    return "\n".join(f"{mask} {a.real: .16e} {a.imag: .16e}"
                     for mask, a in zip(state.basis.masks, state.amplitudes) if abs(a) > 0.0)
