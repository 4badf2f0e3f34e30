"""Statevector simulation of qubit excitation evolutions over a basis.

A basis is an ordered set of occupation masks (bit p set = spin orbital p
occupied). It is either the full 2^N computational basis, the oracle for
arbitrary states, or the fixed-(N_alpha, N_beta) sector that holds the
Hartree-Fock reference. Every pool excitation conserves N and S_z, so the
adaptive loops simulate only that sector, with real amplitudes: 400 of the
4,096 basis states for H6, 1,225 of 16,384 for BeH2. The basis owns the
mask -> position lookup, the index pairs each excitation couples and the
projection of operators onto it; the kernels below are written once
against it.

A qubit excitation evolution exp(theta T) acts as a Givens rotation between
paired occupation patterns and carries no fermionic parity string:

    source (q occupied / pair (r,s) occupied):  a -> cos(t) a - sin(t) b
    destination (p occupied / pair (p,q)):      b -> cos(t) b + sin(t) a

so d/dtheta exp(theta T)|source> at 0 is +|destination>. This sign
convention is fixed here once and shared by every gradient formula.

Energy and overlap gradients are exact reverse (adjoint) sweeps: one
Hamiltonian application plus O(m) excitation applications for an
m-parameter ansatz.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import DimensionCapError
from .pauli import _I_POWERS, QubitOperator
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
# Occupation masks are int64.
MAX_MASK_QUBITS = 62


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

    def __init__(self, n_qubits, masks=None):
        self.n_qubits = n_qubits
        self._masks = masks  # None: the full space, where mask == position
        self.dim = (1 << n_qubits) if masks is None else len(masks)
        self._pairs = {}

    @classmethod
    def full(cls, n_qubits):
        """All 2^N computational basis states."""
        if n_qubits > MAX_QUBITS:
            raise DimensionCapError(
                f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit dense-simulation cap")
        return cls(n_qubits)

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

    @property
    def is_full(self):
        return self._masks is None

    @property
    def masks(self):
        """Occupation mask of each basis position, ascending."""
        return np.arange(self.dim, dtype=np.int64) if self._masks is None else self._masks

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Basis) or self.n_qubits != other.n_qubits:
            return False
        if self.is_full or other.is_full:
            return self.is_full and other.is_full
        return np.array_equal(self._masks, other._masks)

    def index(self, masks):
        """Positions of occupation masks in this basis; -1 marks a mask outside it."""
        if self._masks is None:
            return masks
        pos = np.minimum(np.searchsorted(self._masks, masks), self.dim - 1)
        return np.where(self._masks[pos] == masks, pos, -1)

    def pairs(self, excitation):
        """(source, destination) positions the excitation couples, as arrays.

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
        return src, dst

    def project(self, operator) -> ProjectedOperator:
        """The operator's matrix in this basis, real when its entries are.

        Accepts a QubitOperator, a 2^N matrix (sparse or dense) or an
        operator already projected onto this basis. A QubitOperator is
        projected term group by term group, without the 2^N matrix.
        """
        if isinstance(operator, ProjectedOperator):
            if operator.basis != self:
                raise ValueError("operator was projected onto another basis")
            return operator
        if isinstance(operator, QubitOperator):
            if operator.n_qubits != self.n_qubits:
                raise ValueError("qubit-count mismatch between operator and state")
            matrix = operator.to_sparse_matrix() if self.is_full else self._project_terms(operator)
        elif sp.issparse(operator) or isinstance(operator, np.ndarray):
            if operator.shape != (1 << self.n_qubits,) * 2:
                raise ValueError("operator dimension does not match the state")
            matrix = operator if self.is_full \
                else sp.csr_matrix(operator)[self._masks][:, self._masks]
        else:
            raise TypeError(f"unsupported operator type {type(operator).__name__}")
        return ProjectedOperator(self, matrix)

    def _project_terms(self, operator):
        # Terms sharing an x_mask send each basis state to the same image;
        # images outside the basis are dropped.
        groups = {}
        for s, c in operator.sorted_terms():
            groups.setdefault(s.x_mask, []).append((s.z_mask, c))
        columns = np.arange(self.dim)
        rows, cols, data = [], [], []
        for x_mask in sorted(groups):
            images = self._masks ^ x_mask
            row = self.index(images)
            inside = row >= 0
            images = images[inside]
            values = np.zeros(len(images), dtype=np.complex128)
            for z_mask, c in groups[x_mask]:
                phase = _I_POWERS[(-(z_mask & x_mask).bit_count()) % 4]
                values += (c * phase) * (1.0 - 2.0 * (np.bitwise_count(images & z_mask) & 1))
            rows.append(row[inside])
            cols.append(columns[inside])
            data.append(values)
        matrix = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows),
                                                       np.concatenate(cols))),
                               shape=(self.dim, self.dim))
        if matrix.nnz and np.max(np.abs(matrix.data.imag)) < 1e-13:
            matrix = sp.csr_matrix((matrix.data.real, matrix.indices, matrix.indptr),
                                   shape=matrix.shape)
        matrix.eliminate_zeros()
        return matrix

    def extract(self, state: Statevector) -> Statevector:
        """The state's amplitudes on this basis, as a state in it.

        Weight outside the basis is dropped, so overlaps with states of
        this basis are unchanged. The result is real when the state's
        amplitudes are.
        """
        if state.basis is self:
            return state
        if state.n_qubits != self.n_qubits:
            raise ValueError("statevector size mismatch")
        pos = state.basis.index(self.masks)
        amplitudes = np.where(pos >= 0, state.amplitudes[pos], 0.0)
        if np.iscomplexobj(amplitudes) and not np.any(amplitudes.imag):
            amplitudes = amplitudes.real
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

    Full-space amplitudes are complex128. In any other basis they are
    float64 unless complex ones are given.
    """

    def __init__(self, n_qubits: int, amplitudes=None, basis: Basis = None):
        if basis is None:
            basis = Basis.full(n_qubits)
        elif basis.n_qubits != n_qubits:
            raise ValueError("basis and statevector disagree on the qubit count")
        self.n_qubits = n_qubits
        self.basis = basis
        complex_ = basis.is_full or np.iscomplexobj(amplitudes)
        dtype = np.complex128 if complex_ else np.float64
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


def _rotate(amps, pairs, theta):
    src, dst = pairs
    c, s = math.cos(theta), math.sin(theta)
    a = amps[src]
    b = amps[dst]
    amps[src] = c * a - s * b
    amps[dst] = c * b + s * a


def apply_excitation(state: Statevector, excitation, theta: float) -> Statevector:
    """Return exp(theta T)|state> for a single or double qubit excitation."""
    out = state.copy()
    _rotate(out.amplitudes, state.basis.pairs(excitation), theta)
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


def apply_ansatz(ansatz: Ansatz, thetas=None, basis: Basis = None) -> Statevector:
    """The ansatz state, in `basis` (the full 2^N space when None)."""
    state = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis)
    thetas = ansatz.thetas if thetas is None else thetas
    for excitation, theta in zip(ansatz.excitations, thetas):
        _rotate(state.amplitudes, state.basis.pairs(excitation), theta)
    return state


def _projected(operator, n_qubits) -> ProjectedOperator:
    """A projected operator as it is; anything else in the full 2^N basis."""
    if isinstance(operator, ProjectedOperator):
        return operator
    return Basis.full(n_qubits).project(operator)


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


def _reverse_brackets(ansatz, thetas, basis, psi, left):
    """<left_k|T_k|psi_k> for every k: the reverse sweep of both gradients.

    psi_k and left_k are psi and left with evolutions k+1, k+2, ... undone.
    The two vectors are the columns of one array, so a single rotation
    un-applies each evolution from both.
    """
    both = np.stack([psi, left], axis=1)
    brackets = np.empty(len(ansatz), dtype=both.dtype)
    for k in range(len(ansatz) - 1, -1, -1):
        pairs = basis.pairs(ansatz.excitations[k])
        brackets[k] = _pair_bracket(both[:, 1], both[:, 0], pairs)
        if k:
            _rotate(both, pairs, -thetas[k])
    return brackets


def energy_and_gradient(ansatz: Ansatz, operator, thetas=None):
    """E(theta) = <psi|H|psi> and dE/dtheta_k for all k via a reverse sweep.

    The simulation runs in the basis of a `ProjectedOperator`, otherwise in
    the full 2^N space. The backward pass un-applies each evolution from
    both |psi> and lambda = H|psi>, reading off
    dE/dtheta_k = 2 Re <lambda_k|T_k|psi_k>; total cost is one Hamiltonian
    application plus O(m) excitation applications.
    """
    thetas = ansatz.thetas if thetas is None else list(thetas)
    h = _projected(operator, ansatz.n_qubits)
    psi = apply_ansatz(ansatz, thetas, h.basis).amplitudes
    lam = h.matrix @ psi
    energy = np.vdot(psi, lam)
    if abs(energy.imag) > 1e-10 * max(1.0, abs(energy.real)):
        raise ValueError("non-hermitian operator in energy evaluation")
    grad = 2.0 * _reverse_brackets(ansatz, thetas, h.basis, psi, lam).real
    return float(energy.real), grad


def overlap_and_gradient(ansatz: Ansatz, target: Statevector, thetas=None):
    """F(theta) = |<target|psi(theta)>|^2 and its gradient via a reverse sweep.

    The simulation runs in the target's basis.
    """
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError("target size mismatch")
    thetas = ansatz.thetas if thetas is None else list(thetas)
    psi = apply_ansatz(ansatz, thetas, target.basis).amplitudes
    c = np.vdot(target.amplitudes, psi)
    brackets = _reverse_brackets(ansatz, thetas, target.basis, psi, target.amplitudes)
    return float(abs(c) ** 2), 2.0 * (np.conjugate(c) * brackets).real


def format_state(state: Statevector, cutoff=0.0) -> str:
    """`mask amplitude_re amplitude_im` lines for debugging dumps."""
    lines = []
    for mask, a in zip(state.basis.masks, state.amplitudes):
        if abs(a) > cutoff:
            lines.append(f"{mask} {a.real: .16e} {a.imag: .16e}")
    return "\n".join(lines)
