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
plus one Hamiltonian application. An ansatz keeps the sweep's plan for the
basis it was last evaluated in (`_Sweep`): its pairs, the Hartree-Fock
amplitudes and two buffers that hold the tape and the turned-back rows
side by side, so the m gradient brackets are one pass of products and
`np.add.reduceat` over them, with nothing looked up, concatenated or
sized per evaluation; the plan is not re-entrant. A pool screen is the
same sum over the pool's pairs: a `PoolScreen`, built once per run, keeps
them as one table and gathers into fixed buffers. Both give the brackets
of the rows concatenated afresh, bit for bit.
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
    "PoolScreen",
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
# Candidates, (row, term group) of a projection or (excitation, basis state)
# of a pairing, handled per array pass; bounds their temporaries.
CHUNK = 1 << 15


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
        self._hf = {}  # electron count -> Hartree-Fock position

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

    def _hf_position(self, n_electrons):
        """Position of the n-electron Hartree-Fock mask, the lowest n bits
        set; -1 when it lies outside the basis. Looked up once per count."""
        pos = self._hf.get(n_electrons)
        if pos is None:
            hf = np.array([(1 << n_electrons) - 1], dtype=np.int64)
            pos = self._hf[n_electrons] = int(self.index(hf)[0])
        return pos

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
            pairs = self._pairs[excitation] = self._find_pairs([excitation])[0]
        return pairs

    def _pairs_of(self, excitations):
        """`pairs` of every excitation, pairing the uncached ones in one
        `_find_pairs` pass."""
        try:
            return [self._pairs[e] for e in excitations]
        except KeyError:
            missing = [e for e in dict.fromkeys(excitations) if e not in self._pairs]
            self._pairs.update(zip(missing, self._find_pairs(missing)))
            return [self._pairs[e] for e in excitations]

    def _find_pairs(self, excitations):
        """The (2, n) pairs of each excitation, from masked passes over
        (excitation, basis state) candidates, `CHUNK` of them at a time.
        Each excitation's array is a C-contiguous view of its chunk's buffer,
        its sources in ascending order."""
        occupied, empty = [], []
        for e in excitations:
            for i in e.indices():
                if not 0 <= i < self.n_qubits:
                    raise ValueError(f"orbital index {i} outside [0, {self.n_qubits})")
            if isinstance(e, SingleExcitation):
                occupied.append(1 << e.q)
                empty.append(1 << e.p)
            else:
                occupied.append((1 << e.r) | (1 << e.s))
                empty.append((1 << e.p) | (1 << e.q))
        occupied = np.array(occupied, dtype=np.int64)
        empty = np.array(empty, dtype=np.int64)
        flip = occupied | empty
        step = max(1, CHUNK // self.dim)
        pairs = []
        for k0 in range(0, len(flip), step):
            block = slice(k0, k0 + step)
            pattern = self.masks & flip[block, None]
            is_src = pattern == occupied[block, None]
            k, src = np.nonzero(is_src)
            dst = self.index(self.masks[src] ^ flip[block][k])
            counts = np.count_nonzero(is_src, axis=1)
            # Every destination pattern in the basis must be some source's partner.
            bad = counts != np.count_nonzero(pattern == empty[block, None], axis=1)
            bad[k[dst < 0]] = True
            if bad.any():
                raise ValueError(f"{excitations[k0 + int(np.argmax(bad))]} leaves the basis "
                                 "(it does not conserve S_z)")
            # Lay excitation j's sources and destinations side by side at 2 * starts[j].
            starts = np.cumsum(counts) - counts
            at = np.arange(len(src)) + starts[k]
            buffer = np.empty(2 * len(src), dtype=np.int64)
            buffer[at] = src
            buffer[at + counts[k]] = dst
            pairs += [buffer[2 * a:2 * (a + n)].reshape(2, n)
                      for a, n in zip(starts.tolist(), counts.tolist())]
        return pairs

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
        they form one group, and entry (row, col) holds the terms of the one
        group x = masks[row] ^ masks[col]; images outside the basis are
        dropped. The rows are swept in blocks against every group at once,
        at most `CHUNK` (row, group) candidates per block, so the
        temporaries beside the kept entries stay within a fixed multiple of
        `CHUNK`. Each entry adds its group's terms to 0 one at a time
        in `sorted_terms` order (z ascending), the sum a term-by-term loop
        takes, bit for bit.
        """
        strings = list(operator.terms)
        x = np.array([s.x_mask for s in strings], dtype=np.int64)
        z = np.array([s.z_mask for s in strings], dtype=np.int64)
        phases = np.array(_I_POWERS)[-np.bitwise_count(x & z).astype(np.int64) % 4]
        scaled = np.array(list(operator.terms.values()), dtype=np.complex128) * phases
        if not np.any(scaled.imag):
            scaled = scaled.real
        by_x = np.lexsort((z, x))  # `sorted_terms` order within each x group
        x, z, scaled = x[by_x], z[by_x], scaled[by_x]
        keys, starts, sizes = np.unique(x, return_index=True, return_counts=True)
        # Groups by size, largest first: the groups holding a j-th term are a prefix.
        by_size = np.argsort(-sizes, kind="stable")
        keys, starts, sizes = keys[by_size, None], starts[by_size], sizes[by_size]
        ranks = []
        for j in range(sizes.max(initial=0)):
            t = starts[sizes > j] + j  # the j-th term of every group that has one
            ranks.append((len(t), z[t, None], scaled[t, None]))

        block = max(1, CHUNK // max(1, len(keys)))
        indices, data, row_sizes = [], [], []
        stored = 0  # entries a term loop stores, zeros included
        for r0 in range(0, self.dim, block):
            masks = self.masks[r0:r0 + block]
            cols = self.index(keys ^ masks)  # (group, row) candidates
            values = np.zeros(cols.shape, dtype=scaled.dtype)
            for n, z_j, scaled_j in ranks:
                odd = np.bitwise_count(z_j & masks) & 1
                values[:n] += np.where(odd, -scaled_j, scaled_j)
            inside = cols >= 0
            stored += np.count_nonzero(inside)
            group, row = np.nonzero(inside & (values != 0))
            col = cols[group, row]
            order = np.argsort(row * self.dim + col)
            indices.append(col[order].astype(np.int32))
            data.append(values[group, row][order])
            row_sizes.append(np.bincount(row, minlength=len(masks)))
        data = np.concatenate(data)
        if not stored:  # a term loop leaves an empty matrix complex
            data = data.astype(np.complex128)
        elif np.iscomplexobj(data) and np.max(np.abs(data.imag), initial=0) < 1e-13:
            data = data.real.copy()
        indptr = np.zeros(self.dim + 1, dtype=np.int64)
        np.cumsum(np.concatenate(row_sizes), out=indptr[1:])
        indices = np.concatenate(indices)
        matrix = sp.csr_matrix((data, indices, indptr), shape=(self.dim, self.dim))
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
    pos = state.basis._hf_position(n_electrons)
    if pos < 0:
        raise ValueError("the Hartree-Fock reference lies outside the basis")
    state.amplitudes[pos] = 1.0
    return state


def _givens(thetas):
    """The Givens matrix [[c, -s], [s, c]] of every angle, as an (m, 2, 2) array."""
    c, s = np.cos(thetas), np.sin(thetas)
    return np.array([c, -s, s, c]).T.reshape(-1, 2, 2)


def apply_excitation(state: Statevector, excitation, theta: float) -> Statevector:
    """Return exp(theta T)|state> for a single or double qubit excitation."""
    out = state.copy()
    pairs = state.basis.pairs(excitation)
    out.amplitudes[pairs] = _givens(theta)[0].dot(out.amplitudes[pairs])
    return out


@dataclass
class Ansatz:
    """Ordered (excitation, angle) list applied to the Hartree-Fock state.

    Entry 0 is applied first, matching left-appension of newly selected
    operators. The kernels keep a plan of the adjoint sweep on the ansatz
    (`_Sweep`) for the basis it was last evaluated in; it is rebuilt
    whenever that basis, the electron count or the excitation list
    changes, so the fields may be edited freely. `copy` starts without one.
    """

    n_qubits: int
    n_electrons: int
    excitations: list = field(default_factory=list)
    thetas: list = field(default_factory=list)
    _sweep: object = field(default=None, init=False, repr=False, compare=False)

    def append(self, excitation, theta=0.0):
        self.excitations.append(excitation)
        self.thetas.append(float(theta))

    def copy(self):
        return Ansatz(self.n_qubits, self.n_electrons,
                      list(self.excitations), list(self.thetas))

    def __len__(self):
        return len(self.excitations)

    def _sweep_in(self, basis):
        """The kept sweep plan for `basis`, rebuilt unless it was built for
        this very basis object, electron count and excitation list."""
        sweep = self._sweep
        if (sweep is None or sweep.basis is not basis or sweep.n_electrons != self.n_electrons
                or sweep.excitations != self.excitations):
            sweep = self._sweep = _Sweep(self, basis)
        return sweep


class _Sweep:
    """An ansatz's plan of the taped adjoint sweep in one basis.

    Built once from the excitations (pairs through `Basis._pairs_of`): it
    keeps every evolution's pairs, the Hartree-Fock amplitudes, the start of
    each non-empty run and two (2, total) buffers laid out as the
    evolutions' rows concatenated in order: `tape`, which the forward pass
    fills with each evolution's rotated rows of psi_k, and the rows of the
    left vector, which `brackets` fills as it turns that vector back. The
    row buffer takes the dtype of each call's left vector; the tape holds
    the real forward state.

    The buffers are shared by every evaluation of the ansatz, so a plan is
    not re-entrant: evaluate one ansatz in one thread at a time, and finish
    one evaluation before starting the next. Returned states and brackets
    are new arrays, never views of the buffers.
    """

    def __init__(self, ansatz: Ansatz, basis: Basis):
        self.basis = basis
        self.n_electrons = ansatz.n_electrons
        self.excitations = list(ansatz.excitations)
        self.hf = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis).amplitudes
        self.pairs = basis._pairs_of(self.excitations)
        sizes = np.array([p.shape[1] for p in self.pairs], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        # reduceat returns the start element, not 0, for an empty run.
        self._nonempty = sizes > 0
        self._starts = starts[self._nonempty]
        self._runs = [slice(a, a + n) for a, n in zip(starts.tolist(), sizes.tolist())]
        self._total = int(sizes.sum())
        self.tape, self._tape_runs = self._buffer(np.float64)
        self._rows, self._row_runs = self._buffer(np.float64)

    def _buffer(self, dtype):
        """A (2, total) buffer and its view of each evolution's run."""
        buffer = np.empty((2, self._total), dtype)
        return buffer, [buffer[:, run] for run in self._runs]

    def forward(self, givens):
        """The amplitudes of the ansatz at the angles of `givens`, as a new
        array; the tape receives each evolution's rotated rows."""
        amps = self.hf.copy()
        for pairs, g, taped in zip(self.pairs, givens, self._tape_runs):
            rows = g.dot(amps[pairs])
            amps[pairs] = rows
            taped[...] = rows
        return amps

    def brackets(self, givens, left):
        """<left_k|T_k|psi_k> for every k, as a new array: psi_k's rows from
        the tape of the last `forward`, left_k a copy of `left` with
        evolutions k+1, k+2, ... undone by G^T. Each run sums
        conj(left_k[dst]) psi_k[src] - conj(left_k[src]) psi_k[dst], 0 when
        the evolution has no pairs."""
        dtype = np.result_type(left, self.tape)
        brackets = np.zeros(len(self.pairs), dtype)
        if not self.pairs:
            return brackets
        if self._rows.dtype != dtype:
            self._rows, self._row_runs = self._buffer(dtype)
        left = np.array(left, dtype)
        back = givens.transpose(0, 2, 1)
        for pairs, g, kept in zip(self.pairs[:0:-1], back[:0:-1], self._row_runs[:0:-1]):
            rows = left[pairs]
            kept[...] = rows
            left[pairs] = g.dot(rows)
        self._row_runs[0][...] = left[self.pairs[0]]
        lrows, rrows = self._rows, self.tape
        np.conjugate(lrows, out=lrows)
        terms = np.multiply(lrows[1], rrows[0], out=lrows[1])
        np.subtract(terms, np.multiply(lrows[0], rrows[1], out=lrows[0]), out=terms)
        brackets[self._nonempty] = np.add.reduceat(terms, self._starts)
        return brackets


def _forward(ansatz: Ansatz, thetas, basis):
    """(state, givens, sweep) of the ansatz applied to Hartree-Fock in
    `basis` (the full 2^N space when None): the state, every evolution's G
    and the ansatz's kept sweep plan, whose tape holds the psi_k rows.
    A wrong number of angles raises ValueError."""
    thetas = ansatz.thetas if thetas is None else thetas
    if len(thetas) != len(ansatz):
        raise ValueError(f"{len(thetas)} angles for an ansatz of {len(ansatz)} evolutions")
    sweep = ansatz._sweep_in(Basis.full(ansatz.n_qubits) if basis is None else basis)
    givens = _givens(np.asarray(thetas, dtype=np.float64))
    state = Statevector(ansatz.n_qubits, sweep.forward(givens), sweep.basis)
    return state, givens, sweep


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


class PoolScreen:
    """The brackets <left|T|right> of every pool operator in one basis, from
    state vectors of that basis: the screen both growth stages run on each
    iteration.

    Built once per run: it keeps the pool's operators (`operators`), their
    pairs as one (2, P) table, the start of each operator's run in it, and
    work buffers for the gathered rows, so a screen allocates nothing of
    the table's size. The buffers are shared by every call, so a plan
    belongs to one run, or to the stages of one pipeline, and is not
    re-entrant. Its brackets are bit-identical to those of the rows
    gathered and concatenated afresh.
    """

    def __init__(self, basis: Basis, pool):
        self.basis = basis
        self.operators = list(pool)
        pairs = basis._pairs_of([op.excitation for op in self.operators])
        sizes = np.array([p.shape[1] for p in pairs], dtype=np.int64)
        self._table = (np.concatenate(pairs, axis=1) if pairs
                       else np.empty((2, 0), dtype=np.int64))
        # reduceat returns the start element, not 0, for an empty run.
        self._nonempty = sizes > 0
        self._starts = (np.cumsum(sizes) - sizes)[self._nonempty]
        self._rows = np.empty((2,) + self._table.shape)  # left rows, right rows

    def brackets(self, left, right):
        """<left|T|right> per pool operator, as a new array:
        conj(left[dst]) right[src] - conj(left[src]) right[dst] summed over
        its pairs, 0 when it has none."""
        dtype = np.result_type(left, right)
        if self._rows.dtype != dtype:
            self._rows = np.empty(self._rows.shape, dtype)
        lrows, rrows = self._rows
        # mode="raise" would gather into a temporary before copying to `out`.
        np.take(np.asarray(left, dtype), self._table, out=lrows, mode="clip")
        np.take(np.asarray(right, dtype), self._table, out=rrows, mode="clip")
        np.conjugate(lrows, out=lrows)
        terms = np.multiply(lrows[1], rrows[0], out=lrows[1])
        np.subtract(terms, np.multiply(lrows[0], rrows[1], out=lrows[0]), out=terms)
        brackets = np.zeros(len(self._nonempty), dtype)
        brackets[self._nonempty] = np.add.reduceat(terms, self._starts)
        return brackets


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
    state, givens, sweep = _forward(ansatz, thetas, h.basis)
    lam = h.matrix @ state.amplitudes
    energy = np.vdot(state.amplitudes, lam)
    if abs(energy.imag) > 1e-10 * max(1.0, abs(energy.real)):
        raise ValueError("non-hermitian operator in energy evaluation")
    grad = 2.0 * sweep.brackets(givens, lam).real
    return float(energy.real), grad


def overlap_and_gradient(ansatz: Ansatz, target: Statevector, thetas=None):
    """F(theta) = |<target|psi(theta)>|^2 and its gradient via a reverse sweep,
    in the target's basis; a wrong number of angles raises ValueError."""
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError("target size mismatch")
    state, givens, sweep = _forward(ansatz, thetas, target.basis)
    c = np.vdot(target.amplitudes, state.amplitudes)
    brackets = sweep.brackets(givens, target.amplitudes)
    return float(abs(c) ** 2), 2.0 * (np.conjugate(c) * brackets).real


def format_state(state: Statevector) -> str:
    """`mask amplitude_re amplitude_im` lines of the nonzero amplitudes, for
    debugging dumps."""
    return "\n".join(f"{mask} {a.real: .16e} {a.imag: .16e}"
                     for mask, a in zip(state.basis.masks, state.amplitudes) if abs(a) > 0.0)
