"""Statevector simulation of qubit excitation evolutions over a basis.

A basis is a sorted array of occupation masks (bit p set = spin orbital p
occupied): the full 2^N computational basis, the oracle for arbitrary
states, or the fixed-(N_alpha, N_beta) sector that holds the Hartree-Fock
reference. Every pool excitation conserves N and S_z, so the adaptive
loops simulate only that sector: 400 of the 4,096 basis states for H6,
1,225 of 16,384 for BeH2. The basis owns the mask -> position lookup, the
index pairs each excitation couples and the projection of operators onto
it; the kernels below are written once against it.

Every state of the method is real: the Hartree-Fock reference, the Givens
rotations below, and the targets of a real-integral Hamiltonian. So the
simulator has one number type, float64; `Statevector` and
`ProjectedOperator` refuse complex values.

A qubit excitation evolution exp(theta T) acts as a Givens rotation between
paired occupation patterns and carries no fermionic parity string:

    source (q occupied / pair (r,s) occupied):  a -> cos(t) a - sin(t) b
    destination (p occupied / pair (p,q)):      b -> cos(t) b + sin(t) a

so d/dtheta exp(theta T)|source> at 0 is +|destination>: the gathered
(2, n) rows of an excitation's pairs turn by G = [[c, -s], [s, c]]
(`_givens`), fixed here once and shared by every kernel and gradient.

The sweep is single-assignment: every amplitude an evolution writes gets a
slot of its own, so the forward pass applies each evolution as one gather
and one 2x2 product written straight into its slots, and those rows, psi_k
on pairs k, are the tape (an excitation moves each position at most once,
so the tape holds at most m * dim amplitudes). The adjoint sweep of both
gradients turns back only lambda = H|psi> (or the target), with G^T, along
the same slots in reverse: one 2x2 product per evolution and one scatter into
the slots that the evolutions before it read, plus one Hamiltonian application.

Both gradient brackets <lambda_k|T_k|psi_k> and the pool screen's
<left|T_k|right> come from one pair plan (`_PairPlan`): the pairs of a list
of excitations laid side by side in one row buffer, summed per excitation
by one pass of products and `np.add.reduceat`. An ansatz keeps the plan of
its sweep for the basis it was last evaluated in (`_Sweep`), which adds the
two slot buffers and the slot each evolution reads; a growth stage builds
one `PoolScreen`, which adds the pool's operators and one (2, P) gather
table. Nothing is looked up, concatenated or sized per call, and the plans
are not re-entrant. Both give the brackets of the rows concatenated afresh,
bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
# Spin orbitals are interleaved: even bits alpha, odd bits beta.
ALPHA_BITS = 0x5555555555555555
# A sector finds positions in two tables indexed by the masks' high and low
# bits (`Basis._positions`) while each half has at most this many bits (up
# to 4,096 entries a table, every sector of the dense-simulation cap), and
# searches the sorted masks beyond.
MAX_LOOKUP_BITS = 12


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

    def __init__(self, n_qubits, masks, counts=None):
        self.n_qubits = n_qubits
        self.masks = masks  # ascending int64 occupation masks, one per position
        self.dim = len(masks)
        self.counts = counts  # (N_alpha, N_beta) of a sector; None for the full basis
        self._pairs = {}
        self._hf = {}  # electron count -> Hartree-Fock position
        self._lookup = self._lookup_tables()

    def _lookup_tables(self):
        """(low_bits, start, rank) of a sector: a held mask with high bits h
        and low bits l sits at start[h] + rank[l]. The masks are sorted, so
        those with high bits h start at start[h] and run through the low
        patterns with the (N_alpha, N_beta) counts that complete h, in
        ascending order; rank[l] counts the patterns below l with the
        counts of l. None when a half has more than `MAX_LOOKUP_BITS` bits,
        or for the full basis."""
        low_bits = self.n_qubits // 2
        if self.counts is None or self.n_qubits - low_bits > MAX_LOOKUP_BITS:
            return None
        lows = np.arange(1 << low_bits, dtype=np.int64)
        counts = (np.bitwise_count(lows & ALPHA_BITS).astype(np.intp) * (low_bits + 1)
                  + np.bitwise_count(lows))
        order = np.argsort(counts, kind="stable")
        ordered = counts[order]
        rank = np.empty(len(lows), dtype=np.intp)
        rank[order] = np.arange(len(lows)) - np.searchsorted(ordered, ordered)
        highs = np.arange(1 << (self.n_qubits - low_bits), dtype=np.int64) << low_bits
        return low_bits, np.searchsorted(self.masks, highs), rank

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
        return cls(n_qubits, np.sort(masks.ravel()), (n_alpha, n_beta))

    def __eq__(self, other):
        return self is other or (isinstance(other, Basis) and self.n_qubits == other.n_qubits
                                 and np.array_equal(self.masks, other.masks))

    def holds(self, masks):
        """Whether each occupation mask is a state of this basis, from its
        bits alone: none at or above n_qubits and, in a sector, N_alpha on
        the even bits and N_beta on the odd ones."""
        held = masks >> self.n_qubits == 0
        if self.counts is not None:
            n_alpha, n_beta = self.counts
            held &= np.bitwise_count(masks & ALPHA_BITS) == n_alpha
            held &= np.bitwise_count(masks) == n_alpha + n_beta
        return held

    def index(self, masks):
        """Positions of occupation masks in this basis; -1 marks a mask outside it."""
        if self.dim == 1 << self.n_qubits:  # the full basis, where mask == position
            return np.where((masks >= 0) & (masks < self.dim), masks, -1)
        if self._lookup is None:
            pos = np.minimum(np.searchsorted(self.masks, masks), self.dim - 1)
            return np.where(self.masks[pos] == masks, pos, -1)
        held = self.holds(masks)
        return np.where(held, self._positions(np.where(held, masks, 0)), -1)

    def _positions(self, masks):
        """Positions of occupation masks of a sector that it holds: looked up
        in the sector's tables, or searched for without them."""
        if self._lookup is None:
            return np.searchsorted(self.masks, masks)
        low_bits, start, rank = self._lookup
        return start[masks >> low_bits] + rank[masks & ((1 << low_bits) - 1)]

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
            ValueError: when an orbital index is out of range or repeated,
                or when the excitation takes a state of this basis out of it.
        """
        return self._pairs_of([excitation])[0]

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
            indices = e.indices()
            for i in indices:
                if not 0 <= i < self.n_qubits:
                    raise ValueError(f"orbital index {i} outside [0, {self.n_qubits})")
            # A repeated index would pair masks of different electron counts.
            if len(set(indices)) != len(indices):
                raise ValueError("excitation indices must be distinct")
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
        """The operator's real matrix in this basis.

        Accepts a QubitOperator, projected term group by term group without
        the 2^N matrix, or an operator already projected onto an equal
        basis, which is returned as it is. A QubitOperator that is not
        hermitian (`is_hermitian()`), such as a generator T, raises
        ValueError; `QubitOperator.to_sparse_matrix` takes any operator. A
        hermitian operator whose matrix keeps imaginary entries (1e-13 or
        more), such as Y0, raises ValueError too.
        """
        if isinstance(operator, ProjectedOperator):
            if operator.basis != self:
                raise ValueError("operator was projected onto another basis")
            return operator
        if not isinstance(operator, QubitOperator):
            raise TypeError(f"unsupported operator type {type(operator).__name__}")
        if operator.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch between operator and state")
        if not operator.is_hermitian():
            raise ValueError("cannot project an operator that is not hermitian")
        return ProjectedOperator(self, self._project_terms(operator))

    def _project_terms(self, operator):
        """The QubitOperator's CSR matrix in this basis, real when its
        entries are; `QubitOperator.to_sparse_matrix` is this on the full
        basis.

        Terms sharing an x_mask send each basis state to the same image, so
        they form one group, and entry (row, col) holds the terms of the one
        group x = masks[row] ^ masks[col]. Each entry adds its group's terms
        to 0 one at a time in `sorted_terms` order (z ascending): the sum a
        term-by-term loop takes, bit for bit. The sums stay sequential on
        purpose; numpy's `sum` over a table of terms adds pairwise when the
        table has one column or is F-ordered, and rounds differently.

        The x = 0 group maps every row to itself, so its terms are added
        once over all rows, in steps of at most `CHUNK` (term, row) pairs.
        The other groups are swept in row blocks of at most `CHUNK` // 2
        (group, row) candidates. A candidate whose image the basis does not
        hold (`holds`, from its bits alone) is dropped before anything else:
        about 60% of them on the committed sectors. Only the rest are
        summed, and only the nonzero sums are looked up. Groups are ordered
        largest first and the candidates group by group, so those of the
        groups holding a j-th term are a prefix of the survivors. A block's
        diagonal entries join its off-diagonal ones before the one sort into
        row order. Each block's temporaries are freed before the next, so
        beside the kept entries, which are held twice while the blocks are
        joined, the temporaries stay within a fixed multiple of `CHUNK`.

        Complex coefficients are summed as such, since
        `QubitOperator.to_sparse_matrix` serves general operators; `project`
        refuses a matrix that stays complex.
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
        # Term t adds signed[t, k], k the parity of z_t & mask: +c_t or -c_t.
        signed = np.stack([scaled, -scaled], axis=1)

        n_diagonal = int(np.count_nonzero(x == 0))  # the x = 0 group sorts first
        diagonal = np.zeros(self.dim, dtype=scaled.dtype)
        step = max(1, CHUNK // max(1, n_diagonal))

        def add_diagonal(r0):  # a function, so that its table is freed at once
            odd = np.bitwise_count(z[:n_diagonal, None] & self.masks[r0:r0 + step]) & 1
            sums = diagonal[r0:r0 + step]
            for term in np.where(odd, signed[:n_diagonal, 1:], signed[:n_diagonal, :1]):
                sums += term

        for r0 in range(0, self.dim, step):
            add_diagonal(r0)

        keys, starts, sizes = np.unique(x[n_diagonal:], return_index=True, return_counts=True)
        # Groups by size, largest first: the groups holding a j-th term are a prefix.
        by_size = np.argsort(-sizes, kind="stable")
        keys, starts, sizes = keys[by_size], starts[by_size] + n_diagonal, sizes[by_size]
        jth = [starts[sizes > j] + j for j in range(sizes.max(initial=0))]  # of each holder
        holders = [len(t) for t in jth]  # the groups holding a j-th term
        ranks = [(z[t], signed[t].ravel()) for t in jth]  # group g's signs at 2g, 2g + 1
        # Half-size blocks: full ones left the pipelines' solves up to 0.4 MB
        # more peak RSS (fresh processes, measured).
        block = max(1, CHUNK // 2 // max(1, len(keys)))

        def sweep(r0):
            """Column indices, values and row lengths of the rows from r0."""
            masks = self.masks[r0:r0 + block]
            # (group, row) candidates whose image the basis holds, group-major
            group, row = np.divmod(np.flatnonzero(self.holds(keys[:, None] ^ masks)), len(masks))
            row_masks, twice = masks[row], 2 * group
            values = np.zeros(len(row), dtype=scaled.dtype)
            for (z_j, signed_j), n in zip(ranks, np.searchsorted(group, holders).tolist()):
                odd = np.bitwise_count(z_j[group[:n]] & row_masks[:n]) & 1
                values[:n] += signed_j[twice[:n] + odd]
            kept = np.flatnonzero(values)
            col = self._positions(keys[group[kept]] ^ row_masks[kept])
            diagonal_rows = np.flatnonzero(diagonal[r0:r0 + block])
            row = np.concatenate([diagonal_rows, row[kept]])
            col = np.concatenate([diagonal_rows + r0, col])
            order = np.argsort(row * self.dim + col)
            return (col[order].astype(np.int32),
                    np.concatenate([diagonal[r0 + diagonal_rows], values[kept]])[order],
                    np.bincount(row, minlength=len(masks)))

        indices, data, row_sizes = zip(*map(sweep, range(0, self.dim, block)))
        data = np.concatenate(data)
        if np.iscomplexobj(data) and np.max(np.abs(data.imag), initial=0) < 1e-13:
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
        this basis are unchanged.
        """
        if state.basis is self:
            return state
        if state.n_qubits != self.n_qubits:
            raise ValueError("statevector size mismatch")
        pos = state.basis.index(self.masks)
        amplitudes = np.where(pos >= 0, state.amplitudes[pos], 0.0)
        return Statevector(self.n_qubits, amplitudes, self)


@dataclass(frozen=True, eq=False)  # a sparse matrix has no truth value to compare by
class ProjectedOperator:
    """An operator's real matrix in the coordinates of a basis; see `Basis.project`."""

    basis: Basis
    matrix: object

    def __post_init__(self):
        if np.iscomplexobj(self.matrix):
            raise ValueError(f"a projected operator must be real, not {self.matrix.dtype}: "
                             "the operator has imaginary matrix entries")

    @property
    def n_qubits(self):
        return self.basis.n_qubits


class Statevector:
    """Float64 amplitude vector over a basis, the full 2^N space unless one
    is given; complex amplitudes raise ValueError."""

    def __init__(self, n_qubits: int, amplitudes=None, basis: Basis = None):
        if basis is None:
            basis = Basis.full(n_qubits)
        elif basis.n_qubits != n_qubits:
            raise ValueError("basis and statevector disagree on the qubit count")
        self.n_qubits = n_qubits
        self.basis = basis
        if np.iscomplexobj(amplitudes):
            raise ValueError("statevector amplitudes must be real")
        if amplitudes is None:
            self.amplitudes = np.zeros(basis.dim)
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.float64)
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
            self._sweep = sweep = None  # the old plan goes before the new one is built
            sweep = self._sweep = _Sweep(self, basis)
        return sweep


class _PairPlan:
    """The pairs of a list of excitations in one basis, laid out for one
    bracket sum per excitation.

    Built once, pairs through `Basis._pairs_of`: each excitation's (2, n)
    pairs take a run of columns side by side, in order. The plan keeps the
    pairs, each run's slice (`_runs`) and the start of each non-empty run;
    a subclass adds the row buffer (`_rows`), a (2, total) float64 array
    in that layout. The row buffer holds a left vector's rows; it is shared
    by every call, so a plan is not re-entrant. Returned brackets are new
    arrays, never views of it.
    """

    def __init__(self, basis: Basis, excitations):
        self.basis = basis
        self.pairs = basis._pairs_of(excitations)
        sizes = np.array([p.shape[1] for p in self.pairs], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        # reduceat returns the start element, not 0, for an empty run.
        self._nonempty = sizes > 0
        self._starts = starts[self._nonempty]
        self._runs = [slice(a, a + n) for a, n in zip(starts.tolist(), sizes.tolist())]
        self._total = int(sizes.sum())

    def _bracket_sum(self, right_rows):
        """<left|T|right> per excitation, as a new array, from the left rows
        in the row buffer and `right_rows` in the same layout: each run sums
        left[dst] right[src] - left[src] right[dst], 0 when it is empty.
        Overwrites the row buffer."""
        lrows = self._rows
        terms = np.multiply(lrows[1], right_rows[0], out=lrows[1])
        np.subtract(terms, np.multiply(lrows[0], right_rows[1], out=lrows[0]), out=terms)
        brackets = np.zeros(len(self.pairs))
        brackets[self._nonempty] = np.add.reduceat(terms, self._starts)
        return brackets


class _Sweep(_PairPlan):
    """An ansatz's single-assignment plan of the adjoint sweep in one basis.

    Each direction has a slot buffer laid out alike: dim positions, then a
    slot for every amplitude an evolution moves. The slots follow the
    plan's runs pair-major: run k is a C-contiguous (n_k, 2) block of
    (source, destination) rows. At build time each slot is given the slot
    that holds its position's value before its evolution: that of the last
    evolution before it that moved the position, else the position itself.
    This read table is one (2T,) intp array (T = total pairs) of which each
    run's (n_k, 2) block is a view: an index of another dtype is cast on
    every gather. Every position's last slot (`_final`, itself at an
    untouched position) closes the chain.

    Forward, a step is `np.dot(rows, G^T)` on the rows its block reads,
    written into the block, with the bits of the former G @ rows
    (`_turns`); the blocks are the tape of psi_k rows and the state is one
    gather of every position's last slot. Reverse runs the same chains
    backwards in the second buffer: lambda is scattered to each position's
    last slot, and a step turns its block back, `np.dot(rows, G)`, and
    scatters the rows to the slots its block reads, which are the blocks of
    the evolutions before it. So each reverse block ends up holding
    lambda_k's rows, and is the left side of the bracket sum. The plan
    holds 24 * dim + 48 * T bytes.
    """

    def __init__(self, ansatz: Ansatz, basis: Basis):
        super().__init__(basis, ansatz.excitations)
        self.n_electrons = ansatz.n_electrons
        self.excitations = list(ansatz.excitations)
        hf = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis).amplitudes
        dim, n_slots = basis.dim, 2 * self._total
        # One allocation holds the index tables, one the buffers.
        tables = np.empty(n_slots + dim, dtype=np.intp)
        self._reads = tables[:n_slots]
        self._final = tables[n_slots:]
        self._final[:] = np.arange(dim)
        if n_slots:
            self._find_reads(dim, n_slots)
        # The buffers come after the tables' temporaries are freed, which
        # keeps the build's peak memory at the plan's own.
        buffers = np.empty(2 * (dim + n_slots))
        self._ahead = buffers[:dim + n_slots]
        self._ahead[:dim] = hf
        self._back = buffers[dim + n_slots:]
        self._rows = self._back[dim:].reshape(-1, 2).T
        # Pair-major, run k is rows `_runs[k]`; run 0 is never turned back.
        ahead, back = self._ahead[dim:].reshape(-1, 2), self._back[dim:].reshape(-1, 2)
        reads = self._reads.reshape(-1, 2)
        self._steps = [(reads[r], ahead[r], back[r]) for r in self._runs]
        self._singles = [k for k, r in enumerate(self._runs) if r.stop - r.start == 1]
        self._tape = ahead.T

    def _find_reads(self, dim, n_slots):
        """Fill the read table and the last slot of every position, with no
        temporary larger than two (2T,) arrays."""
        # Positions are distinct within a run, so sorting the slots by
        # (position, slot) lists each position's slots in evolution order.
        held = np.concatenate([p.T for p in self.pairs]).ravel()  # position of each slot
        held *= n_slots
        held += np.arange(n_slots)
        held.sort()
        order = held % n_slots
        held //= n_slots
        # Each sorted slot reads the slot before it, save the first of each
        # position, which reads the position; the last is its final slot.
        firsts = np.flatnonzero(held[1:] != held[:-1]) + 1
        self._reads[order[1:]] = order[:-1]
        self._reads += dim
        self._reads[order[0]] = held[0]
        self._reads[order[firsts]] = held[firsts]
        self._final[held[firsts - 1]] = order[firsts - 1] + dim
        self._final[held[-1]] = order[-1] + dim

    def forward(self, givens):
        """The amplitudes of the ansatz at the angles of `givens`, as a new
        array; the forward buffer's blocks receive each evolution's rows."""
        ahead = self._ahead
        for (reads, block, _), g in zip(self._steps, self._turns(givens.transpose(0, 2, 1))):
            np.dot(ahead[reads], g, out=block)
        return ahead[self._final]

    def brackets(self, givens, left):
        """<left_k|T_k|psi_k> for every k, as a new array: psi_k's rows from
        the tape of the last `forward`, left_k `left` with evolutions k+1,
        k+2, ... undone by G^T. Every reverse slot is written once per call:
        the last ones from `left`, the others by the evolution after them
        (a first slot's scatter lands in the unused first dim entries)."""
        if not self.pairs:
            return np.zeros(0)
        back = self._back
        back[self._final] = left
        for (reads, _, block), g in zip(self._steps[:0:-1], self._turns(givens)[:0:-1]):
            back[reads] = np.dot(block, g)
        return self._bracket_sum(self._tape)

    def _turns(self, matrices):
        """Each evolution's M of `rows @ M` (G^T forward, G in reverse),
        C-contiguous: the product then has the bits of the former
        `M^T @ rows` with M^T C-contiguous. On a run of one pair np.dot is
        a matrix-vector product, which keeps them only with M the
        transposed view of a C-contiguous M^T."""
        turns = np.ascontiguousarray(matrices)
        if self._singles:
            turns = list(turns)
            for k in self._singles:
                turns[k] = np.ascontiguousarray(matrices[k].T).T
        return turns


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
    """<state|H|state>, for an operator that `Basis.project` takes."""
    matrix = state.basis.project(operator).matrix
    return float(np.vdot(state.amplitudes, matrix @ state.amplitudes))


def overlap(a: Statevector, b: Statevector) -> float:
    """<a|b>."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("statevector size mismatch")
    if a.basis != b.basis:
        b = a.basis.extract(b)
    return float(np.vdot(a.amplitudes, b.amplitudes))


class PoolScreen(_PairPlan):
    """The brackets <left|T|right> of every pool operator in one basis, from
    state vectors of that basis: the screen both growth stages run on each
    iteration.

    Built once per growth stage: the pair plan of the pool's excitations,
    the pool's operators (`operators`), their pairs as one (2, P) table and
    one block that holds the rows of both vectors, so a screen allocates
    nothing of the table's size. Like every pair plan it is not re-entrant.
    """

    def __init__(self, basis: Basis, pool):
        self.operators = list(pool)
        super().__init__(basis, [op.excitation for op in self.operators])
        self._table = (np.concatenate(self.pairs, axis=1) if self.pairs
                       else np.empty((2, 0), dtype=np.int64))
        # The left rows, in one block with the right rows.
        self._rows, self._right = np.empty((2, 2, self._total))

    def brackets(self, left, right):
        """<left|T|right> per pool operator, as a new array, 0 for an
        operator without pairs.

        Raises:
            ValueError: unless both vectors are real, with one amplitude per
                basis state.
        """
        if np.shape(left) != (self.basis.dim,) or np.shape(right) != (self.basis.dim,):
            raise ValueError(f"pool screen brackets need two vectors of length "
                             f"{self.basis.dim}, not {np.shape(left)} and {np.shape(right)}")
        # A gather into the float buffers would drop an imaginary part with
        # no more than a ComplexWarning.
        if np.iscomplexobj(left) or np.iscomplexobj(right):
            raise ValueError("pool screen brackets need real vectors")
        # The table lies inside the checked vectors, and mode="raise" would
        # gather into a temporary before copying to `out`.
        np.take(left, self._table, out=self._rows, mode="clip")
        np.take(right, self._table, out=self._right, mode="clip")
        return self._bracket_sum(self._right)


def energy_and_gradient(ansatz: Ansatz, h: ProjectedOperator, thetas=None, *,
                        with_state=False):
    """E(theta) = <psi|H|psi> and dE/dtheta_k for all k via a reverse sweep.

    The simulation runs in the basis the Hamiltonian is projected onto
    (`Basis.project`). The sweep un-applies each evolution from
    lambda = H|psi> only, reading off dE/dtheta_k = 2 <lambda_k|T_k|psi_k>
    against the forward tape's rows of psi_k. With `with_state`, psi (a
    Statevector) and lambda follow the energy and gradient.

    Raises:
        TypeError: when `h` is not a ProjectedOperator.
        ValueError: when the number of angles is not the ansatz length.
    """
    if not isinstance(h, ProjectedOperator):
        raise TypeError(f"energy_and_gradient needs a ProjectedOperator, "
                        f"not {type(h).__name__}")
    state, givens, sweep = _forward(ansatz, thetas, h.basis)
    lam = h.matrix @ state.amplitudes
    # vdot, the bra-ket as written, gives dot's bits on real vectors.
    energy = float(np.vdot(state.amplitudes, lam))
    grad = 2.0 * sweep.brackets(givens, lam)
    return (energy, grad, state, lam) if with_state else (energy, grad)


def overlap_and_gradient(ansatz: Ansatz, target: Statevector, thetas=None, *,
                         with_state=False):
    """F(theta) = |<target|psi(theta)>|^2 and its gradient via a reverse sweep,
    in the target's basis; a wrong number of angles raises ValueError.
    With `with_state`, psi (a Statevector) and <target|psi> follow."""
    if target.n_qubits != ansatz.n_qubits:
        raise ValueError("target size mismatch")
    state, givens, sweep = _forward(ansatz, thetas, target.basis)
    c = np.vdot(target.amplitudes, state.amplitudes)
    brackets = sweep.brackets(givens, target.amplitudes)
    # abs(c) ** 2, not c * c: the two can differ in the last bit, and that
    # bit moved the h6_3.0 CIPSI pipeline from 599 to 616 evaluations.
    value, grad = float(abs(c) ** 2), 2.0 * (c * brackets)
    return (value, grad, state, c) if with_state else (value, grad)


def format_state(state: Statevector) -> str:
    """`mask amplitude` lines of the nonzero amplitudes, for debugging dumps."""
    return "\n".join(f"{mask} {a: .16e}"
                     for mask, a in zip(state.basis.masks, state.amplitudes) if abs(a) > 0.0)
