"""Sparse Pauli-string algebra and the Jordan-Wigner fermion-to-qubit map.

A Pauli string on N qubits is held as a pair of bitmasks: `x_mask` marks
qubits carrying X or Y, `z_mask` marks qubits carrying Z or Y (a qubit has
Y iff its bit is set in both). The represented operator is the Hermitian

    P(z, x) = (-i)^{|z & x|} * Z(z) * X(x)

so products reduce to mask XORs plus an integer phase; P(z, x) is a real
matrix when |z & x|, its number of Y's, is even, and an imaginary one when
it is odd. Operators are sums of strings with complex coefficients, pruned
below 1e-14. `jw_hamiltonian` takes real integrals with h_pq = h_qp and
h_pqrs = h_qpsr, and refuses others: its Hamiltonian is a real symmetric
matrix, so it holds only strings with an even number of Y's, each with a
real coefficient.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionCapError

__all__ = [
    "PauliString",
    "QubitOperator",
    "jw_annihilation",
    "jw_creation",
    "jw_hamiltonian",
    "single_excitation_generator",
    "double_excitation_generator",
    "format_operator",
]

COEFF_CUTOFF = 1e-14

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


class PauliString(NamedTuple):
    x_mask: int
    z_mask: int

    def word(self):
        """Human-readable form like 'X0 Z1 Y3'; 'I' for the identity."""
        if self.x_mask == 0 and self.z_mask == 0:
            return "I"
        parts = []
        support = self.x_mask | self.z_mask
        q = 0
        while support >> q:
            if (support >> q) & 1:
                x = (self.x_mask >> q) & 1
                z = (self.z_mask >> q) & 1
                parts.append(("X" if not z else "Y" if x else "Z") + str(q))
            q += 1
        return " ".join(parts)


def _string_product(a: PauliString, b: PauliString):
    """Product P(a) P(b) = phase * P(c); returns (c, phase exponent mod 4).

    With P(z,x) = (-i)^{|z&x|} Z(z) X(x) and X(x1) Z(z2) = (-1)^{|x1&z2|}
    Z(z2) X(x1), the phase of the product string is
    i^{|z3&x3| - |z1&x1| - |z2&x2| + 2|x1&z2|}.
    """
    x3 = a.x_mask ^ b.x_mask
    z3 = a.z_mask ^ b.z_mask
    k = ((z3 & x3).bit_count()
         - (a.z_mask & a.x_mask).bit_count()
         - (b.z_mask & b.x_mask).bit_count()
         + 2 * (a.x_mask & b.z_mask).bit_count())
    return PauliString(x3, z3), k % 4


class QubitOperator:
    """Weighted sum of Pauli strings on a fixed number of qubits."""

    def __init__(self, n_qubits: int, terms=None):
        self.n_qubits = n_qubits
        self.terms = {}
        if terms:
            for string, coeff in (terms.items() if isinstance(terms, dict) else terms):
                if abs(coeff) >= COEFF_CUTOFF:
                    self.terms[string] = complex(coeff)

    @classmethod
    def identity(cls, n_qubits, coeff=1.0):
        return cls(n_qubits, {PauliString(0, 0): coeff})

    @classmethod
    def from_word(cls, n_qubits, spec, coeff=1.0):
        """Build a single-string operator from pairs like [('X', 0), ('Y', 3)]."""
        x = z = 0
        for letter, q in spec:
            if letter in ("X", "Y"):
                x |= 1 << q
            if letter in ("Z", "Y"):
                z |= 1 << q
        return cls(n_qubits, {PauliString(x, z): coeff})

    def sorted_terms(self):
        """Deterministic term order: lexicographic on (z_mask, x_mask)."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].z_mask, kv[0].x_mask))

    def _check_size(self, other):
        if self.n_qubits != other.n_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.n_qubits} vs {other.n_qubits}")

    def __add__(self, other):
        self._check_size(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, 0.0) + c
        return QubitOperator(self.n_qubits, terms)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, scalar):
        return QubitOperator(self.n_qubits,
                             {s: c * scalar for s, c in self.terms.items()})

    __rmul__ = __mul__

    def __matmul__(self, other):
        """Operator product with Pauli phase tracking; the result is pruned."""
        self._check_size(other)
        terms = {}
        for s1, c1 in self.terms.items():
            for s2, c2 in other.terms.items():
                s3, k = _string_product(s1, s2)
                terms[s3] = terms.get(s3, 0.0) + c1 * c2 * _I_POWERS[k]
        return QubitOperator(self.n_qubits, terms)

    def adjoint(self):
        return QubitOperator(self.n_qubits,
                             {s: c.conjugate() for s, c in self.terms.items()})

    def is_hermitian(self, tol=1e-12):
        """Whether max|coeff| of H - H^dagger is at most `tol`.

        Every Pauli string is hermitian, so H - H^dagger = sum 2i Im(c) P
        over distinct strings P: one pass over the imaginary parts. (The
        difference as an operator would drop its coefficients below
        COEFF_CUTOFF, so the two agree for tol >= COEFF_CUTOFF.)
        `jw_hamiltonian` checks its integrals instead and assembles only
        real coefficients, so its operators pass with max|Im c| = 0; an
        operator hermitian only through the pair symmetry a_p^ a_r^ a_s a_q
        = a_r^ a_p^ a_q a_s never reaches this check, being refused there.
        """
        return 2 * max((abs(c.imag) for c in self.terms.values()), default=0.0) <= tol

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __len__(self):
        return len(self.terms)

    def to_sparse_matrix(self):
        """CSR matrix in the computational basis (index bit p = orbital p),
        real when every entry is: `Basis._project_terms` on the full basis."""
        from .statevector import Basis  # statevector imports this module

        return Basis.full(self.n_qubits)._project_terms(self)

    def to_dense_matrix(self):
        if self.n_qubits > 14:
            raise ValueError("dense realization limited to 14 qubits")
        return self.to_sparse_matrix().toarray()

    def __repr__(self):
        return f"QubitOperator(n_qubits={self.n_qubits}, n_terms={len(self.terms)})"


def format_operator(op: QubitOperator) -> str:
    """One term per line: `coeff_re coeff_im pauli-word`, deterministic order."""
    lines = []
    for s, c in op.sorted_terms():
        lines.append(f"{c.real: .16e} {c.imag: .16e} {s.word()}")
    return "\n".join(lines)


def jw_annihilation(p: int, n_qubits: int) -> QubitOperator:
    """a_p = (prod_{i<p} Z_i) (X_p + i Y_p)/2 under Jordan-Wigner."""
    if not 0 <= p < n_qubits:
        raise ValueError(f"orbital index {p} outside [0, {n_qubits})")
    zstr = (1 << p) - 1
    xp = 1 << p
    return QubitOperator(n_qubits, {
        PauliString(xp, zstr): 0.5,          # Z-string followed by X_p
        PauliString(xp, zstr | xp): 0.5j,    # Z-string followed by Y_p
    })


def jw_creation(p: int, n_qubits: int) -> QubitOperator:
    return jw_annihilation(p, n_qubits).adjoint()


# Occupation and Pauli masks are int64 (statevector shares this cap).
MAX_MASK_QUBITS = 62


def _ladder_products(ops, daggers):
    """Real Pauli strings of products of Jordan-Wigner ladder operators.

    Row k of `ops` holds the spin-orbital indices of one product, left to
    right; `daggers[j]` tells whether factor j is a creation operator. Each
    factor is two strings, (x, z) = (1<<i, (1<<i)-1) and (1<<i, (1<<i)-1 |
    1<<i), of weight 1/2 and +-i/2, so a product of m factors is 2^m
    strings that share one x mask, bit i of a mask standing for qubit i,
    each of weight i^power / 2^m. Only the strings of even power are kept:
    their weights are real, +-2^-m, while those of odd power are imaginary
    and cancel in the sum of any hermitian operator with real integrals
    (`jw_hamiltonian` checks its input for that). A row with x = 0 has
    only real strings, any other row exactly half, so the two kinds of row
    are reduced as two rectangular blocks. Strings of a row with equal z
    masks are summed and exact zeros dropped, as `QubitOperator.__matmul__`
    would; the weights are multiples of 2^-m, so these sums are exact. The
    temporaries hold about a dozen int64 per string, so callers bound the
    rows per call (`JW_CHUNK`).

    Returns (row, x, z, coeff) per remaining string, coeff float64: first
    the rows with x = 0, then the others, rows ascending within each block
    and z ascending within a row. The blocks share no (x, z) key, so every
    key meets its rows in ascending order.
    """
    m = ops.shape[1]
    width = 1 << m
    bits = 1 << ops
    x = np.bitwise_xor.reduce(bits, axis=1)
    # String c picks factor j's Y string when bit j of c is set (b_j). Its z
    # mask is the XOR of the factors' (1<<i)-1 | b_j<<i, built a factor at
    # a time: the strings with bit j set are those without, XOR 1<<i.
    z = np.bitwise_xor.reduce(bits - 1, axis=1)[:, None]
    for j in range(m):
        z = np.concatenate([z, z ^ bits[:, j, None]], axis=1)
    # The phase of _string_product extended to m factors, i^(|z&x| - sum_j b_j
    # + 2 sum_{i<j} |x_i & z_j|), times the factor weights i^b_j
    # (annihilation) and (-i)^b_j (creation). With x_i = 1<<o_i and z_j =
    # (1<<o_j)-1 | b_j<<o_j, |x_i & z_j| = [o_i < o_j] + b_j [o_i = o_j].
    choice = (np.arange(width) >> np.arange(m)[:, None]) & 1  # choice[j, c] = b_j
    below = np.zeros(len(ops), dtype=np.int64)
    weight = np.empty((len(ops), m), dtype=np.int64)  # coefficient of 2 b_j
    for j in range(m):
        below += (ops[:, :j] < ops[:, j, None]).sum(axis=1)
        weight[:, j] = (ops[:, :j] == ops[:, j, None]).sum(axis=1) - daggers[j]
    power = np.bitwise_count(z & x[:, None]).astype(np.int64)
    power += 2 * (below[:, None] + weight @ choice)
    power &= 3

    flat = x == 0
    parts = []
    for rows in (np.flatnonzero(flat), np.flatnonzero(~flat)):
        if not len(rows):
            continue
        z_rows, power_rows = z[rows], power[rows]
        cols = width
        if x[rows[0]]:  # keep the even powers, half of each row
            real = (power_rows & 1) == 0
            cols >>= 1
            z_rows = z_rows[real].reshape(-1, cols)
            power_rows = power_rows[real].reshape(-1, cols)
        order = np.argsort(z_rows, axis=1)
        z_rows = np.take_along_axis(z_rows, order, axis=1).ravel()
        sign = 1 - np.take_along_axis(power_rows, order, axis=1).ravel()  # i^power
        first = np.ones(len(z_rows), dtype=bool)
        first[1:] = z_rows[1:] != z_rows[:-1]
        first[::cols] = True
        starts = np.flatnonzero(first)
        coeff = np.add.reduceat(sign, starts) / width
        keep = coeff != 0
        starts, coeff = starts[keep], coeff[keep]
        parts.append((rows[starts // cols], z_rows[starts], coeff))
    row, z, coeff = (np.concatenate(a) for a in zip(*parts))
    return row, x[row], z, coeff


# Rows per `_ladder_products` call in `jw_hamiltonian`; bounds its
# temporaries to about 2 MB. Twice as many rows cost no less time, and
# left the benchmark processes' peak RSS about 0.5 MB higher.
JW_CHUNK = 1 << 10


def _two_body_rows(mol):
    """The (p, r, s, q) rows of the two-body sum and their integrals
    h_pqrs, one creation index p at a time (an n^3 slice of the integrals),
    in (p, r, s, q) order.

    Raises ValueError, at the slice of p, when max|h_pqrs - h_qpsr| > 1e-12.
    """
    n = mol.n_spin_orbitals
    diagonal = np.arange(n)
    for p in range(n):
        g_p = mol.h_pqrs[p].transpose(1, 2, 0)  # g_p[r, s, q] = h_pqrs[p, q, r, s]
        # One n^3 buffer: h_pqrs - h_qpsr at [r, s, q], then |g_p|.
        buffer = g_p - mol.h_pqrs[:, p].transpose(2, 1, 0)
        if np.abs(buffer, out=buffer).max() > 1e-12:
            raise ValueError("two-body integrals are not hermitian: "
                             f"h_pqrs != h_qpsr at p = {p}")
        keep = np.abs(g_p, out=buffer) >= COEFF_CUTOFF
        del buffer  # not held across the yield
        keep[p] = False
        keep[:, diagonal, diagonal] = False
        r, s, q = np.nonzero(keep)
        yield np.stack([np.full_like(r, p), r, s, q], axis=1), g_p[r, s, q]


def _in_chunks(batches, size):
    """Regroup (rows, values) batches into chunks of `size` rows, keeping
    their order; the last chunk may be shorter."""
    rows, values, held = [], [], 0
    for batch_rows, batch_values in batches:
        rows.append(batch_rows)
        values.append(batch_values)
        held += len(batch_values)
        if held >= size:
            all_rows, all_values = np.concatenate(rows), np.concatenate(values)
            cut = held - held % size
            for start in range(0, cut, size):
                yield all_rows[start:start + size], all_values[start:start + size]
            rows, values, held = [all_rows[cut:]], [all_values[cut:]], held - cut
    if held:
        yield np.concatenate(rows), np.concatenate(values)


def jw_hamiltonian(mol) -> QubitOperator:
    """Jordan-Wigner image of the second-quantized molecular Hamiltonian.

    sum_pq h_pq a_p^ a_q + sum_pqrs h_pqrs a_p^ a_r^ a_s a_q + core * I,
    over the integrals of magnitude at least COEFF_CUTOFF (terms with p = r
    or s = q vanish and are skipped).

    The integrals must be real and hermitian term by term: max|h_pq -
    h_qp| <= 1e-12 and max|h_pqrs - h_qpsr| <= 1e-12, as `to_spin_orbital`
    gives exactly. Then the strings with an odd number of Y's, whose
    matrices are imaginary, cancel in exact arithmetic (within the
    tolerance they would carry the input's anti-hermitian part), so only
    the real strings are expanded and added. An operator hermitian only through the pair
    symmetry a_p^ a_r^ a_s a_q = a_r^ a_p^ a_q a_s (h_pqrs = h_rspq without
    h_pqrs = h_qpsr) is refused.

    The ladder products are expanded with array arithmetic by
    `_ladder_products`, `JW_CHUNK` rows at a time: the one-body (p, q)
    rows, then the two-body (p, r, s, q) rows, selected one creation index
    p at a time and cut into chunks that run across p. The known strings
    are kept as arrays sorted by (x, z) beside their running sums. Each
    chunk's strings are merged into them by one two-key lexsort, the old
    sums are carried over by position, and the chunk's products,
    scaled by their integrals, are added with `np.add.at`, which adds in
    index order. Contributions arrive as in a term-by-term loop: the core,
    then the one-body terms in (p, q) order, then the two-body terms in
    (p, r, s, q) order. So every string's coefficient is the same
    floating-point sum, bit for bit, as accumulating the products one term
    at a time. The masks stay two int64 keys; packed into one they would
    not fit beyond 31 spin orbitals. The operator keeps the strings with
    |c| >= COEFF_CUTOFF, in (x, z) order, with complex coefficients of
    zero imaginary part.

    Raises:
        DimensionCapError: above MAX_MASK_QUBITS spin orbitals, before
            anything is allocated.
        ValueError: when the integrals are complex, or not hermitian as
            above; the two-body check runs one creation index at a time.
    """
    n = mol.n_spin_orbitals
    if n > MAX_MASK_QUBITS:
        raise DimensionCapError(
            f"{n} spin orbitals exceeds the {MAX_MASK_QUBITS}-bit mask cap")
    h1 = mol.h_pq
    if any(np.iscomplexobj(a) for a in (mol.core_energy, h1, mol.h_pqrs)):
        raise ValueError("complex integrals are refused as not hermitian: "
                         "only real integrals are supported")
    if np.max(np.abs(h1 - h1.T), initial=0.0) > 1e-12:
        raise ValueError("one-body integrals are not hermitian: h_pq != h_qp")
    key_x = key_z = np.zeros(1, dtype=np.int64)  # the identity, holding the core
    total = np.array([mol.core_energy], dtype=np.float64)

    def accumulate(ops, daggers, values):
        nonlocal key_x, key_z, total
        row, x, z, coeff = _ladder_products(ops, daggers)
        x, z = np.concatenate([key_x, x]), np.concatenate([key_z, z])
        order = np.lexsort((z, x))
        x, z = x[order], z[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (x[1:] != x[:-1]) | (z[1:] != z[:-1])
        group = np.empty_like(order)
        group[order] = np.cumsum(new) - 1
        key_x, key_z = x[new], z[new]
        sums = np.zeros(len(key_x))
        sums[group[:len(total)]] = total
        np.add.at(sums, group[len(total):], values[row] * coeff)
        total = sums

    p, q = np.nonzero(np.abs(h1) >= COEFF_CUTOFF)
    for ops, values in _in_chunks([(np.stack([p, q], axis=1), h1[p, q])], JW_CHUNK):
        accumulate(ops, (True, False), values)
    for ops, values in _in_chunks(_two_body_rows(mol), JW_CHUNK):
        accumulate(ops, (True, True, False, False), values)
    kept = np.flatnonzero(np.abs(total) >= COEFF_CUTOFF)
    ham = QubitOperator(n)  # the terms are already pruned
    ham.terms = dict(zip(map(PauliString, key_x[kept].tolist(), key_z[kept].tolist()),
                         map(complex, total[kept].tolist())))
    return ham


def single_excitation_generator(p: int, q: int, n_qubits: int) -> QubitOperator:
    """Anti-hermitian generator T = Q_p^ Q_q - Q_q^ Q_p = -(i/2)(X_q Y_p - Y_q X_p).

    exp(theta T) rotates occupation from orbital q into orbital p with no
    fermionic parity string.
    """
    if p == q:
        raise ValueError("excitation indices must be distinct")
    x = (1 << p) | (1 << q)
    return QubitOperator(n_qubits, {
        PauliString(x, 1 << p): -0.5j,   # X_q Y_p
        PauliString(x, 1 << q): +0.5j,   # Y_q X_p
    })


def double_excitation_generator(p: int, q: int, r: int, s: int,
                                n_qubits: int) -> QubitOperator:
    """Generator T = Q_p^ Q_q^ Q_r Q_s - Q_r^ Q_s^ Q_p Q_q (eight strings, +-i/8).

    exp(theta T) rotates the pair occupation (r, s) into (p, q).
    """
    if len({p, q, r, s}) != 4:
        raise ValueError("excitation indices must be distinct")
    x = (1 << p) | (1 << q) | (1 << r) | (1 << s)
    # Eight strings of weight i/8; Y placements with qubit order (r, s, p, q).
    # Signs are fixed by T = Q_p^ Q_q^ Q_r Q_s - Q_r^ Q_s^ Q_p Q_q, which
    # pins the shared convention T|r,s occupied> = +|p,q occupied>.
    placements = [
        ((s,), +1), ((r,), +1), ((r, s, p), +1), ((r, s, q), +1),
        ((p,), -1), ((q,), -1), ((r, p, q), -1), ((s, p, q), -1),
    ]
    terms = {}
    for ys, sign in placements:
        z = 0
        for b in ys:
            z |= 1 << b
        terms[PauliString(x, z)] = sign * 0.125j
    return QubitOperator(n_qubits, terms)
