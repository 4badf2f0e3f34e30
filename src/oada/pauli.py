"""Sparse Pauli-string algebra and the Jordan-Wigner fermion-to-qubit map.

A Pauli string on N qubits is held as a pair of bitmasks: `x_mask` marks
qubits carrying X or Y, `z_mask` marks qubits carrying Z or Y (a qubit has
Y iff its bit is set in both). The represented operator is the Hermitian

    P(z, x) = (-i)^{|z & x|} * Z(z) * X(x)

so products reduce to mask XORs plus an integer phase. Operators are sums
of strings with complex coefficients, pruned below 1e-14.
"""

from __future__ import annotations

from typing import NamedTuple

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
        return (self - self.adjoint()).max_abs_coeff() <= tol

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


def jw_hamiltonian(mol) -> QubitOperator:
    """Jordan-Wigner image of the second-quantized molecular Hamiltonian.

    sum_pq h_pq a_p^ a_q + sum_pqrs h_pqrs a_p^ a_r^ a_s a_q + core * I,
    assembled term-by-term from the stored spin-orbital integrals.
    """
    n = mol.n_spin_orbitals
    create = [jw_creation(p, n) for p in range(n)]
    annih = [jw_annihilation(p, n) for p in range(n)]
    total = {PauliString(0, 0): complex(mol.core_energy)}

    def accumulate(op, coeff):
        for s, c in op.terms.items():
            total[s] = total.get(s, 0.0) + coeff * c

    h1 = mol.h_pq
    for p in range(n):
        for q in range(n):
            if abs(h1[p, q]) >= COEFF_CUTOFF:
                accumulate(create[p] @ annih[q], h1[p, q])
    g = mol.h_pqrs
    for p in range(n):
        for r in range(n):
            if p == r:
                continue
            pr = create[p] @ create[r]
            for s in range(n):
                for q in range(n):
                    if s == q:
                        continue
                    v = g[p, q, r, s]
                    if abs(v) >= COEFF_CUTOFF:
                        accumulate(pr @ (annih[s] @ annih[q]), v)
    ham = QubitOperator(n, total)
    if not ham.is_hermitian(1e-12):
        raise ValueError("assembled Hamiltonian is not hermitian")
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
