"""Restricted, non-spin-complemented pool of qubit excitation evolutions.

Excitations move occupation from Hartree-Fock-occupied spin orbitals into
virtual ones: a single rotates q -> p, a double rotates the pair (r, s) ->
(p, q). Only spin-preserving singles and S_z-conserving doubles enter the
pool; generalized (occupied-occupied / virtual-virtual) excitations are
deliberately excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .pauli import QubitOperator, double_excitation_generator, single_excitation_generator

__all__ = [
    "SingleExcitation",
    "DoubleExcitation",
    "PoolOperator",
    "build_pool",
    "check_excitation",
    "cnot_count",
    "ansatz_resource_counts",
    "format_pool",
]

CNOTS_PER_SINGLE = 3
CNOTS_PER_DOUBLE = 13


@dataclass(frozen=True)
class SingleExcitation:
    """Occupation rotation q -> p."""

    p: int
    q: int

    kind = "single"

    def indices(self):
        return (self.p, self.q)


@dataclass(frozen=True)
class DoubleExcitation:
    """Pair occupation rotation (r, s) -> (p, q)."""

    p: int
    q: int
    r: int
    s: int

    kind = "double"

    def indices(self):
        return (self.p, self.q, self.r, self.s)


def cnot_count(excitation) -> int:
    """CNOTs of the standard circuit realization: 3 per single, 13 per double."""
    return CNOTS_PER_SINGLE if excitation.kind == "single" else CNOTS_PER_DOUBLE


@dataclass(frozen=True)
class PoolOperator:
    id: int
    excitation: object
    cnot_cost: int

    @property
    def kind(self):
        return self.excitation.kind

    def generator(self, n_qubits) -> QubitOperator:
        """Anti-hermitian generator T with U(theta) = exp(theta T)."""
        exc = self.excitation
        if exc.kind == "single":
            return single_excitation_generator(exc.p, exc.q, n_qubits)
        return double_excitation_generator(exc.p, exc.q, exc.r, exc.s, n_qubits)


def build_pool(n_qubits: int, n_electrons: int) -> list[PoolOperator]:
    """All restricted singles and doubles, deduplicated and deterministically ordered.

    Spin orbitals follow the interleaved convention (even = alpha, odd =
    beta); occupied means index < n_electrons. Singles conserve spin;
    doubles conserve S_z with p < q and r < s canonical. Singles come
    first, each block in lexicographic index order, so ids are dense and
    stable across runs.
    """
    if n_electrons >= n_qubits:
        raise ValueError("pool requires at least one virtual spin orbital")
    occupied = range(n_electrons)
    virtual = range(n_electrons, n_qubits)
    excitations = []
    for q in occupied:
        for p in virtual:
            excitations.append(SingleExcitation(p, q))
    for i, r in enumerate(occupied):
        for s in list(occupied)[i + 1:]:
            for j, p in enumerate(virtual):
                for q in list(virtual)[j + 1:]:
                    excitations.append(DoubleExcitation(p, q, r, s))
    excitations = [exc for exc in excitations if _conserves_sz(exc)]
    return [PoolOperator(i, exc, cnot_count(exc)) for i, exc in enumerate(excitations)]


def _conserves_sz(excitation):
    """A single keeps its spin; a double creates as many beta (odd) spin
    orbitals as it empties."""
    indices = excitation.indices()
    half = len(indices) // 2
    return sum(i % 2 for i in indices[:half]) == sum(i % 2 for i in indices[half:])


def check_excitation(excitation, n_qubits):
    """Apply `build_pool`'s rules to an excitation read from outside.

    Raises:
        ValueError: unless its orbital indices lie in [0, n_qubits), are
            distinct, and conserve S_z.
    """
    indices = excitation.indices()
    if not all(0 <= i < n_qubits for i in indices):
        raise ValueError(f"orbital index outside [0, {n_qubits})")
    if len(set(indices)) != len(indices):
        raise ValueError("repeated orbital index")
    if not _conserves_sz(excitation):
        raise ValueError("does not conserve S_z")


def ansatz_resource_counts(excitations) -> tuple[int, int, int]:
    """(singles, doubles, CNOTs) accounting for a sequence of excitations."""
    excitations = list(excitations)
    n_single = sum(1 for e in excitations if e.kind == "single")
    n_double = len(excitations) - n_single
    return n_single, n_double, CNOTS_PER_SINGLE * n_single + CNOTS_PER_DOUBLE * n_double


def format_pool(pool) -> str:
    """`id kind p q [r s] cnot_cost` lines for the pool dump."""
    lines = []
    for op in pool:
        idx = " ".join(str(i) for i in op.excitation.indices())
        lines.append(f"{op.id} {op.kind} {idx} {op.cnot_cost}")
    return "\n".join(lines)
