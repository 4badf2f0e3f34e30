"""The kernels' former per-call paths, kept as bit-for-bit references.

Before `statevector.PoolScreen` and the kept sweep plan (`Ansatz._sweep`),
every pool screen and every gradient evaluation looked each excitation's
pairs up in the basis, concatenated the gathered rows afresh and summed
the brackets with `run_brackets`. The kernels must return exactly these
values (`np.array_equal`), not merely close ones. `pair_bracket` is the
bracket of one operator written out as two inner products.
"""

import numpy as np

from oada.statevector import ProjectedOperator, _givens, prepare_hf


def pair_bracket(left, right, pairs):
    """<left|T|right> from the coupled index pairs, without materializing T."""
    src, dst = pairs
    return np.vdot(left[dst], right[src]) - np.vdot(left[src], right[dst])


def run_brackets(left, right, pairs):
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


def pool_brackets(left, right, basis, excitations):
    """The pool screen before `PoolScreen`: look the pairs up, concatenate
    them and gather fresh rows on every call."""
    pairs = basis._pairs_of(excitations)
    gathered = np.concatenate(pairs, axis=1)
    return run_brackets(left[gathered], right[gathered], pairs)


def forward(ansatz, basis, thetas=None):
    """(state, pairs, givens, tape): the ansatz applied to Hartree-Fock with
    a pair lookup per evolution and the rotated rows kept in a list."""
    thetas = ansatz.thetas if thetas is None else thetas
    state = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis)
    pairs = [state.basis.pairs(e) for e in ansatz.excitations]
    givens = _givens(np.asarray(thetas, dtype=np.float64))
    tape = []
    for p, g in zip(pairs, givens):
        rows = g.dot(state.amplitudes[p])
        state.amplitudes[p] = rows
        tape.append(rows)
    return state, pairs, givens, tape


def adjoint_brackets(pairs, givens, tape, left):
    """<left_k|T_k|psi_k> for every k, the turned-back rows and the tape
    each concatenated afresh."""
    if not pairs:
        return np.zeros(0, dtype=left.dtype)
    left = left.copy()
    back = givens.transpose(0, 2, 1)
    rows = [None] * len(pairs)
    for k in range(len(pairs) - 1, 0, -1):
        rows[k] = left[pairs[k]]
        left[pairs[k]] = back[k].dot(rows[k])
    rows[0] = left[pairs[0]]
    return run_brackets(np.concatenate(rows, axis=1), np.concatenate(tape, axis=1), pairs)


def energy_and_gradient(ansatz, h: ProjectedOperator, thetas=None):
    state, pairs, givens, tape = forward(ansatz, h.basis, thetas)
    lam = h.matrix @ state.amplitudes
    energy = np.vdot(state.amplitudes, lam)
    return float(energy.real), 2.0 * adjoint_brackets(pairs, givens, tape, lam).real


def overlap_and_gradient(ansatz, target, thetas=None):
    state, pairs, givens, tape = forward(ansatz, target.basis, thetas)
    c = np.vdot(target.amplitudes, state.amplitudes)
    brackets = adjoint_brackets(pairs, givens, tape, target.amplitudes)
    return float(abs(c) ** 2), 2.0 * (np.conjugate(c) * brackets).real
