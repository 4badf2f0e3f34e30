"""The taped adjoint sweep of both gradients against a sweep that turns
back both vectors.

`reference_reverse_brackets` is the adjoint sweep written out step by
step: it un-applies every evolution from both psi and the left vector
with an elementwise Givens turn and reads <left_k|T_k|psi_k> off the
turned-back vectors. The kernel instead keeps the forward pass's rotated
rows of psi and turns back only the left vector; both gradients must
agree with the reference to 1e-12.
"""

import math

import numpy as np
import pytest

from oada.overlap_adapt import pipeline
from oada.statevector import (Ansatz, Basis, Statevector, apply_ansatz, energy_and_gradient,
                              overlap_and_gradient, prepare_hf)

TOL = 1e-12


def _turn(rows, theta):
    """Givens-rotate gathered (source, destination) rows a, b in place:
    a -> c a - s b, b -> c b + s a."""
    c, s = math.cos(theta), math.sin(theta)
    swapped = rows[::-1] * s
    rows *= c
    rows[0] -= swapped[0]
    rows[1] += swapped[1]


def reference_state(ansatz, basis):
    amps = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis).amplitudes
    for excitation, theta in zip(ansatz.excitations, ansatz.thetas):
        pairs = basis.pairs(excitation)
        rows = amps[pairs]
        _turn(rows, theta)
        amps[pairs] = rows
    return amps


def reference_reverse_brackets(ansatz, basis, psi, left):
    """<left_k|T_k|psi_k> for every k, turning back copies of psi and left."""
    dtype = np.result_type(psi, left)
    psi, left = psi.astype(dtype), left.astype(dtype)
    brackets = np.empty(len(ansatz), dtype=dtype)
    for k in range(len(ansatz) - 1, -1, -1):
        pairs = basis.pairs(ansatz.excitations[k])
        p, lam = psi[pairs], left[pairs]
        brackets[k] = np.vdot(lam[1], p[0]) - np.vdot(lam[0], p[1])
        _turn(p, -ansatz.thetas[k])
        _turn(lam, -ansatz.thetas[k])
        psi[pairs] = p
        left[pairs] = lam
    return brackets


def reference_gradients(ansatz, h, target):
    psi = reference_state(ansatz, h.basis)
    lam = h.matrix @ psi
    energy = np.vdot(psi, lam).real
    energy_grad = 2.0 * reference_reverse_brackets(ansatz, h.basis, psi, lam).real
    c = np.vdot(target.amplitudes, psi)
    brackets = reference_reverse_brackets(ansatz, h.basis, psi, target.amplitudes)
    return energy, energy_grad, abs(c) ** 2, 2.0 * (np.conjugate(c) * brackets).real


def assert_matches_reference(ansatz, h, target):
    energy, energy_grad, value, overlap_grad = reference_gradients(ansatz, h, target)
    e, g = energy_and_gradient(ansatz, h)
    f, go = overlap_and_gradient(ansatz, target)
    assert len(g) == len(go) == len(ansatz)
    assert abs(e - energy) < TOL and abs(f - value) < TOL
    assert np.max(np.abs(g - energy_grad), initial=0.0) < TOL
    assert np.max(np.abs(go - overlap_grad), initial=0.0) < TOL


def _random_ansatz(rng, pool, n_qubits, n_electrons, m):
    ansatz = Ansatz(n_qubits, n_electrons)
    for i in rng.choice(len(pool), m, replace=False):
        ansatz.append(pool[i].excitation, rng.uniform(-1.0, 1.0))
    return ansatz


def _random_state(rng, basis, complex_amplitudes=False):
    amps = rng.normal(size=basis.dim)
    if complex_amplitudes:
        amps = amps + 1j * rng.normal(size=basis.dim)
    return Statevector(basis.n_qubits, amps / np.linalg.norm(amps), basis)


@pytest.mark.parametrize("name, m", [("h6", 30), ("beh2_stretched", 20)])
def test_sector_gradients_match_the_reference_sweep(request, name, m):
    problem = request.getfixturevalue(name)
    rng = np.random.default_rng(m)
    h = problem.sector
    for _ in range(3):
        ansatz = _random_ansatz(rng, problem.pool, problem.n, problem.n_electrons, m)
        assert_matches_reference(ansatz, h, _random_state(rng, h.basis))


def test_full_space_gradients_match_the_reference_sweep_on_a_complex_target(h4):
    # a complex target is where a bracket without the conjugate goes wrong
    rng = np.random.default_rng(17)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 8)
    assert_matches_reference(ansatz, h4.full, _random_state(rng, h4.full.basis, True))


@pytest.mark.parametrize("m", [0, 1])
def test_short_ansatz_gradients_match_the_reference_sweep(h4, m):
    rng = np.random.default_rng(m)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, m)
    assert_matches_reference(ansatz, h4.sector, _random_state(rng, h4.sector.basis))
    assert_matches_reference(ansatz, h4.full, _random_state(rng, h4.full.basis, True))


def test_repeated_excitation_gradients_match_the_reference_sweep(h4):
    rng = np.random.default_rng(23)
    ansatz = Ansatz(h4.n, h4.n_electrons)
    repeated = h4.pool[-1].excitation
    for op in (h4.pool[-1], h4.pool[0], h4.pool[-1], h4.pool[5], h4.pool[-1]):
        ansatz.append(op.excitation, rng.uniform(-1.0, 1.0))
    assert ansatz.excitations.count(repeated) == 3
    assert_matches_reference(ansatz, h4.sector, _random_state(rng, h4.sector.basis))


def test_gradients_of_an_excitation_without_pairs_match_the_reference_sweep(h2):
    # one alpha electron and no beta one: the beta single and the double
    # couple nothing in this sector
    h = Basis.sector(4, 1).project(h2.ham)
    assert [h.basis.pairs(op.excitation).shape[1] for op in h2.pool] == [1, 0, 0]
    ansatz = Ansatz(4, 1)
    for op, theta in zip(h2.pool, (0.3, -0.7, 1.1)):
        ansatz.append(op.excitation, theta)
    rng = np.random.default_rng(4)
    assert_matches_reference(ansatz, h, _random_state(rng, h.basis))
    _, grad = energy_and_gradient(ansatz, h)
    assert grad[1] == grad[2] == 0.0


@pytest.mark.parametrize("n_angles", [1, 4])
def test_a_wrong_number_of_angles_is_refused(h4, n_angles):
    rng = np.random.default_rng(2)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 3)
    thetas = [0.1] * n_angles
    message = f"{n_angles} angles for an ansatz of 3 evolutions"
    with pytest.raises(ValueError, match=message):
        apply_ansatz(ansatz, thetas)
    with pytest.raises(ValueError, match=message):
        energy_and_gradient(ansatz, h4.sector, thetas)
    with pytest.raises(ValueError, match=message):
        overlap_and_gradient(ansatz, h4.fci_state(), thetas)


def test_overlap_stage_energies_equal_the_energy_objective(h6, h6_cipsi_pipeline,
                                                          beh2_stretched):
    # the overlap stage logs each iterate's energy from one forward pass
    # and one H application; it must be the energy objective's value
    beh2 = pipeline(beh2_stretched.mol, beh2_stretched.ham, beh2_stretched.pool, "fci", 10, 20)
    for problem, result in ((h6, h6_cipsi_pipeline), (beh2_stretched, beh2)):
        ansatz = result.ansatz
        records = result.overlap_trace.records
        assert records
        for rec in records:
            prefix = Ansatz(problem.n, problem.n_electrons,
                            list(ansatz.excitations[:rec.n_params]), list(rec.thetas))
            assert rec.energy == energy_and_gradient(prefix, problem.sector)[0]
