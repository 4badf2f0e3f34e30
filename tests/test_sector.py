"""The Hartree-Fock sector basis against independent full-space oracles."""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

import oada
from oada import ci
from oada.overlap_adapt import pipeline
from oada.pauli import QubitOperator
from oada.pool import SingleExcitation
from oada.statevector import (Ansatz, Basis, Statevector, energy_and_gradient,
                              overlap_and_gradient, prepare_hf)


def _sector(problem):
    return Basis.sector(problem.n, problem.n_electrons)


@pytest.mark.parametrize("name", ["h2", "h4", "h6"])
def test_projected_hamiltonian_is_sector_block(name, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    projected = sector.project(problem.ham).matrix
    block = problem.ham.to_sparse_matrix()[sector.masks][:, sector.masks]
    assert projected.dtype == np.float64
    assert projected.shape == (sector.dim, sector.dim)
    assert np.max(np.abs(projected.toarray() - block.toarray())) < 1e-13


def test_sector_masks_are_the_hf_sector(h6):
    sector = _sector(h6)
    masks = [m for m in range(1 << h6.n)
             if bin(m & 0x555).count("1") == 3 and bin(m & 0xAAA).count("1") == 3]
    assert sector.dim == 400
    assert list(sector.masks) == masks


def test_sector_pairs_are_full_pairs_inside_the_sector(h4, h6):
    for problem in (h4, h6):
        sector = _sector(problem)
        full = Basis.full(problem.n)
        inside = set(sector.masks.tolist())
        for op in problem.pool:
            src, dst = full.pairs(op.excitation)  # full-space positions are masks
            expected = sorted((int(s), int(d)) for s, d in zip(src, dst)
                              if s in inside and d in inside)
            s_src, s_dst = sector.pairs(op.excitation)
            got = sorted(zip(sector.masks[s_src].tolist(), sector.masks[s_dst].tolist()))
            assert got == expected


def test_spin_flip_excitation_leaves_the_sector(h4):
    with pytest.raises(ValueError, match="leaves the basis"):
        _sector(h4).pairs(SingleExcitation(5, 0))


def _dense_oracle(problem, ops, thetas, target):
    """Energy, overlap and both gradients from dense expm products."""
    h = problem.ham.to_dense_matrix()
    gens = [op.generator(problem.n).to_dense_matrix() for op in ops]
    units = [expm(theta * t) for t, theta in zip(gens, thetas)]
    hf = prepare_hf(problem.n, problem.n_electrons).amplitudes
    psi = hf
    for u in units:
        psi = u @ psi
    derivs = []
    for k in range(len(units)):
        d = hf
        for j, u in enumerate(units):
            d = u @ d
            if j == k:
                d = gens[k] @ d
        derivs.append(d)
    energy = np.vdot(psi, h @ psi).real
    e_grad = np.array([2.0 * np.vdot(psi, h @ d).real for d in derivs])
    c = np.vdot(target, psi)
    f_grad = np.array([2.0 * (np.conjugate(c) * np.vdot(target, d)).real for d in derivs])
    return energy, e_grad, abs(c) ** 2, f_grad


def test_sector_gradients_match_dense_expm(h4):
    rng = np.random.default_rng(3)
    sector = _sector(h4)
    h_sector = sector.project(h4.ham)
    target_full = h4.fci_state()
    target = sector.extract(target_full)
    assert target.amplitudes.dtype == np.float64
    for m in (1, 4, 9):
        ops = [h4.pool[int(k)] for k in rng.integers(len(h4.pool), size=m)]
        thetas = rng.uniform(-1.5, 1.5, size=m)
        ansatz = Ansatz(h4.n, h4.n_electrons, [op.excitation for op in ops], list(thetas))
        energy, e_grad, fid, f_grad = _dense_oracle(h4, ops, thetas, target_full.amplitudes)
        value, grad = energy_and_gradient(ansatz, h_sector)
        assert abs(value - energy) < 1e-12
        assert np.max(np.abs(grad - e_grad)) < 1e-12
        value, grad = overlap_and_gradient(ansatz, target)
        assert abs(value - fid) < 1e-12
        assert np.max(np.abs(grad - f_grad)) < 1e-12


def test_extract_and_embed_round_trip(h4):
    sector = _sector(h4)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=1 << h4.n) + 1j * rng.normal(size=1 << h4.n)
    state = Statevector(h4.n, amps)
    inner = sector.extract(state)
    assert inner.amplitudes.dtype == np.complex128
    back = Basis.full(h4.n).extract(inner)
    outside = np.ones(1 << h4.n, dtype=bool)
    outside[sector.masks] = False
    assert np.array_equal(back.amplitudes[sector.masks], amps[sector.masks])
    assert not np.any(back.amplitudes[outside])


def test_pipeline_never_builds_the_full_matrix(h4, monkeypatch):
    def refuse(self):
        raise AssertionError("2^N matrix built")

    monkeypatch.setattr(QubitOperator, "to_sparse_matrix", refuse)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 2, 4, e_ref=h4.e_fci)
    assert len(result.ansatz) == 4
    assert result.adapt_trace.final_energy >= h4.e_fci - 1e-10


def test_sector_cap_raises_before_allocating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("sector enumerated before the cap check")

    monkeypatch.setattr(itertools, "combinations", enumerate_nothing)
    with pytest.raises(ValueError, match="exceeds cap"):
        Basis.sector(40, 20)  # C(20, 10)^2 = 3.4e10 amplitudes


@pytest.mark.parametrize("name, dim", [("h4", 36), ("h6", 400)])
def test_sector_ground_state_is_the_fci_target(name, dim, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    energy, target = ci.sector_ground_state(sector.project(problem.ham))
    assert target.basis is sector and sector.dim == dim
    assert target.amplitudes.dtype == np.float64
    exact = sector.extract(ci.export_statevector(problem.fci[1], problem.n))
    assert abs(np.vdot(target.amplitudes, exact.amplitudes)) ** 2 >= 1 - 1e-10
    assert abs(energy - problem.e_fci) < 1e-10


def test_pipeline_fci_target_skips_the_determinant_solver(h4, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Slater-Condon FCI called")

    monkeypatch.setattr(ci, "fci_ground_state", refuse)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 2, 4, e_ref=h4.e_fci)
    assert result.target_state.basis == _sector(h4)
    assert abs(result.target_energy - h4.e_fci) < 1e-10
    assert len(result.ansatz) == 4


def test_pipeline_cipsi_target_lies_in_the_sector(h4):
    result = pipeline(h4.mol, h4.ham, h4.pool, "cipsi", 2, 3, cipsi_max_dets=8)
    assert result.target_state.basis == _sector(h4)
    assert abs(result.target_state.norm() - 1.0) < 1e-12


def test_target_without_sector_weight_is_rejected(h2):
    wrong = ci.DeterminantWavefunction(2, {ci.Determinant(1, 0): 1.0})
    with pytest.raises(ValueError, match="no weight"):
        pipeline(h2.mol, h2.ham, h2.pool, "wavefunction", 2, 3, target_wavefunction=wrong)


def test_davidson_raises_convergence_error(h6):
    matrix = _sector(h6).project(h6.ham).matrix
    with pytest.raises(oada.ConvergenceError, match="Davidson"):
        ci._davidson(matrix, matrix.diagonal(), max_iter=2)
