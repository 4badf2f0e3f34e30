import logging
import math

import numpy as np
import pytest

import oada
from oada import statevector
from oada.ci import (Determinant, cipsi_initial_state, cipsi_iterate,
                     export_statevector, fci_ground_state,
                     hartree_fock_determinant, read_wavefunction, run_cipsi,
                     slater_condon, slater_condon_hamiltonian, write_wavefunction,
                     DeterminantWavefunction)
from oada.fcidump import FcidumpData, to_spin_orbital
from oada.statevector import Basis, expectation, prepare_hf


def test_hf_diagonal_matches_reference(h2, h4):
    for problem in (h2, h4):
        det = hartree_fock_determinant(problem.mol.n_alpha, problem.mol.n_beta)
        assert abs(slater_condon(problem.mol, det, det)
                   - problem.refs["REF_HF"]) < 1e-8


def test_triple_excitation_vanishes(h4):
    bra = Determinant(0b1100, 0b0101)  # two alpha moves and one beta move
    ket = Determinant(0b0011, 0b0011)
    diff = (bra.spin_orbital_mask() ^ ket.spin_orbital_mask()).bit_count()
    assert diff // 2 == 3
    assert slater_condon(h4.mol, bra, ket) == 0.0


def test_matrix_elements_match_dense_qubit_hamiltonian(h2, h4):
    # the key cross-module consistency check, full sector, N <= 8
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        dets = [Determinant.from_spin_orbital_mask(int(mask))
                for mask in Basis.sector(problem.n, problem.n_electrons).masks]
        for bra in dets:
            i = bra.spin_orbital_mask()
            for ket in dets:
                j = ket.spin_orbital_mask()
                assert abs(slater_condon(problem.mol, bra, ket)
                           - dense[i, j].real) < 1e-10


def test_fci_matches_reference(h2, h4, h6):
    for problem in (h2, h4, h6):
        assert abs(problem.e_fci - problem.refs["REF_FCI"]) < 1e-8


def test_davidson_agrees_with_dense(h4, h6):
    for problem in (h4, h6):
        matrix = slater_condon_hamiltonian(problem.mol).matrix.toarray()
        dense_e = np.linalg.eigvalsh(matrix)[0]
        davidson_e, wavefn = fci_ground_state(problem.mol)
        assert abs(dense_e - davidson_e) < 1e-9
        state = export_statevector(wavefn, problem.n)
        assert abs(expectation(state, problem.sparse) - dense_e) < 1e-8


def test_dimension_cap(h6, monkeypatch):
    monkeypatch.setattr(statevector, "MAX_SECTOR_DIM", 10)
    with pytest.raises(oada.DimensionCapError, match="exceeds cap"):
        fci_ground_state(h6.mol)


def test_cipsi_initial_state_is_hf(h4):
    state = cipsi_initial_state(h4.mol)
    assert len(state.dets) == 1
    assert abs(state.e_variational - h4.refs["REF_HF"]) < 1e-8
    assert math.isinf(state.e_pt2)


def test_cipsi_full_sector_terminates_at_fci(h2):
    state = run_cipsi(h2.mol, max_dets=100)
    assert abs(state.e_variational - h2.e_fci) < 1e-9
    assert state.e_pt2 == 0.0


def test_cipsi_h2_one_iteration_exact(h2):
    state = cipsi_iterate(cipsi_initial_state(h2.mol), h2.mol)
    assert abs(state.e_cipsi - h2.e_fci) < 1e-8


def test_cipsi_monotone_and_variational(h6):
    state = cipsi_initial_state(h6.mol)
    previous = state.e_variational
    for _ in range(6):
        state = cipsi_iterate(state, h6.mol)
        assert state.e_variational <= previous + 1e-12
        assert state.e_variational >= h6.e_fci - 1e-10
        previous = state.e_variational
    assert len(state.dets) <= 64  # doubling cap


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated on this fixture: the 50-determinant CIPSI space "
    "of H6/3.0A contains the 20-determinant one, whose E_v error is already "
    "8.43e-4 Ha, so by the variational principle the 50-determinant error "
    "cannot exceed 1e-2 Ha (see 'Acceptance suite' in the README); the "
    "stated bound must come from a different orbital basis or setup"))
def test_cipsi_h6_fifty_determinants_low_accuracy_regime(h6):
    state = run_cipsi(h6.mol, max_dets=50)
    assert len(state.dets) == 50
    assert state.e_variational - h6.e_fci > 1e-2


def test_cipsi_h6_fifty_determinants_measured(h6):
    # measured behavior of the 50-determinant target used by the pipelines
    state = run_cipsi(h6.mol, max_dets=50)
    assert len(state.dets) == 50
    error = state.e_variational - h6.e_fci
    assert 1e-4 < error < 5e-3


def test_cipsi_needs_stopping_rule(h4):
    with pytest.raises(ValueError):
        run_cipsi(h4.mol)


def test_cipsi_infinite_target_returns_hf(h4):
    state = run_cipsi(h4.mol, target_e2=math.inf)
    assert len(state.dets) == 1


def test_intruder_determinant_force_selected(caplog):
    # coupled determinant with a degenerate diagonal: forced in, logged
    data = FcidumpData(norb=2, nelec=2, ms2=0, core_energy=0.0,
                       one_body={(1, 1): -1.0, (2, 2): -1.0, (2, 1): 0.3})
    mol = to_spin_orbital(data)
    state = cipsi_initial_state(mol)
    with caplog.at_level(logging.WARNING, logger="oada.ci"):
        new = cipsi_iterate(state, mol)
    assert new.forced_intruders > 0
    assert "intruder" in caplog.text


def test_export_statevector_hf(h4):
    wavefn = DeterminantWavefunction(
        h4.n // 2, {hartree_fock_determinant(h4.mol.n_alpha, h4.mol.n_beta): 1.0})
    state = export_statevector(wavefn, h4.n)
    assert np.array_equal(state.amplitudes,
                          prepare_hf(h4.n, h4.n_electrons).amplitudes)


def test_export_statevector_fci_energy(h6):
    state = export_statevector(h6.fci[1], h6.n)
    assert abs(expectation(state, h6.sparse) - h6.e_fci) < 1e-9


def test_export_statevector_ratio_and_norm():
    wavefn = DeterminantWavefunction(
        2, {Determinant(0b01, 0b01): 3.0, Determinant(0b10, 0b10): 4.0})
    state = export_statevector(wavefn, 4)
    assert abs(state.norm() - 1.0) < 1e-12
    a = state.amplitudes[Determinant(0b01, 0b01).spin_orbital_mask()]
    b = state.amplitudes[Determinant(0b10, 0b10).spin_orbital_mask()]
    assert abs(a / b - 0.75) < 1e-12


def test_export_statevector_overflow():
    wavefn = DeterminantWavefunction(4, {Determinant(0b1000, 0): 1.0})
    with pytest.raises(ValueError, match="fit"):
        export_statevector(wavefn, 4)


def test_wavefunction_file_round_trip(tmp_path, h4):
    _, wavefn = h4.fci
    path = tmp_path / "wf.dets"
    write_wavefunction(wavefn, path)
    loaded = read_wavefunction(path)
    assert loaded.norb == wavefn.norb
    assert loaded.coefficients == wavefn.coefficients


@pytest.mark.parametrize("text, match", [
    ("norb=2\n1.0 1 1\n", "header"),
    ("norb=2 nelec=2\n1.0 1\n", ":2:"),
    ("norb=2 nelec=2\n1.0 1 0\n", "does not fit"),
    ("norb=2 nelec=2\n1.0 4 1\n", "does not fit"),
])
def test_read_wavefunction_rejects_bad_files(tmp_path, text, match):
    path = tmp_path / "wf.dets"
    path.write_text(text)
    with pytest.raises(oada.FcidumpError, match=match):
        read_wavefunction(path)


def test_interleaved_mask_round_trip():
    det = Determinant(0b1011, 0b0110)
    mask = det.spin_orbital_mask()
    assert Determinant.from_spin_orbital_mask(mask) == det
    assert mask.bit_count() == det.n_electrons()
