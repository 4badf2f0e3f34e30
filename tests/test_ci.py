import logging
import math

import numpy as np
import pytest

import oada
from oada import statevector
from oada.ci import (cipsi_initial_state, cipsi_iterate, export_statevector,
                     fci_ground_state, mask_to_strings, read_wavefunction, run_cipsi,
                     slater_condon, slater_condon_hamiltonian, strings_to_mask,
                     write_wavefunction)
from oada.fcidump import FcidumpData, to_spin_orbital
from oada.pauli import jw_hamiltonian
from oada.statevector import Basis, Statevector, expectation, prepare_hf


def test_hf_diagonal_matches_reference(h2, h4):
    for problem in (h2, h4):
        hf = (1 << problem.n_electrons) - 1
        assert abs(slater_condon(problem.mol, hf, hf) - problem.refs["REF_HF"]) < 1e-8


def test_triple_excitation_vanishes(h4):
    bra = strings_to_mask(0b1100, 0b0101)  # two alpha moves and one beta move
    ket = strings_to_mask(0b0011, 0b0011)
    assert (bra ^ ket).bit_count() // 2 == 3
    assert slater_condon(h4.mol, bra, ket) == 0.0


def test_matrix_elements_match_dense_qubit_hamiltonian(h2, h4):
    # the key cross-module consistency check, full sector, N <= 8
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        masks = Basis.sector(problem.n, problem.n_electrons).masks.tolist()
        for i in masks:
            for j in masks:
                assert abs(slater_condon(problem.mol, i, j) - dense[i, j].real) < 1e-10


def test_fci_matches_reference(h2, h4, h6):
    for problem in (h2, h4, h6):
        assert abs(problem.e_fci - problem.refs["REF_FCI"]) < 1e-8


def test_davidson_agrees_with_dense(h4, h6):
    for problem in (h4, h6):
        matrix = slater_condon_hamiltonian(problem.mol).matrix.toarray()
        dense_e = np.linalg.eigvalsh(matrix)[0]
        davidson_e, state = fci_ground_state(problem.mol)
        assert abs(dense_e - davidson_e) < 1e-9
        state = Basis.full(problem.n).extract(state)
        assert abs(expectation(state, problem.full) - dense_e) < 1e-8


def test_dimension_cap(h6, monkeypatch):
    monkeypatch.setattr(statevector, "MAX_SECTOR_DIM", 10)
    with pytest.raises(oada.DimensionCapError, match="exceeds cap"):
        fci_ground_state(h6.mol)


def test_cipsi_initial_state_is_hf(h4):
    state = cipsi_initial_state(h4.sector)
    assert len(state.dets) == 1
    assert abs(state.e_variational - h4.refs["REF_HF"]) < 1e-8
    assert math.isinf(state.e_pt2)


def test_cipsi_rejects_a_basis_of_mixed_electron_counts(h2):
    with pytest.raises(ValueError, match="determinant sector"):
        cipsi_initial_state(h2.full)


def test_cipsi_full_sector_terminates_at_fci(h2):
    state = run_cipsi(h2.sector, max_dets=100)
    assert abs(state.e_variational - h2.e_fci) < 1e-9
    assert state.e_pt2 == 0.0


def test_cipsi_h2_one_iteration_exact(h2):
    state = cipsi_iterate(cipsi_initial_state(h2.sector), h2.sector)
    assert abs(state.e_cipsi - h2.e_fci) < 1e-8


@pytest.mark.parametrize("name", ["h6", "beh2_stretched"])
def test_cipsi_monotone_and_variational(name, request):
    # the dense block's eigensolver is the oracle for Davidson's E_v
    problem = request.getfixturevalue(name)
    state = cipsi_initial_state(problem.sector)
    previous = state.e_variational
    for _ in range(6):
        state = cipsi_iterate(state, problem.sector)
        block = problem.sector.matrix[state.dets][:, state.dets]
        assert abs(state.e_variational - np.linalg.eigvalsh(block.toarray())[0]) <= 1e-12
        c = state.coefficients
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
        assert c[np.argmax(np.abs(c))] > 0
        assert np.linalg.norm(block @ c - state.e_variational * c) <= 1e-8
        assert state.e_variational <= previous + 1e-12
        assert state.e_variational >= problem.e_fci - 1e-10
        previous = state.e_variational
    assert len(state.dets) <= 64  # doubling cap


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated on this fixture: the 50-determinant CIPSI space "
    "of H6/3.0A contains the 20-determinant one, whose E_v error is already "
    "8.43e-4 Ha, so by the variational principle the 50-determinant error "
    "cannot exceed 1e-2 Ha (see 'Acceptance suite' in the README); the "
    "stated bound must come from a different orbital basis or setup"))
def test_cipsi_h6_fifty_determinants_low_accuracy_regime(h6):
    state = run_cipsi(h6.sector, max_dets=50)
    assert len(state.dets) == 50
    assert state.e_variational - h6.e_fci > 1e-2


def test_cipsi_h6_fifty_determinants_measured(h6):
    # measured behavior of the 50-determinant target used by the pipelines
    state = run_cipsi(h6.sector, max_dets=50)
    assert len(state.dets) == 50
    block = h6.sector.matrix[state.dets][:, state.dets].toarray()
    assert abs(state.e_variational - np.linalg.eigvalsh(block)[0]) <= 1e-12
    error = state.e_variational - h6.e_fci
    assert 1e-4 < error < 5e-3


# Occupation masks of the CIPSI spaces, and their E_v, as the determinant
# loop that predates the sector coordinates selected them.
CIPSI_SPACES = {
    ("h6", 50): (-2.800239092821264, [
        63, 123, 183, 207, 237, 303, 423, 483, 543, 603, 723, 819, 843, 903, 963, 993, 1083,
        1167, 1197, 1563, 1593, 1677, 1713, 1737, 1752, 1833, 1890, 1923, 1953, 2103, 2142,
        2172, 2358, 2382, 2502, 2532, 2838, 2898, 2961, 3102, 3132, 3276, 3372, 3462, 3492,
        3612, 3657, 3672, 3888, 4032]),
    ("beh2_stretched", 100): (-15.336797570945434, [
        63, 123, 183, 207, 243, 246, 249, 783, 819, 822, 825, 828, 843, 846, 882, 903, 909,
        945, 963, 966, 969, 972, 3087, 3123, 3126, 3129, 3132, 3147, 3150, 3186, 3207, 3213,
        3249, 3267, 3270, 3273, 3276, 3888, 4032, 4143, 4203, 4206, 4251, 4263, 4269, 4323,
        4326, 4329, 4899, 4902, 4905, 4962, 5025, 7203, 7206, 7209, 7266, 7329, 8223, 8283,
        8286, 8295, 8343, 8349, 8403, 8406, 8409, 8979, 8982, 8985, 9042, 9105, 11283,
        11286, 11289, 11346, 11409, 12303, 12339, 12342, 12345, 12348, 12363, 12366, 12402,
        12408, 12423, 12429, 12465, 12468, 12483, 12486, 12489, 12492, 13059, 13104, 13248,
        15363, 15408, 15552]),
}


@pytest.mark.parametrize("name, max_dets", sorted(CIPSI_SPACES))
def test_cipsi_selects_the_pinned_space(name, max_dets, request):
    problem = request.getfixturevalue(name)
    e_v, masks = CIPSI_SPACES[name, max_dets]
    state = run_cipsi(problem.sector, max_dets=max_dets)
    assert problem.sector.basis.masks[state.dets].tolist() == masks
    assert abs(state.e_variational - e_v) < 1e-12


def test_cipsi_on_the_slater_condon_oracle_selects_the_same_space(h4, h6):
    for problem, max_dets in ((h4, 16), (h6, 50)):
        oracle = slater_condon_hamiltonian(problem.mol)
        assert oracle.basis == problem.sector.basis
        got = run_cipsi(problem.sector, max_dets=max_dets)
        want = run_cipsi(oracle, max_dets=max_dets)
        assert np.array_equal(got.dets, want.dets)
        assert abs(got.e_variational - want.e_variational) < 1e-12
        assert abs(got.e_pt2 - want.e_pt2) < 1e-12


def test_cipsi_needs_stopping_rule(h4):
    with pytest.raises(ValueError):
        run_cipsi(h4.sector)


def test_cipsi_infinite_target_returns_hf(h4):
    state = run_cipsi(h4.sector, target_e2=math.inf)
    assert len(state.dets) == 1


def test_intruder_determinant_force_selected(caplog):
    # coupled determinant with a degenerate diagonal: forced in, logged
    data = FcidumpData(norb=2, nelec=2, ms2=0, core_energy=0.0,
                       one_body={(1, 1): -1.0, (2, 2): -1.0, (2, 1): 0.3})
    mol = to_spin_orbital(data)
    h_sector = Basis.sector(4, 2).project(jw_hamiltonian(mol))
    state = cipsi_initial_state(h_sector)
    with caplog.at_level(logging.WARNING, logger="oada.ci"):
        new = cipsi_iterate(state, h_sector)
    assert new.forced_intruders > 0
    assert "intruder" in caplog.text


def test_export_statevector_hf(h4):
    hf = prepare_hf(h4.n, h4.n_electrons, Basis.sector(h4.n, h4.n_electrons))
    state = export_statevector(hf, Basis.full(h4.n))
    assert np.array_equal(state.amplitudes,
                          prepare_hf(h4.n, h4.n_electrons).amplitudes)


def test_export_statevector_fci_energy(h6):
    state = export_statevector(h6.fci[1], Basis.full(h6.n))
    assert abs(expectation(state, h6.full) - h6.e_fci) < 1e-9


def test_export_statevector_ratio_and_norm():
    a_mask, b_mask = strings_to_mask(0b01, 0b01), strings_to_mask(0b10, 0b10)
    amplitudes = np.zeros(16)
    amplitudes[[a_mask, b_mask]] = 3.0, 4.0
    state = export_statevector(Statevector(4, amplitudes), Basis.sector(4, 2))
    assert abs(state.norm() - 1.0) < 1e-12
    a, b = state.amplitudes[state.basis.index(np.array([a_mask, b_mask]))]
    assert abs(a / b - 0.75) < 1e-12


def test_wavefunction_file_round_trip(tmp_path, h4):
    _, state = h4.fci
    path = tmp_path / "wf.dets"
    write_wavefunction(state, path)
    loaded = read_wavefunction(path, state.basis)
    assert loaded.basis == state.basis
    assert np.array_equal(loaded.amplitudes, state.amplitudes)


@pytest.mark.parametrize("text, match", [
    ("norb=2\n1.0 1 1\n", "header"),
    ("norb=2 nelec=2\n1.0 1\n", ":2:"),
    ("norb=2 nelec=2\n1.0 1 0\n", "does not fit"),
    ("norb=2 nelec=2\n1.0 4 1\n", "does not fit"),
    ("norb=2 nelec=2\n1.0 3 0\n", ":2: .*does not fit"),
    ("norb=3 nelec=2\n1.0 1 1\n", "does not fit"),
    ("norb=2 nelec=2\n0.6 1 1\n0.8 1 1\n", ":3: .*listed twice"),
    ("norb=2 nelec=2\n0.0 1 1\n", "nonzero"),
])
def test_read_wavefunction_rejects_bad_files(tmp_path, text, match):
    path = tmp_path / "wf.dets"
    path.write_text(text)
    with pytest.raises(oada.FcidumpError, match=match):
        read_wavefunction(path, Basis.sector(4, 2))


def test_interleaved_mask_round_trip():
    alpha, beta = 0b1011, 0b0110
    mask = strings_to_mask(alpha, beta)
    assert mask == 0b01101101
    assert mask_to_strings(mask) == (alpha, beta)
    assert mask.bit_count() == alpha.bit_count() + beta.bit_count()
