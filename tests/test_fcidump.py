import numpy as np
import pytest

from oada.fcidump import (FcidumpData, FcidumpError, dump_fcidump, parse_fcidump,
                          reference_energies, to_spin_orbital)
from oada.pauli import jw_hamiltonian

HEADER = "&FCI NORB=2,NELEC=2,MS2=0,\n ORBSYM=1,1,\n ISYM=1,\n&END\n"


def test_two_body_record():
    data = parse_fcidump(HEADER + "0.7137 1 1 1 1\n")
    assert data.two_body_value(1, 1, 1, 1) == 0.7137
    assert data.norb == 2 and data.nelec == 2 and data.ms2 == 0


def test_one_body_rule_k_l_zero():
    data = parse_fcidump(HEADER + "-1.2563 1 1 0 0\n")
    assert data.one_body_value(1, 1) == -1.2563
    assert data.two_body == {}


def test_permutational_symmetry_access():
    data = parse_fcidump(HEADER + "0.7137 1 1 2 2\n")
    # (11|22) readable under all eight index permutations
    assert data.two_body_value(2, 2, 1, 1) == 0.7137
    assert data.two_body_value(1, 1, 2, 2) == 0.7137
    assert len(data.two_body) == 1


def test_one_body_symmetric_access():
    data = parse_fcidump(HEADER + "0.25 2 1 0 0\n")
    assert data.one_body_value(1, 2) == data.one_body_value(2, 1) == 0.25


def test_core_energy_record():
    data = parse_fcidump(HEADER + "0.71 0 0 0 0\n")
    assert data.core_energy == 0.71


def test_fortran_d_exponent():
    data = parse_fcidump(HEADER + "1.0D-3 1 1 0 0\n-2.5d+00 2 2 0 0\n")
    assert data.one_body_value(1, 1) == 1e-3
    assert data.one_body_value(2, 2) == -2.5


def test_slash_terminated_namelist():
    data = parse_fcidump("&FCI NORB=1,NELEC=1,MS2=1,\n/\n-0.5 1 1 0 0\n")
    assert data.norb == 1 and data.one_body_value(1, 1) == -0.5


def test_missing_namelist_key():
    with pytest.raises(FcidumpError, match="NELEC"):
        parse_fcidump("&FCI NORB=2,MS2=0,\n&END\n")


def test_malformed_numeric_reports_line():
    with pytest.raises(FcidumpError, match="line 5"):
        parse_fcidump(HEADER + "oops 1 1 0 0\n")


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1D999"])
def test_non_finite_value_reports_line(token):
    # a NaN integral fails the coefficient cutoff and its term would vanish
    with pytest.raises(FcidumpError, match=f"line 6: '{token}' is not a finite number"):
        parse_fcidump(HEADER + f"0.5 1 1 0 0\n{token} 1 1 1 1\n")


@pytest.mark.parametrize("value, problem", [("abc", "malformed"), ("nan", "not a finite")])
def test_reference_energies_refuse_bad_values(tmp_path, value, problem):
    path = tmp_path / "ref.fcidump"
    path.write_text(f"# REF_HF=-1.0\n# REF_FCI={value}\n" + HEADER)
    with pytest.raises(FcidumpError, match=f"ref.fcidump:2: .*{problem}"):
        reference_energies(path)


def test_index_out_of_range():
    with pytest.raises(FcidumpError, match="outside"):
        parse_fcidump(HEADER + "0.5 3 1 0 0\n")


def test_wrong_token_count():
    with pytest.raises(FcidumpError):
        parse_fcidump(HEADER + "0.5 1 1\n")


def test_nelec_bounds():
    with pytest.raises(FcidumpError, match="NELEC"):
        parse_fcidump("&FCI NORB=2,NELEC=5,MS2=0,\n&END\n")


def test_comments_stripped(h2):
    # fixture files start with # REF_ lines; parsing must ignore them
    assert h2.data.norb == 2
    assert "REF_HF" in h2.refs and "REF_FCI" in h2.refs


def test_round_trip_bit_for_bit(h2, h4):
    for problem in (h2, h4):
        reparsed = parse_fcidump(dump_fcidump(problem.data))
        assert reparsed.one_body == problem.data.one_body
        assert reparsed.two_body == problem.data.two_body
        assert reparsed.core_energy == problem.data.core_energy
        assert (reparsed.norb, reparsed.nelec, reparsed.ms2) == (
            problem.data.norb, problem.data.nelec, problem.data.ms2)


def test_spin_orbital_shapes_and_interleaving(h2):
    mol = h2.mol
    assert mol.n_spin_orbitals == 2 * h2.data.norb
    h1 = mol.h_pq
    assert np.allclose(h1, h1.T)
    # alpha and beta blocks identical, cross-spin zero
    assert np.allclose(h1[0::2, 0::2], h1[1::2, 1::2])
    assert np.all(h1[0::2, 1::2] == 0.0)


def test_two_body_spin_conservation(h2):
    g = h2.mol.h_pqrs
    n = h2.mol.n_spin_orbitals
    for p in range(n):
        for q in range(n):
            if p % 2 != q % 2:
                assert np.all(g[p, q, :, :] == 0.0)
                assert np.all(g[:, :, p, q] == 0.0)


def test_hf_energy_matches_reference(h2, h4):
    # oracle: diagonal element of the dense qubit Hamiltonian at the HF index
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        hf_index = (1 << problem.n_electrons) - 1
        e_hf = dense[hf_index, hf_index].real
        assert abs(e_hf - problem.refs["REF_HF"]) < 1e-8


def test_one_orbital_two_electron_closed_form():
    e0, h11, v = 0.31, -1.25, 0.67
    data = FcidumpData(norb=1, nelec=2, ms2=0, core_energy=e0,
                       one_body={(1, 1): h11}, two_body={(1, 1, 1, 1): v})
    mol = to_spin_orbital(data)
    dense = jw_hamiltonian(mol).to_dense_matrix()
    assert abs(dense[0b11, 0b11].real - (e0 + 2 * h11 + v)) < 1e-12


def test_fci_energy_matches_reference(h2, h4):
    for problem in (h2, h4):
        assert abs(problem.e_fci - problem.refs["REF_FCI"]) < 1e-8


def test_dense_hamiltonian_hermitian(h2, h4):
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        assert np.max(np.abs(dense - dense.conj().T)) < 1e-12


def test_commutes_with_number_and_sz(h2, h4):
    from oada.verify import _number_operator, _sz_operator
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        for sym in (_number_operator(problem.n), _sz_operator(problem.n)):
            s = sym.to_dense_matrix()
            assert np.max(np.abs(dense @ s - s @ dense)) < 1e-10


@pytest.mark.parametrize("header", [
    "&FCI NORB=2,NELEC=2,MS2=1,\n&END\n",  # wrong parity
    "&FCI NORB=2,NELEC=2,MS2=2,\n&END\n",  # a high-spin sector of H2
])
def test_spin_orbital_rejects_other_sectors(h2, header):
    body = dump_fcidump(h2.data).split("&END\n", 1)[1]
    data = parse_fcidump(header + body)
    with pytest.raises(FcidumpError, match="MS2"):
        to_spin_orbital(data)
