"""The array assembly of `pauli.jw_hamiltonian` against a term-by-term loop.

`reference_jw_hamiltonian` multiplies the ladder operators for every
ordered (p, r, s, q) and accumulates one dict entry per product term. The
assembly must reproduce it bit for bit: the same Pauli strings and the
same floating-point real and imaginary parts for each.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

import oada
from oada import ci, pauli
from oada.fcidump import (FcidumpData, MolecularHamiltonian, _canonical_two_body,
                          to_spin_orbital)
from oada.pauli import (COEFF_CUTOFF, MAX_MASK_QUBITS, PauliString, QubitOperator,
                        format_operator, jw_annihilation, jw_creation, jw_hamiltonian)
from oada.statevector import Basis


def reference_jw_hamiltonian(mol):
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
    return QubitOperator(n, total)


def coefficient_bits(op):
    return {s: (c.real.hex(), c.imag.hex()) for s, c in op.terms.items()}


def assert_bit_identical(mol):
    new, ref = jw_hamiltonian(mol), reference_jw_hamiltonian(mol)
    assert new.n_qubits == ref.n_qubits
    assert coefficient_bits(new) == coefficient_bits(ref)
    assert format_operator(new) == format_operator(ref)


@pytest.mark.parametrize("name", oada.available_fixtures())
def test_bit_identical_to_term_loop_on_fixtures(name):
    mol = to_spin_orbital(oada.read_fcidump(oada.fixture_path(name)))
    assert_bit_identical(mol)


def random_integrals(norb, nelec, seed):
    """Real integrals with the 8-fold symmetry, about a fifth of them zero."""
    rng = np.random.default_rng(seed)
    data = FcidumpData(norb=norb, nelec=nelec, ms2=nelec % 2,
                       core_energy=rng.normal())
    for i, j in itertools.combinations_with_replacement(range(1, norb + 1), 2):
        if rng.random() < 0.8:
            data.one_body[(j, i)] = rng.normal()
    for key in itertools.product(range(1, norb + 1), repeat=4):
        if key == _canonical_two_body(*key) and rng.random() < 0.8:
            data.two_body[key] = rng.normal(scale=0.5)
    return data


@pytest.mark.parametrize("norb, nelec, seed", [
    (4, 2, 1), (4, 3, 2), (5, 4, 3), (5, 5, 4), (6, 6, 5), (6, 3, 6),
])
def test_random_integrals_match_slater_condon(norb, nelec, seed):
    data = random_integrals(norb, nelec, seed)
    mol = to_spin_orbital(data)
    h_sc = ci.slater_condon_hamiltonian(mol)
    h_jw = Basis.sector(mol.n_spin_orbitals, nelec).project(jw_hamiltonian(mol))
    assert h_jw.basis == h_sc.basis
    assert np.max(np.abs(h_jw.matrix.toarray() - h_sc.matrix.toarray())) <= 1e-12
    assert_bit_identical(mol)


def test_bit_identical_beyond_a_packed_key_width():
    # 34 spin orbitals: two 34-bit masks do not fit one int64 key.
    data = FcidumpData(norb=17, nelec=2, ms2=0, core_energy=0.5)
    data.one_body.update({(17, 17): -0.7, (17, 1): 0.11, (9, 2): -0.03})
    data.two_body.update({(17, 17, 17, 17): 0.6, (17, 1, 1, 1): 0.07,
                          (17, 16, 2, 1): 0.013, (9, 8, 17, 3): -0.021})
    assert_bit_identical(to_spin_orbital(data))


@pytest.mark.parametrize("case", ["h4_1.5", "h6_3.0", "random"])
def test_bit_identical_across_small_chunks(case, monkeypatch):
    # An odd row budget cuts chunks inside each creation index's rows, so
    # most strings are merged with known keys across many chunks.
    monkeypatch.setattr(pauli, "JW_CHUNK", 7)
    if case == "random":
        mol = to_spin_orbital(random_integrals(5, 4, 11))
    else:
        mol = to_spin_orbital(oada.read_fcidump(oada.fixture_path(case)))
    assert_bit_identical(mol)


def test_in_chunks_keeps_order_and_size():
    batches = [(np.arange(a, b)[:, None], np.arange(a, b) * 0.5)
               for a, b in [(0, 3), (3, 3), (3, 12), (12, 13)]]
    chunks = list(pauli._in_chunks(batches, 4))
    assert [len(values) for _, values in chunks] == [4, 4, 4, 1]
    assert np.array_equal(np.concatenate([rows for rows, _ in chunks]).ravel(),
                          np.arange(13))
    assert np.array_equal(np.concatenate([values for _, values in chunks]),
                          np.arange(13) * 0.5)


def test_asymmetric_one_body_is_not_hermitian():
    n = 4
    h1 = np.zeros((n, n))
    h1[0, 2], h1[2, 0] = 0.3, 0.1
    mol = MolecularHamiltonian(n_spin_orbitals=n, n_electrons=2, core_energy=0.0,
                               h_pq=h1, h_pqrs=np.zeros((n,) * 4))
    with pytest.raises(ValueError, match="not hermitian"):
        jw_hamiltonian(mol)


def test_two_body_symmetric_only_under_pair_exchange_is_refused():
    # a_0^ a_1^ a_3 a_2 plus its adjoint a_2^ a_3^ a_1 a_0, written as
    # a_3^ a_2^ a_0 a_1 by the pair symmetry: hermitian, but h_pqrs != h_qpsr
    n = 4
    g = np.zeros((n,) * 4)
    g[0, 2, 1, 3] = g[3, 1, 2, 0] = 0.2
    mol = MolecularHamiltonian(n_spin_orbitals=n, n_electrons=2, core_energy=0.0,
                               h_pq=np.zeros((n, n)), h_pqrs=g)
    assert reference_jw_hamiltonian(mol).is_hermitian()
    with pytest.raises(ValueError, match="not hermitian"):
        jw_hamiltonian(mol)


@pytest.mark.parametrize("part", ["one_body", "two_body", "core"])
def test_complex_integrals_are_refused(part):
    mol = to_spin_orbital(oada.read_fcidump(oada.fixture_path("h2_0.7414")))
    if part == "core":
        mol.core_energy = complex(mol.core_energy)
    else:
        name = "h_pq" if part == "one_body" else "h_pqrs"
        setattr(mol, name, getattr(mol, name).astype(np.complex128))
    with pytest.raises(ValueError, match="complex integrals"):
        jw_hamiltonian(mol)


def diagonal_molecule(norb, seed):
    """Number-operator terms only: every product has x = 0."""
    rng = np.random.default_rng(seed)
    n = 2 * norb
    h_pqrs = np.zeros((n,) * 4)
    pair = rng.normal(size=(n, n))
    p = np.arange(n)
    h_pqrs[p[:, None], p[:, None], p, p] = pair + pair.T  # h_pprr, of n_p n_r
    return MolecularHamiltonian(n_spin_orbitals=n, n_electrons=2, core_energy=0.3,
                                h_pq=np.diag(rng.normal(size=n)), h_pqrs=h_pqrs)


def off_diagonal_molecule(norb, seed):
    """Random integrals less every product with x = 0."""
    mol = to_spin_orbital(random_integrals(norb, 2, seed))
    np.fill_diagonal(mol.h_pq, 0.0)
    bits = 1 << np.arange(mol.n_spin_orbitals)
    x = (bits[:, None, None, None] ^ bits[None, :, None, None]
         ^ bits[None, None, :, None] ^ bits[None, None, None, :])
    mol.h_pqrs[x == 0] = 0.0
    return mol


@pytest.mark.parametrize("build", [diagonal_molecule, off_diagonal_molecule])
@pytest.mark.parametrize("chunk", [3, 7])
def test_bit_identical_when_one_reduction_block_is_empty(build, chunk, monkeypatch):
    monkeypatch.setattr(pauli, "JW_CHUNK", chunk)
    mol = build(5, 21)
    rows = [np.argwhere(mol.h_pq)] + [rows for rows, _ in pauli._two_body_rows(mol)]
    x = np.concatenate([np.bitwise_xor.reduce(1 << r, axis=1) for r in rows])
    assert len(x) > 50 and np.all((x == 0) == (build is diagonal_molecule))
    assert_bit_identical(mol)


@pytest.mark.parametrize("name", oada.available_fixtures())
def test_every_string_has_an_even_number_of_ys(name):
    ham = jw_hamiltonian(to_spin_orbital(oada.read_fcidump(oada.fixture_path(name))))
    assert all((s.x_mask & s.z_mask).bit_count() % 2 == 0 for s in ham.terms)
    assert all(c.imag == 0.0 for c in ham.terms.values())


def test_top_mask_bit_hopping():
    n = MAX_MASK_QUBITS
    top = n - 1
    h1 = np.zeros((n, n))
    h1[0, top] = h1[top, 0] = 0.25
    h1[top, top] = 1.0
    mol = MolecularHamiltonian(n_spin_orbitals=n, n_electrons=2, core_energy=0.0,
                               h_pq=h1, h_pqrs=np.broadcast_to(0.0, (n,) * 4))
    string = [("Z", q) for q in range(1, top)]
    expected = (QubitOperator.from_word(n, [("X", 0)] + string + [("X", top)], 0.125)
                + QubitOperator.from_word(n, [("Y", 0)] + string + [("Y", top)], 0.125)
                + QubitOperator.identity(n, 0.5)
                + QubitOperator.from_word(n, [("Z", top)], -0.5))
    tracemalloc.start()
    try:
        ham = jw_hamiltonian(mol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (ham - expected).max_abs_coeff() == 0.0
    # The integrals are selected an n^3 slice at a time (about 2.4 MB here);
    # a selection over all n^4 = 1.5e7 of them would take over 100 MB.
    assert peak < 8_000_000


def test_mask_cap_raises_before_allocating():
    n = MAX_MASK_QUBITS + 1
    mol = MolecularHamiltonian(n_spin_orbitals=n, n_electrons=2, core_energy=0.0,
                               h_pq=np.broadcast_to(0.0, (n, n)),
                               h_pqrs=np.broadcast_to(0.0, (n,) * 4))
    tracemalloc.start()
    try:
        with pytest.raises(oada.DimensionCapError, match="mask cap"):
            jw_hamiltonian(mol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
