import numpy as np
import pytest
from scipy.linalg import expm

from oada.pauli import (PauliString, QubitOperator, double_excitation_generator,
                        format_operator, jw_annihilation, jw_creation,
                        jw_hamiltonian, single_excitation_generator)
from oada.fcidump import FcidumpData, to_spin_orbital


def op_equal(a, b, tol=1e-14):
    return (a - b).max_abs_coeff() <= tol


def test_jw_annihilation_no_z_prefix():
    a0 = jw_annihilation(0, 1)
    expected = QubitOperator(1, {PauliString(1, 0): 0.5, PauliString(1, 1): 0.5j})
    assert op_equal(a0, expected)


def test_jw_annihilation_z_prefix():
    a1 = jw_annihilation(1, 2)
    expected = (QubitOperator.from_word(2, [("Z", 0), ("X", 1)], 0.5)
                + QubitOperator.from_word(2, [("Z", 0), ("Y", 1)], 0.5j))
    assert op_equal(a1, expected)


def test_jw_index_out_of_range():
    with pytest.raises(ValueError):
        jw_annihilation(2, 2)


def test_jw_creation_is_adjoint():
    for p in range(3):
        assert op_equal(jw_creation(p, 3), jw_annihilation(p, 3).adjoint())


def test_anticommutation_relations_dense():
    n = 3
    eye = np.eye(1 << n)
    a = [jw_annihilation(p, n).to_dense_matrix() for p in range(n)]
    adag = [jw_creation(p, n).to_dense_matrix() for p in range(n)]
    for p in range(n):
        for q in range(n):
            acomm = a[p] @ adag[q] + adag[q] @ a[p]
            assert np.max(np.abs(acomm - (eye if p == q else 0.0))) < 1e-14
            acomm2 = a[p] @ a[q] + a[q] @ a[p]
            assert np.max(np.abs(acomm2)) < 1e-14


def test_pauli_multiplication_table():
    x = QubitOperator.from_word(1, [("X", 0)])
    y = QubitOperator.from_word(1, [("Y", 0)])
    z = QubitOperator.from_word(1, [("Z", 0)])
    assert op_equal(x @ y, z * 1j)
    assert op_equal(y @ z, x * 1j)
    assert op_equal(z @ x, y * 1j)
    assert op_equal(x @ x, QubitOperator.identity(1))


def test_identity_multiplication():
    rng = np.random.default_rng(3)
    op = _random_operator(rng, n=3, n_terms=5)
    assert op_equal(QubitOperator.identity(3) @ op, op)


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        QubitOperator.identity(2) @ QubitOperator.identity(3)


def test_product_matches_dense_oracle():
    op = jw_creation(0, 2) @ jw_annihilation(1, 2)
    dense = jw_creation(0, 2).to_dense_matrix() @ jw_annihilation(1, 2).to_dense_matrix()
    assert np.max(np.abs(op.to_dense_matrix() - dense)) < 1e-14


def _random_operator(rng, n, n_terms):
    terms = {}
    for _ in range(n_terms):
        s = PauliString(int(rng.integers(1 << n)), int(rng.integers(1 << n)))
        terms[s] = complex(rng.normal(), rng.normal())
    return QubitOperator(n, terms)


def test_multiply_associative_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        ops = [_random_operator(rng, 3, 4) for _ in range(3)]
        left = (ops[0] @ ops[1]) @ ops[2]
        right = ops[0] @ (ops[1] @ ops[2])
        assert op_equal(left, right, tol=1e-12)
        dense = ops[0].to_dense_matrix() @ ops[1].to_dense_matrix() @ ops[2].to_dense_matrix()
        assert np.max(np.abs(left.to_dense_matrix() - dense)) < 1e-12


def test_pruning_threshold():
    tiny = QubitOperator(2, {PauliString(1, 0): 1e-15})
    assert len(tiny) == 0
    diff = QubitOperator.identity(2) - QubitOperator.identity(2)
    assert len(diff) == 0


def test_jw_hamiltonian_h2_term_count(h2):
    assert h2.ham.n_qubits == 4
    assert len(h2.ham) <= 15
    assert h2.ham.is_hermitian(1e-12)


def test_jw_hamiltonian_zero_integrals_is_core_identity():
    data = FcidumpData(norb=2, nelec=2, ms2=0, core_energy=0.77)
    ham = jw_hamiltonian(to_spin_orbital(data))
    assert op_equal(ham, QubitOperator.identity(4, 0.77))


def test_jw_hamiltonian_ground_energy(h2):
    w = np.linalg.eigvalsh(h2.ham.to_dense_matrix())
    assert abs(w[0] - h2.refs["REF_FCI"]) < 1e-8


def test_single_generator_strings():
    # -(i/2)(X_q Y_p - Y_q X_p) for p=1, q=0
    t = single_excitation_generator(1, 0, 2)
    expected = (QubitOperator.from_word(2, [("X", 0), ("Y", 1)], -0.5j)
                + QubitOperator.from_word(2, [("Y", 0), ("X", 1)], 0.5j))
    assert op_equal(t, expected)


def test_double_generator_eight_strings():
    t = double_excitation_generator(2, 3, 0, 1, 4)
    assert len(t) == 8
    for coeff in t.terms.values():
        assert abs(coeff.real) < 1e-15 and abs(abs(coeff.imag) - 0.125) < 1e-15


def test_generators_match_qubit_operator_products():
    def q_minus(p, n):
        return QubitOperator(n, {PauliString(1 << p, 0): 0.5,
                                 PauliString(1 << p, 1 << p): 0.5j})

    def q_plus(p, n):
        return q_minus(p, n).adjoint()

    t = single_excitation_generator(2, 1, 4)
    ref = q_plus(2, 4) @ q_minus(1, 4) - q_plus(1, 4) @ q_minus(2, 4)
    assert op_equal(t, ref)

    t = double_excitation_generator(1, 3, 0, 2, 4)
    ref = (q_plus(1, 4) @ q_plus(3, 4) @ q_minus(0, 4) @ q_minus(2, 4)
           - q_plus(0, 4) @ q_plus(2, 4) @ q_minus(1, 4) @ q_minus(3, 4))
    assert op_equal(t, ref)


def test_generator_cube_and_unitarity():
    # T is anti-hermitian with T^3 = -T, equivalently B = iT satisfies B^3 = B:
    # B^3 = i^3 T^3 = -i T^3, which equals B = iT exactly when T^3 = -T.
    for t_op in (single_excitation_generator(3, 0, 4),
                 double_excitation_generator(2, 3, 0, 1, 4)):
        t = t_op.to_dense_matrix()
        assert np.max(np.abs(t + t.conj().T)) < 1e-14
        assert np.max(np.abs(t @ t @ t + t)) < 1e-14
        b = 1j * t
        assert np.max(np.abs(b @ b @ b - b)) < 1e-14
        u = expm(0.83 * t)
        assert np.max(np.abs(u @ u.conj().T - np.eye(16))) < 1e-12


def test_generator_repeated_indices_rejected():
    with pytest.raises(ValueError):
        single_excitation_generator(1, 1, 4)
    with pytest.raises(ValueError):
        double_excitation_generator(1, 2, 1, 3, 4)


def test_format_operator_deterministic():
    op = (QubitOperator.identity(4, 0.5)
          + QubitOperator.from_word(4, [("X", 0), ("Z", 1), ("Y", 3)], -0.25))
    lines = format_operator(op).splitlines()
    assert lines[0].split()[-1] == "I"
    assert lines[1].endswith("X0 Z1 Y3")
    assert format_operator(op) == format_operator(op)


def test_sparse_matches_dense(h2):
    dense = h2.ham.to_dense_matrix()
    assert np.max(np.abs(h2.ham.to_sparse_matrix().toarray() - dense)) < 1e-13
