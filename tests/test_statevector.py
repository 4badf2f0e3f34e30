import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import oada
from oada.adapt import screen_energy_gradients
from oada.overlap_adapt import screen_overlap_gradients
from oada.pauli import QubitOperator, single_excitation_generator
from oada.pool import DoubleExcitation, SingleExcitation
from oada.statevector import (Ansatz, Basis, PoolScreen, ProjectedOperator, Statevector,
                              apply_ansatz, apply_excitation, energy_and_gradient,
                              expectation, format_state, overlap, overlap_and_gradient,
                              prepare_hf)
from reference_kernels import pair_bracket, pool_brackets


def test_prepare_hf_examples():
    s = prepare_hf(4, 2)
    assert s.amplitudes[0b0011] == 1.0 and np.sum(np.abs(s.amplitudes)) == 1.0
    vac = prepare_hf(2, 0)
    assert vac.amplitudes[0] == 1.0
    h6 = prepare_hf(12, 6)
    assert h6.amplitudes[0b000000111111] == 1.0


def test_prepare_hf_too_many_electrons():
    with pytest.raises(ValueError):
        prepare_hf(2, 3)


def test_qubit_cap_guard():
    with pytest.raises(ValueError, match="24"):
        Statevector(25)


def test_zero_angle_is_identity():
    rng = np.random.default_rng(0)
    state = Statevector(4, rng.normal(size=16))
    out = apply_excitation(state, SingleExcitation(2, 0), 0.0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_single_excitation_quarter_turn():
    # |01> (orbital 0 occupied) rotates fully onto |10> at theta = pi/2
    state = Statevector(2, np.array([0.0, 1.0, 0.0, 0.0]))
    out = apply_excitation(state, SingleExcitation(1, 0), np.pi / 2)
    assert abs(out.amplitudes[0b10] - 1.0) < 1e-12
    # dense matrix exponential oracle
    t = oada.pauli.single_excitation_generator(1, 0, 2).to_dense_matrix()
    ref = expm((np.pi / 2) * t) @ state.amplitudes
    assert np.max(np.abs(out.amplitudes - ref)) < 1e-12


def test_double_excitation_annihilates_missing_occupation():
    # bit r = 0 in the state: amplitude untouched for any angle
    state = Statevector(4)
    state.amplitudes[0b0010] = 1.0  # orbital 1 occupied only
    out = apply_excitation(state, DoubleExcitation(2, 3, 0, 1), 1.234)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_ansatz_empty_and_zero_angles():
    ansatz = Ansatz(4, 2)
    assert np.array_equal(apply_ansatz(ansatz).amplitudes, prepare_hf(4, 2).amplitudes)
    ansatz.append(SingleExcitation(2, 0), 0.0)
    ansatz.append(DoubleExcitation(2, 3, 0, 1), 0.0)
    assert np.array_equal(apply_ansatz(ansatz).amplitudes, prepare_hf(4, 2).amplitudes)


def test_one_operator_ansatz_dense_oracle():
    theta = -0.61
    ansatz = Ansatz(4, 2)
    ansatz.append(DoubleExcitation(2, 3, 0, 1), theta)
    t = oada.pauli.double_excitation_generator(2, 3, 0, 1, 4).to_dense_matrix()
    ref = expm(theta * t) @ prepare_hf(4, 2).amplitudes
    assert np.max(np.abs(apply_ansatz(ansatz).amplitudes - ref)) < 1e-12


def test_expectation_hf_and_fci(h2):
    hf = prepare_hf(4, 2)
    assert abs(expectation(hf, h2.ham) - h2.refs["REF_HF"]) < 1e-10
    assert abs(expectation(hf, h2.full) - h2.refs["REF_HF"]) < 1e-10
    ground = h2.fci_state()
    assert abs(expectation(ground, h2.full) - h2.refs["REF_FCI"]) < 1e-8


def test_expectation_identity_scaling():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8)
    state = Statevector(3, amps / np.linalg.norm(amps))
    assert abs(expectation(state, QubitOperator.identity(3, -2.5)) + 2.5) < 1e-12


def test_expectation_rejects_non_hermitian():
    state = prepare_hf(2, 1)
    bad = QubitOperator.from_word(2, [("Z", 0)], 1j)  # anti-hermitian
    with pytest.raises(ValueError, match="not hermitian"):
        expectation(state, bad)


def test_projecting_a_generator_is_refused():
    # T is anti-hermitian; its sector matrix is real, so only the check stops it.
    state = prepare_hf(2, 1)
    generator = single_excitation_generator(1, 0, 2)
    assert not generator.is_hermitian()
    with pytest.raises(ValueError, match="not hermitian"):
        expectation(state, generator)
    with pytest.raises(ValueError, match="not hermitian"):
        Basis.sector(4, 2).project(single_excitation_generator(2, 0, 4))
    dense = generator.to_dense_matrix()  # general operators still realize
    assert np.allclose(dense, -dense.T) and np.any(dense)


def test_expectation_size_mismatch():
    with pytest.raises(ValueError):
        expectation(prepare_hf(3, 1), QubitOperator.identity(2))


def test_overlap_basics():
    rng = np.random.default_rng(9)
    amps = rng.normal(size=16)
    psi = Statevector(4, amps / np.linalg.norm(amps))
    assert abs(overlap(psi, psi) - 1.0) < 1e-12
    a = Statevector(2, np.array([1.0, 0.0, 0.0, 0.0]))
    b = Statevector(2, np.array([0.0, 0.0, 1.0, 0.0]))
    assert overlap(a, b) == 0.0 and type(overlap(a, b)) is float
    with pytest.raises(ValueError):
        overlap(a, psi)


def test_hf_overlap_cosine_law():
    hf = prepare_hf(4, 2)
    for theta in np.linspace(-np.pi, np.pi, 9):
        rotated = apply_excitation(hf, DoubleExcitation(2, 3, 0, 1), theta)
        assert abs(abs(overlap(hf, rotated)) - abs(np.cos(theta))) < 1e-12


def _random_ansatz(rng, pool, n_qubits, n_electrons, m):
    ansatz = Ansatz(n_qubits, n_electrons)
    for _ in range(m):
        op = pool[rng.integers(len(pool))]
        ansatz.append(op.excitation, rng.uniform(-1.5, 1.5))
    return ansatz


def test_energy_gradient_zero_matches_commutator(h2):
    # at theta = 0 the gradient is <HF|[H, T]|HF>, brute-forced densely
    pool = h2.pool
    ansatz = Ansatz(4, 2)
    for op in pool:
        ansatz.append(op.excitation, 0.0)
    _, grad = energy_and_gradient(ansatz, h2.full)
    dense = h2.ham.to_dense_matrix()
    hf = prepare_hf(4, 2).amplitudes
    for k, op in enumerate(pool):
        t = op.generator(4).to_dense_matrix()
        comm = np.vdot(hf, (dense @ t - t @ dense) @ hf).real
        assert abs(grad[k] - comm) < 1e-10


def test_energy_gradient_finite_difference(h4):
    rng = np.random.default_rng(21)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 3)
    value, grad = energy_and_gradient(ansatz, h4.full)
    for k in range(len(ansatz)):
        step = 1e-5
        up = list(ansatz.thetas)
        up[k] += step
        down = list(ansatz.thetas)
        down[k] -= step
        ep, _ = energy_and_gradient(ansatz, h4.full, up)
        em, _ = energy_and_gradient(ansatz, h4.full, down)
        assert abs(grad[k] - (ep - em) / (2 * step)) < 1e-6


def test_energy_gradient_identity_hamiltonian():
    ansatz = Ansatz(4, 2)
    ansatz.append(DoubleExcitation(2, 3, 0, 1), 0.4)
    identity = Basis.full(4).project(QubitOperator.identity(4, 3.0))
    value, grad = energy_and_gradient(ansatz, identity)
    assert abs(value - 3.0) < 1e-12
    assert np.max(np.abs(grad)) < 1e-12


def test_energy_gradient_type_error(h2):
    ansatz = Ansatz(4, 2)
    ansatz.append(DoubleExcitation(2, 3, 0, 1), 0.4)
    for operator in (h2.ham, h2.full.matrix, h2.full.matrix.toarray()):
        with pytest.raises(TypeError, match="ProjectedOperator"):
            energy_and_gradient(ansatz, operator)


def test_project_takes_qubit_operators_and_its_own_projections(h2):
    full = Basis.full(4)
    assert full.project(h2.full) is h2.full
    with pytest.raises(TypeError, match="unsupported operator type"):
        full.project(h2.full.matrix)
    with pytest.raises(ValueError, match="another basis"):
        Basis.sector(4, 2).project(h2.full)


def test_a_statevector_refuses_complex_amplitudes():
    with pytest.raises(ValueError, match="must be real"):
        Statevector(2, np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))


def test_a_projected_operator_refuses_a_complex_matrix(h2):
    with pytest.raises(ValueError, match="must be real, not complex128"):
        ProjectedOperator(h2.full.basis, h2.full.matrix.astype(complex))


def test_projecting_y_is_refused():
    # hermitian, with the imaginary matrix [[0, -i], [i, 0]]
    y = QubitOperator.from_word(1, [("Y", 0)])
    assert y.is_hermitian()
    with pytest.raises(ValueError, match="imaginary matrix entries"):
        Basis.full(1).project(y)


def test_overlap_gradient_trivial_and_fd(h4):
    hf = prepare_hf(h4.n, h4.n_electrons)
    empty = Ansatz(h4.n, h4.n_electrons)
    value, grad = overlap_and_gradient(empty, hf)
    assert value == 1.0 and len(grad) == 0

    rng = np.random.default_rng(31)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 4)
    target = h4.fci_state()
    value, grad = overlap_and_gradient(ansatz, target)
    assert 0.0 <= value <= 1.0 + 1e-12
    for k in range(len(ansatz)):
        step = 1e-5
        up = list(ansatz.thetas)
        up[k] += step
        down = list(ansatz.thetas)
        down[k] -= step
        fp, _ = overlap_and_gradient(ansatz, target, up)
        fm, _ = overlap_and_gradient(ansatz, target, down)
        assert abs(grad[k] - (fp - fm) / (2 * step)) < 1e-6


def test_overlap_orthogonal_target_is_zero():
    # target outside the particle-number sector the ansatz can reach
    target = Statevector(4)
    target.amplitudes[0b0001] = 1.0  # one electron, ansatz sector has two
    ansatz = Ansatz(4, 2)
    ansatz.append(DoubleExcitation(2, 3, 0, 1), 0.7)
    value, grad = overlap_and_gradient(ansatz, target)
    assert value == 0.0
    assert np.max(np.abs(grad)) < 1e-14


def test_norm_and_sector_preserved_over_random_sequence(h4):
    rng = np.random.default_rng(77)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 100)
    state = apply_ansatz(ansatz)
    assert abs(state.norm() - 1.0) < 1e-10
    for index, amp in enumerate(state.amplitudes):
        if index.bit_count() != h4.n_electrons:
            assert amp == 0.0  # excitations preserve set-bit count exactly


def test_inverse_rotation_roundtrip(h4):
    rng = np.random.default_rng(13)
    state = Statevector(h4.n, rng.normal(size=1 << h4.n))
    state.amplitudes /= state.norm()
    for op in h4.pool[:20]:
        theta = rng.uniform(-np.pi, np.pi)
        back = apply_excitation(apply_excitation(state, op.excitation, theta),
                                op.excitation, -theta)
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) < 1e-12


def test_format_state():
    state = prepare_hf(2, 1)
    lines = format_state(state).splitlines()
    assert lines == [f"1 {1.0: .16e}"]


@pytest.mark.parametrize("n_qubits", [0, 1, 4])
def test_full_basis_index_matches_search(n_qubits):
    basis = Basis.full(n_qubits)
    masks = np.array([-(1 << 40), -1, 0, 1, 3, 15, 16, 17, 1 << 40, (1 << 62) + 5],
                     dtype=np.int64)
    pos = np.minimum(np.searchsorted(basis.masks, masks), basis.dim - 1)
    expected = np.where(basis.masks[pos] == masks, pos, -1)
    assert np.array_equal(basis.index(masks), expected)
    assert np.array_equal(basis.index(basis.masks), np.arange(basis.dim))


def _random_state(rng, n_qubits):
    amps = rng.normal(size=1 << n_qubits)
    return Statevector(n_qubits, amps / np.linalg.norm(amps))


def test_pool_screens_match_the_per_operator_bracket(h4):
    rng = np.random.default_rng(5)
    state, target = _random_state(rng, h4.n), _random_state(rng, h4.n)
    basis = state.basis
    h_psi = h4.full.matrix @ state.amplitudes
    pairs = [basis.pairs(op.excitation) for op in h4.pool]
    energy = [2.0 * pair_bracket(h_psi, state.amplitudes, p) for p in pairs]
    overlap_grads = [abs(pair_bracket(target.amplitudes, state.amplitudes, p))
                     for p in pairs]
    plan = PoolScreen(basis, h4.pool)
    assert np.max(np.abs(screen_energy_gradients(state, h4.full, plan) - energy)) < 1e-14
    assert np.max(np.abs(screen_overlap_gradients(target, state, plan)
                         - overlap_grads)) < 1e-14


def test_pool_screens_of_an_operator_without_pairs_are_zero(h2):
    # one alpha electron and no beta one: only the alpha single (2 <- 0)
    # couples states, the beta single and the double have no pairs
    basis = Basis.sector(4, 1)
    rng = np.random.default_rng(3)
    state, target = (Statevector(4, rng.normal(size=basis.dim), basis) for _ in range(2))
    plan = PoolScreen(basis, h2.pool)
    for grads in (screen_energy_gradients(state, h2.ham, plan),
                  screen_overlap_gradients(target, state, plan)):
        assert grads[0] != 0.0 and grads[1] == grads[2] == 0.0


def test_pairs_are_one_contiguous_int64_array(h4):
    for basis in (Basis.full(h4.n), Basis.sector(h4.n, h4.n_electrons)):
        for op in h4.pool:
            pairs = basis.pairs(op.excitation)
            assert pairs.dtype == np.int64 and pairs.flags.c_contiguous
            assert pairs.ndim == 2 and pairs.shape[0] == 2


def test_gradient_sweeps_leave_their_inputs_alone(h4):
    rng = np.random.default_rng(9)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 6)
    thetas = list(ansatz.thetas)
    target = _random_state(rng, h4.n)
    amplitudes = target.amplitudes.copy()
    overlap_and_gradient(ansatz, target)
    assert target.amplitudes.tobytes() == amplitudes.tobytes()
    energy_and_gradient(ansatz, h4.full)
    assert ansatz.thetas == thetas


@pytest.mark.parametrize("name", ["h6", "beh2_stretched", "n2"])
def test_pool_screen_brackets_are_bit_identical_to_the_reference(name, request):
    problem = request.getfixturevalue(name)
    basis = Basis.sector(problem.n, problem.n_electrons)
    excitations = [op.excitation for op in problem.pool]
    plan = PoolScreen(basis, problem.pool)
    rng = np.random.default_rng(11)
    for _ in range(3):  # the buffers are reused from the second call on
        left, right = rng.normal(size=(2, basis.dim))
        assert np.array_equal(plan.brackets(left, right),
                              pool_brackets(left, right, basis, excitations))


def test_pool_screen_calls_return_independent_arrays(h6):
    basis = Basis.sector(h6.n, h6.n_electrons)
    plan = PoolScreen(basis, h6.pool)
    rng = np.random.default_rng(13)
    first = plan.brackets(*rng.normal(size=(2, basis.dim)))
    kept = first.copy()
    second = plan.brackets(*rng.normal(size=(2, basis.dim)))
    assert np.array_equal(first, kept) and not np.array_equal(first, second)


def test_pool_screen_brackets_refuse_vectors_of_another_length(h4):
    # a clipped gather would read a 3- or 37-amplitude vector of this
    # 36-state sector without a word
    plan = PoolScreen(h4.sector.basis, h4.pool)
    good = np.ones(plan.basis.dim)
    for bad in (np.ones(3), np.ones(plan.basis.dim + 1), np.ones((1, plan.basis.dim))):
        for left, right in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=f"length {plan.basis.dim}"):
                plan.brackets(left, right)


def test_pool_screen_brackets_refuse_complex_vectors(h4):
    # a gather into the float buffers would drop the imaginary part
    plan = PoolScreen(h4.sector.basis, h4.pool)
    good = np.ones(plan.basis.dim)
    bad = good + 1j
    for left, right in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="real vectors"):
            plan.brackets(left, right)


def test_a_screen_with_a_built_plan_allocates_nothing_pool_sized(beh2_stretched):
    # the per-call lookup, concatenation and gathers took 1.93 MB per screen
    h = beh2_stretched.sector
    plan = PoolScreen(h.basis, beh2_stretched.pool)
    state = Statevector(h.n_qubits, np.random.default_rng(14).normal(size=h.basis.dim),
                        h.basis)
    screen_energy_gradients(state, h, plan)  # sizes the buffers
    tracemalloc.start()
    try:
        screen_energy_gradients(state, h, plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_each_growth_stage_builds_one_pool_screen(h4, monkeypatch):
    built = []
    init = PoolScreen.__init__

    def counting(self, basis, pool):
        built.append(len(pool))
        init(self, basis, pool)

    monkeypatch.setattr(PoolScreen, "__init__", counting)
    oada.run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons, eps=1e-8, max_ops=3)
    assert built == [len(h4.pool)]
    built.clear()
    oada.pipeline(h4.mol, h4.ham, h4.pool, "fci", 2, 4)
    assert built == [len(h4.pool)] * 2  # one plan per stage


def test_a_pool_screen_refuses_a_state_of_another_basis(h4):
    plan = PoolScreen(Basis.sector(h4.n, h4.n_electrons), h4.pool)
    state = prepare_hf(h4.n, h4.n_electrons)  # in the full basis
    with pytest.raises(ValueError, match="another basis"):
        screen_energy_gradients(state, h4.full, plan)
    with pytest.raises(ValueError, match="another basis"):
        screen_overlap_gradients(state, state, plan)


def test_an_empty_pool_screens_to_nothing_and_is_refused_by_the_loops(h4):
    state = prepare_hf(h4.n, h4.n_electrons, Basis.sector(h4.n, h4.n_electrons))
    assert PoolScreen(state.basis, []).brackets(state.amplitudes,
                                                state.amplitudes).shape == (0,)
    assert screen_energy_gradients(state, h4.ham, PoolScreen(state.basis, [])).shape == (0,)
    with pytest.raises(ValueError, match="energy pool is empty"):
        oada.run_adapt(h4.ham, [], n_electrons=h4.n_electrons)
    with pytest.raises(ValueError, match="overlap pool is empty"):
        oada.run_overlap_adapt(state, [], 3, n_electrons=h4.n_electrons)
