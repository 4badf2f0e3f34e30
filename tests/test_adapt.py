import numpy as np
import pytest

import oada
from oada.adapt import (TIE_RTOL, load_ansatz, run_adapt, save_ansatz,
                        screen_energy_gradients, select_operator)
from oada.statevector import (Ansatz, PoolScreen, apply_ansatz, energy_and_gradient,
                              prepare_hf)


def test_screening_vanishes_at_eigenstate(h2):
    state = h2.fci_state()
    grads = screen_energy_gradients(state, h2.full, PoolScreen(state.basis, h2.pool))
    assert np.max(np.abs(grads)) < 1e-8


def test_h2_hf_screening_selects_double_channel(h2):
    hf = prepare_hf(4, 2)
    grads = screen_energy_gradients(hf, h2.full, PoolScreen(hf.basis, h2.pool))
    dense = h2.ham.to_dense_matrix()
    for op, g in zip(h2.pool, grads):
        t = op.generator(4).to_dense_matrix()
        comm = np.vdot(hf.amplitudes, (dense @ t - t @ dense) @ hf.amplitudes).real
        assert abs(g - comm) < 1e-10
        if op.kind == "single":
            assert abs(g) < 1e-12
        else:
            assert abs(g) > 1e-3


def test_screening_matches_finite_difference(h4):
    rng = np.random.default_rng(17)
    base = Ansatz(h4.n, h4.n_electrons)
    for k in rng.integers(len(h4.pool), size=4):
        base.append(h4.pool[int(k)].excitation, rng.uniform(-0.7, 0.7))
    state = apply_ansatz(base)
    grads = screen_energy_gradients(state, h4.full, PoolScreen(state.basis, h4.pool))
    step = 1e-5
    for k in (0, 7, len(h4.pool) - 1):
        probe = base.copy()
        probe.append(h4.pool[k].excitation, 0.0)
        thetas = list(probe.thetas)
        thetas[-1] = step
        ep, _ = energy_and_gradient(probe, h4.full, thetas)
        thetas[-1] = -step
        em, _ = energy_and_gradient(probe, h4.full, thetas)
        assert abs(grads[k] - (ep - em) / (2 * step)) < 1e-6


def test_h2_reaches_fci_within_three_operators(h2):
    ansatz, trace = run_adapt(h2.ham, h2.pool, n_electrons=2,
                              eps=1e-8, max_ops=3, e_ref=h2.e_fci)
    assert len(ansatz) <= 3
    assert abs(trace.final_energy - h2.e_fci) < 1e-8


def test_huge_eps_returns_init_unchanged(h2):
    init = Ansatz(4, 2)
    init.append(h2.pool[0].excitation, 0.25)
    ansatz, trace = run_adapt(h2.ham, h2.pool, init=init, eps=1e3)
    assert trace.records == []
    assert ansatz.excitations == init.excitations
    assert ansatz.thetas == init.thetas
    assert trace.stop_reason == "gradient"


def test_threshold_without_budget_needs_to_be_positive(h2):
    # a gradient stop at eps <= 0 never fires, so without max_ops the loop
    # would append operators forever
    for eps in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="need a stopping rule"):
            run_adapt(h2.ham, h2.pool, n_electrons=2, eps=eps)
    _, trace = run_adapt(h2.ham, h2.pool, n_electrons=2, eps=0.0, max_ops=2)
    assert trace.stop_reason == "budget"


def test_loops_reject_an_operator_on_another_basis(h2):
    with pytest.raises(ValueError, match="another basis"):
        run_adapt(h2.full, h2.pool, n_electrons=2)
    with pytest.raises(ValueError, match="another basis"):
        oada.run_overlap_adapt(h2.fci_state(), h2.pool, 2, n_electrons=2, hamiltonian=h2.full)


def test_trace_invariants(h4):
    _, trace = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                         eps=1e-8, max_ops=8, e_ref=h4.e_fci)
    energies = trace.energies()
    assert np.all(np.diff(energies) <= 1e-12)  # non-increasing with slack
    assert np.all(energies >= h4.e_fci - 1e-10)  # variational bound
    params = [r.n_params for r in trace.records]
    assert params == list(range(1, len(params) + 1))
    for rec in trace.records:
        sq = sum(1 for k in range(rec.n_params) if trace.records[k].kind == "single")
        assert rec.cnots == 3 * sq + 13 * (rec.n_params - sq)


def test_deterministic_trace(h4):
    _, t1 = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                      eps=1e-8, max_ops=6, e_ref=h4.e_fci)
    _, t2 = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                      eps=1e-8, max_ops=6, e_ref=h4.e_fci)
    assert t1.to_csv() == t2.to_csv()


def test_warm_start_continuation(h4):
    # a run continued from its own output matches a single longer run
    a1, t1 = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                       eps=1e-8, max_ops=3)
    a2, t2 = run_adapt(h4.ham, h4.pool, init=a1, eps=1e-8, max_ops=6)
    full, tfull = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                            eps=1e-8, max_ops=6)
    assert [e.indices() for e in a2.excitations] == \
        [e.indices() for e in full.excitations]
    assert abs(t2.final_energy - tfull.final_energy) < 1e-9


def test_csv_header_and_shape(h2):
    numpy_e_ref = np.linalg.eigvalsh(h2.ham.to_dense_matrix())[0]
    for e_ref in (None, numpy_e_ref):
        _, trace = run_adapt(h2.ham, h2.pool, n_electrons=2, eps=1e-8, max_ops=2,
                             e_ref=e_ref)
        lines = trace.to_csv().splitlines()
        assert lines[0] == ("stage,iter,op_id,kind,grad,energy,error_vs_fci,infidelity,"
                            "params,cnots,evals,stop")
        assert all(len(line.split(",")) == 12 for line in lines[1:])
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] == "energy"
            assert cells[-1] in ("gtol", "floor", "line search", "max_iter")
            for column, cell in enumerate(cells[1:-1], start=1):
                if column != 3:  # kind
                    float(cell)


def test_ansatz_file_round_trip(tmp_path, h4):
    ansatz, _ = run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                          eps=1e-8, max_ops=4)
    path = tmp_path / "ansatz.txt"
    save_ansatz(ansatz, path)
    loaded = load_ansatz(path)
    assert loaded.n_qubits == ansatz.n_qubits
    assert loaded.n_electrons == ansatz.n_electrons
    assert loaded.excitations == ansatz.excitations
    assert loaded.thetas == ansatz.thetas


def test_load_ansatz_rejects_bad_lines(tmp_path):
    path = tmp_path / "ansatz.txt"
    path.write_text("n_qubits=4 n_electrons=2\ntriple 0 1 2 0.1\n")
    with pytest.raises(oada.FcidumpError, match=":2:"):
        load_ansatz(path)
    path.write_text("qubits=4\n")
    with pytest.raises(oada.FcidumpError, match="header"):
        load_ansatz(path)


def test_stretched_beh2_plateau_and_compression(beh2_stretched):
    # the 50-operator cold start stays above chemical accuracy on this
    # strongly correlated system, and recompressing the same ansatz through
    # the overlap stage beats it by far (quoted improvement: an order of
    # magnitude at the stretched geometry)
    problem = beh2_stretched
    ansatz, trace = run_adapt(problem.ham, problem.pool,
                              n_electrons=problem.n_electrons,
                              eps=1e-8, max_ops=50, e_ref=problem.e_fci)
    plain_error = trace.final_energy - problem.e_fci
    assert plain_error > 1e-3

    result = oada.pipeline(problem.mol, problem.ham, problem.pool,
                           "adapt-ansatz", 20, 50, target_ansatz=ansatz,
                           e_ref=problem.e_fci)
    compressed_error = result.adapt_trace.final_energy - problem.e_fci
    assert compressed_error < plain_error / 3


def test_select_operator_breaks_near_ties_to_the_lowest_id():
    g = 0.0879615911
    assert select_operator(np.array([0.01, g, -g * (1 + 1e-9), 0.02])) == 1
    assert select_operator(np.array([0.01, -g * (1 - 1e-9), g, 0.02])) == 1
    assert select_operator(np.array([0.01, g * (1 - 1e-4), -g, 0.02])) == 2
    assert select_operator(np.array([0.01, -g, g * (1 - 1e-4), 0.02])) == 1


def test_stretched_beh2_symmetry_twins_go_to_the_lower_id(beh2_stretched):
    # after six operators the doubles 8 and 12 are symmetry twins whose
    # gradients the optimizer's stopping point leaves a few 1e-9 apart
    problem = beh2_stretched
    ansatz, _ = run_adapt(problem.sector, problem.pool,
                          n_electrons=problem.n_electrons, eps=1e-8, max_ops=6)
    psi = apply_ansatz(ansatz, basis=problem.sector.basis)
    grads = np.abs(screen_energy_gradients(psi, problem.sector,
                                           PoolScreen(psi.basis, problem.pool)))
    assert abs(grads[8] - grads[12]) <= TIE_RTOL * grads[8]
    assert problem.pool[select_operator(grads)].id == 8


# Operators the 30-operator H6 cold start selects, identical with and
# without the inverse Hessian carried between iterations.
H6_ADAPT_30_IDS = [80, 116, 46, 33, 18, 94, 65, 33, 80, 102, 11, 50, 99, 63, 112,
                   116, 11, 52, 80, 33, 46, 65, 13, 11, 80, 13, 94, 11, 6, 20]
# Operators the two pipeline benchmark workloads select, (overlap stage,
# energy stage); both stages stop by budget. Checked with the workloads'
# evaluation counts in test_optimizer.py, which runs them.
H6_CIPSI_PIPELINE_IDS = ([108, 80, 26, 36, 58, 67, 44, 108, 26, 88,
                          58, 99, 44, 67, 108, 13, 99, 80, 13, 16],
                         [8, 63, 112, 22, 33, 36, 110, 11, 102, 108])
BEH2_FCI_PIPELINE_IDS = ([188, 143, 135, 140, 8, 12, 153, 172, 19, 23],
                         [188, 146, 184, 128, 203, 91, 96, 200, 195, 99])


def test_h6_inverse_hessian_reuse_keeps_the_sequence_and_saves_evaluations(h6):
    # restarting every solve from the identity takes 1,252 evaluations here;
    # carrying the inverse Hessian takes about half
    _, trace = run_adapt(h6.sector, h6.pool, n_electrons=h6.n_electrons,
                         eps=1e-8, max_ops=30)
    assert [r.op_id for r in trace.records] == H6_ADAPT_30_IDS
    assert sum(r.n_evaluations for r in trace.records) < 900
