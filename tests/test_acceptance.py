"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 6's target-quality clause is implemented exactly as
stated and is a known, analyzed failure (see "Acceptance suite" in the
README): the 50-determinant CIPSI space contains the 20-determinant one,
whose E_v error is already 8.43e-4 Ha, so the variational principle keeps
the 50-determinant error an order of magnitude below the stated bound.
"""

import numpy as np
import pytest

import oada
from oada.ci import run_cipsi, cipsi_initial_state, cipsi_iterate
from oada.overlap_adapt import four_angle_gradient, screen_overlap_gradients
from oada.pauli import jw_annihilation, jw_creation
from oada.statevector import (Ansatz, Basis, PoolScreen, apply_ansatz, energy_and_gradient,
                              overlap, overlap_and_gradient)


def report(criterion, ok, detail):
    print(f"\n{'PASS' if ok else 'FAIL'}: criterion {criterion} — {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence(h2, h4):
    worst = 0.0
    for problem in (h2, h4):
        dense = problem.ham.to_dense_matrix()
        indices = Basis.sector(problem.n, problem.n_electrons).masks
        dets = indices.tolist()
        sc = np.array([[oada.slater_condon(problem.mol, bi, bj) for bj in dets]
                       for bi in dets])
        dev = np.max(np.abs(dense[np.ix_(indices, indices)].real - sc))
        worst = max(worst, dev)
        assert dev < 1e-10
        e_dense = np.linalg.eigvalsh(dense[np.ix_(indices, indices)])[0].real
        e_sc = problem.e_fci
        assert abs(e_dense - problem.refs["REF_FCI"]) < 1e-8
        assert abs(e_sc - problem.refs["REF_FCI"]) < 1e-8
    report(1, True, f"dense qubit matrix vs Slater-Condon, max dev {worst:.1e}; "
           "both FCI routes match the fixture references to 1e-8 Ha")


def test_criterion_2_algebraic_invariants(h2, h4):
    # Jordan-Wigner anticommutation, dense, N <= 4
    n = 4
    eye = np.eye(1 << n)
    a = [jw_annihilation(p, n).to_dense_matrix() for p in range(n)]
    adag = [jw_creation(p, n).to_dense_matrix() for p in range(n)]
    dev = 0.0
    for p in range(n):
        for q in range(n):
            dev = max(dev, np.max(np.abs(a[p] @ adag[q] + adag[q] @ a[p]
                                         - (eye if p == q else 0.0))))
            dev = max(dev, np.max(np.abs(a[p] @ a[q] + a[q] @ a[p])))
    assert dev < 1e-14

    # generator cube and the exponential identity, 20 random angles each,
    # tol 1e-12. T is anti-hermitian, so the cube reads T^3 = -T; that is
    # the same identity as B^3 = B for the hermitian B = iT, because
    # B^3 = i^3 T^3 = -i T^3 equals B = iT exactly when T^3 = -T.
    rng = np.random.default_rng(5)
    worst = 0.0
    for problem in (h2, h4):
        eye = np.eye(1 << problem.n)
        for op in problem.pool:
            t = op.generator(problem.n).to_dense_matrix()
            b = 1j * t
            worst = max(worst, np.max(np.abs(b @ b @ b - b)))
            worst = max(worst, np.max(np.abs(t @ t @ t + t)))
            b2 = b @ b
            # b is Hermitian: exp(-i theta b) from one eigendecomposition
            w, v = np.linalg.eigh(b)
            for theta in rng.uniform(-np.pi, np.pi, size=20):
                lhs = (v * np.exp(-1j * theta * w)) @ v.conj().T
                rhs = eye + (np.cos(theta) - 1) * b2 - 1j * np.sin(theta) * b
                worst = max(worst, np.max(np.abs(lhs - rhs)))
            assert worst < 1e-12
    report(2, True, f"anticommutators exact (dev {dev:.1e}); generator cube and "
           f"exponential identity within {worst:.1e}")


def test_criterion_3_gradient_correctness(h2, h4):
    rng = np.random.default_rng(42)
    step = 1e-5
    worst_fd = 0.0
    worst_fa = 0.0
    checked_fa = 0
    for case in range(50):
        problem = h2 if case % 2 else h4
        target = problem.fci_state()
        m = int(rng.integers(1, 11))
        ansatz = Ansatz(problem.n, problem.n_electrons)
        for _ in range(m):
            op = problem.pool[int(rng.integers(len(problem.pool)))]
            ansatz.append(op.excitation, float(rng.uniform(-1.2, 1.2)))

        _, e_grad = energy_and_gradient(ansatz, problem.full)
        _, f_grad = overlap_and_gradient(ansatz, target)
        for k in range(m):
            up = list(ansatz.thetas)
            up[k] += step
            down = list(ansatz.thetas)
            down[k] -= step
            ep, _ = energy_and_gradient(ansatz, problem.full, up)
            em, _ = energy_and_gradient(ansatz, problem.full, down)
            worst_fd = max(worst_fd, abs(e_grad[k] - (ep - em) / (2 * step)))
            fp, _ = overlap_and_gradient(ansatz, target, up)
            fm, _ = overlap_and_gradient(ansatz, target, down)
            worst_fd = max(worst_fd, abs(f_grad[k] - (fp - fm) / (2 * step)))
        assert worst_fd < 1e-6

        state = apply_ansatz(ansatz)
        if abs(overlap(target, state)) > 1e-6:
            direct = screen_overlap_gradients(target, state,
                                              PoolScreen(state.basis, problem.pool[:5]))
            for op, d in zip(problem.pool[:5], direct):
                fa = four_angle_gradient(target, state, op.excitation)
                worst_fa = max(worst_fa, abs(fa - d))
                checked_fa += 1
            assert worst_fa < 1e-10
    report(3, True, f"50 randomized ansatze: FD deviation {worst_fd:.1e} (< 1e-6); "
           f"four-angle vs direct {worst_fa:.1e} over {checked_fa} cases (< 1e-10)")


def test_criterion_4_h2_exactness(h2):
    ansatz, trace = oada.run_adapt(h2.ham, h2.pool, n_electrons=2,
                                   eps=1e-8, max_ops=3, e_ref=h2.e_fci)
    error = abs(trace.final_energy - h2.e_fci)
    ok = len(ansatz) <= 3 and error < 1e-8
    report(4, ok, f"|E - E_FCI| = {error:.2e} Ha with {len(ansatz)} operator(s)")


def test_criterion_5_h6_infidelity_ordering(h6_infidelity_curves):
    adapt_infid, oa_infid = h6_infidelity_curves
    assert len(adapt_infid) == len(oa_infid) == 50
    violations = [m + 1 for m in range(50) if oa_infid[m] > adapt_infid[m] + 1e-9]
    strict = oa_infid[49] < adapt_infid[49]
    ok = not violations and strict
    report(5, ok, f"overlap-guided infidelity <= energy-driven at all 50 counts "
           f"(violations: {violations}); at 50 operators {oa_infid[49]:.3e} vs "
           f"{adapt_infid[49]:.3e}")


def test_criterion_6_h6_headline(h6, h6_cipsi_pipeline, h6_adapt_50):
    result = h6_cipsi_pipeline
    crossing = next((rec.n_params for rec in result.adapt_trace.records
                     if rec.error_vs_ref < 1e-3), None)
    _, plain = h6_adapt_50
    plain_error = plain.final_energy - h6.e_fci
    ok = crossing is not None and crossing <= 45 and plain_error > 1e-3
    report(6, ok, f"pipeline (CIPSI-50 target, overlap to 20) reaches chemical "
           f"accuracy at {crossing} parameters (<= 45); plain adaptive run at 50 "
           f"parameters sits at {plain_error:.3e} Ha (> 1e-3)")


def test_criterion_6_cipsi_target_quality_as_stated(h6):
    # Stated clause: the 50-determinant CIPSI target has E_v error > 1e-2 Ha.
    # Known red: the 50-determinant CIPSI space contains the 20-determinant
    # one, whose E_v error on this fixture is already 8.43e-4 Ha, so the
    # variational principle caps the 50-determinant error below the stated
    # bound. Analysis under "Acceptance suite" in the README; the operative
    # headline above does not depend on it.
    state = run_cipsi(h6.sector, max_dets=50)
    error = state.e_variational - h6.e_fci
    report("6 (target-quality clause)", error > 1e-2,
           f"CIPSI(50) E_v error = {error:.3e} Ha, stated bound > 1e-2 Ha")


def test_criterion_7_resource_accounting(h6_adapt_50, h6_overlap_50, h6_cipsi_pipeline):
    produced = [h6_adapt_50[0], h6_overlap_50[0], h6_cipsi_pipeline.ansatz]
    for ansatz in produced:
        assert len(ansatz) == 50
        sq, dq, cnots = oada.ansatz_resource_counts(ansatz.excitations)
        assert cnots == 3 * sq + 13 * dq
    quoted = [(0, 50, 650), (8, 42, 570), (17, 33, 480)]
    for sq, dq, expected in quoted:
        assert 3 * sq + 13 * dq == expected
    report(7, True, "CNOTs = 3*SQ + 13*DQ for all produced 50-operator ansatze; "
           "quoted rows 650/570/480 reproduce from their SQ/DQ splits")


def test_criterion_8_monotonicity_and_variational(h6, h6_adapt_50, h6_overlap_50,
                                                  h6_cipsi_pipeline):
    for _, trace in (h6_adapt_50,):
        energies = trace.energies()
        assert np.all(np.diff(energies) <= 1e-12)
        assert np.all(energies >= h6.e_fci - 1e-10)
    pipeline_energies = h6_cipsi_pipeline.adapt_trace.energies()
    assert np.all(np.diff(pipeline_energies) <= 1e-12)
    assert np.all(pipeline_energies >= h6.e_fci - 1e-10)
    infids = [rec.infidelity for rec in h6_overlap_50[1].records]
    assert all(b <= a + 1e-12 for a, b in zip(infids, infids[1:]))
    overlap_energies = [rec.energy for rec in h6_overlap_50[1].records]
    assert all(e >= h6.e_fci - 1e-10 for e in overlap_energies)

    state = cipsi_initial_state(h6.sector)
    previous = state.e_variational
    while len(state.dets) < 400:
        state = cipsi_iterate(state, h6.sector)
        assert state.e_variational <= previous + 1e-12
        assert state.e_variational >= h6.e_fci - 1e-10
        previous = state.e_variational
        if state.e_pt2 == 0.0:
            break
    report(8, True, "all adaptive traces monotone (1e-12 slack), all energies "
           ">= E_FCI - 1e-10, CIPSI E_v non-increasing and variational")


def test_criterion_9_determinism(h6, h6_adapt_50):
    _, first = h6_adapt_50
    _, second = oada.run_adapt(h6.ham, h6.pool, n_electrons=h6.n_electrons,
                               eps=1e-8, max_ops=50, e_ref=h6.e_fci)
    ok = first.to_csv() == second.to_csv()
    report(9, ok, "re-running the 50-operator H6 trace reproduces the CSV "
           "byte-for-byte")
