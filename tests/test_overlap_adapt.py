import numpy as np
import pytest

import oada
from oada.adapt import CSV_HEADER
from oada.overlap_adapt import (four_angle_gradient, pipeline, run_overlap_adapt,
                                screen_overlap_gradients)
from oada.statevector import (Ansatz, PoolScreen, Statevector, apply_excitation,
                              overlap, overlap_and_gradient, prepare_hf)


def test_screening_zero_at_hf_on_hf(h4):
    hf = prepare_hf(h4.n, h4.n_electrons)
    grads = screen_overlap_gradients(hf, hf, PoolScreen(hf.basis, h4.pool))
    assert np.max(np.abs(grads)) == 0.0


def _random_real_state(rng, n_qubits, n_electrons):
    amps = np.zeros(1 << n_qubits)
    for i in range(1 << n_qubits):
        if i.bit_count() == n_electrons:
            amps[i] = rng.normal()
    amps /= np.linalg.norm(amps)
    return Statevector(n_qubits, amps)


def test_screening_matches_finite_difference():
    rng = np.random.default_rng(2)
    pool = oada.build_pool(4, 2)
    ref = _random_real_state(rng, 4, 2)
    state = _random_real_state(rng, 4, 2)
    grads = np.abs(screen_overlap_gradients(ref, state, PoolScreen(state.basis, pool)))
    step = 1e-6
    for op, g in zip(pool, grads):
        up = overlap(ref, apply_excitation(state, op.excitation, step))
        down = overlap(ref, apply_excitation(state, op.excitation, -step))
        fd = abs((up - down) / (2 * step))
        assert abs(g - fd) < 1e-8


def test_four_angle_matches_direct():
    rng = np.random.default_rng(8)
    pool = oada.build_pool(6, 2)
    for _ in range(4):
        ref = _random_real_state(rng, 6, 2)
        state = _random_real_state(rng, 6, 2)
        if abs(overlap(ref, state)) < 1e-6:
            continue
        direct = np.abs(screen_overlap_gradients(ref, state, PoolScreen(state.basis, pool)))
        for op, d in zip(pool[:10], direct):
            assert abs(four_angle_gradient(ref, state, op.excitation) - d) < 1e-10


def test_four_angle_zero_case(h4):
    hf = prepare_hf(h4.n, h4.n_electrons)
    assert four_angle_gradient(hf, hf, h4.pool[0].excitation) < 1e-14


def test_four_angle_singular_overlap():
    ref = Statevector(4, np.eye(16)[0b0011])
    state = Statevector(4, np.eye(16)[0b0101])
    pool = oada.build_pool(4, 2)
    with pytest.raises(ValueError, match="singular"):
        four_angle_gradient(ref, state, pool[0].excitation)


def test_hf_target_stops_immediately(h4):
    hf = prepare_hf(h4.n, h4.n_electrons)
    ansatz, trace = run_overlap_adapt(hf, h4.pool, 5, n_electrons=h4.n_electrons)
    assert len(ansatz) == 0
    assert trace.records == []
    value, _ = overlap_and_gradient(ansatz, hf)
    assert abs(1.0 - value) < 1e-14  # infidelity zero


def test_h2_fci_target_exact_in_one_double(h2):
    target = h2.fci_state()
    ansatz, trace = run_overlap_adapt(target, h2.pool, 3, n_electrons=2)
    assert trace.records[-1].infidelity < 1e-10


def test_infidelity_monotone(h6, h6_overlap_50):
    _, trace = h6_overlap_50
    infids = [rec.infidelity for rec in trace.records]
    assert all(b <= a + 1e-12 for a, b in zip(infids, infids[1:]))


def test_overlap_descends_while_energy_driven_stalls(h6, h6_infidelity_curves):
    # the qualitative separation on the strongly correlated chain: the
    # overlap-guided run keeps descending while the energy-driven run's
    # overlap stalls well short of it
    adapt_infid, oa_infid = h6_infidelity_curves
    assert oa_infid[-1] < 0.2
    assert adapt_infid[-1] > 0.5
    assert np.all(oa_infid <= adapt_infid + 1e-9)


def test_pipeline_hf_target_equals_plain_adapt(h4):
    empty = Ansatz(h4.n, h4.n_electrons)
    result = pipeline(h4.mol, h4.ham, h4.pool, "adapt-ansatz", 3, 6,
                      target_ansatz=empty, eps=1e-8, e_ref=h4.e_fci)
    assert result.overlap_trace.records == []
    _, plain = oada.run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons,
                              eps=1e-8, max_ops=6, e_ref=h4.e_fci)
    assert result.adapt_trace.to_csv() == plain.to_csv()


def test_each_stage_starts_from_the_identity_and_carries_the_inverse_hessian(
        h4, monkeypatch):
    solves = []  # (angles, hess_inv0, returned hess_inv) per solve
    solve = oada.adapt.minimize

    def recording(objective, theta0, **kwargs):
        result = solve(objective, theta0, **kwargs)
        solves.append((len(theta0), kwargs["hess_inv0"], result.hess_inv))
        return result

    monkeypatch.setattr(oada.adapt, "minimize", recording)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 3, 6)
    n_overlap = len(result.overlap_trace.records)
    assert n_overlap == 3 and len(result.adapt_trace.records) == 3
    assert len(solves) == n_overlap + len(result.adapt_trace.records)
    for k, (m, hess_inv0, _) in enumerate(solves):
        if k in (0, n_overlap):
            assert hess_inv0 is None
        else:
            assert hess_inv0 is solves[k - 1][2]
            assert hess_inv0.shape == (m - 1, m - 1)


def test_beh2_pipeline_energy_stage_stops_at_the_floor(beh2_stretched):
    # the beh2_fci_pipeline benchmark workload. Without the optimizer's
    # floor stop its energy stage took 232 evaluations to the same energy.
    problem = beh2_stretched
    result = pipeline(problem.mol, problem.ham, problem.pool, "fci", 10, 20)
    records = result.adapt_trace.records
    assert records[-1].n_params == 20
    assert sum(r.n_evaluations for r in records) <= 150
    assert abs(result.adapt_trace.final_energy - (-15.319940034061378)) < 1e-10


def test_pipeline_fci_target_h2(h2):
    result = pipeline(h2.mol, h2.ham, h2.pool, "fci", 3, 3, e_ref=h2.e_fci)
    assert abs(result.target_energy - h2.e_fci) < 1e-10
    final = result.overlap_trace.records[-1]
    assert final.infidelity < 1e-10


def test_pipeline_rejects_unknown_source(h2):
    with pytest.raises(ValueError, match="ref_source"):
        pipeline(h2.mol, h2.ham, h2.pool, "mystery", 2, 3)


def test_pipeline_rejects_an_overlap_budget_above_the_total(h2):
    with pytest.raises(ValueError, match="p_overlap=3 exceeds p_total=2"):
        pipeline(h2.mol, h2.ham, h2.pool, "fci", 3, 2)


# Trace CSV column -> GrowthRecord attribute.
CSV_FIELDS = {"stage": "stage", "iter": "iteration", "op_id": "op_id", "kind": "kind",
              "grad": "gradient", "energy": "energy", "error_vs_fci": "error_vs_ref",
              "infidelity": "infidelity", "params": "n_params", "cnots": "cnots",
              "evals": "n_evaluations", "stop": "stop"}


def test_overlap_trace_csv_shape(h4):
    # a pipeline writes one CSV: the overlap rows, then the energy rows,
    # numbered on across the stages, each cell the record's value exactly
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 3, 6, e_ref=h4.e_fci)
    overlap_records, energy_records = result.overlap_trace.records, result.adapt_trace.records
    header, *rows = [line.split(",") for line in
                     result.overlap_trace.to_csv(result.adapt_trace).splitlines()]
    assert header == CSV_HEADER.split(",") and list(CSV_FIELDS) == header
    assert [row[0] for row in rows] == ["overlap"] * 3 + ["energy"] * 3
    assert [int(row[1]) for row in rows] == list(range(1, len(rows) + 1))
    for row, record in zip(rows, overlap_records + energy_records, strict=True):
        for column, cell in zip(header, row, strict=True):
            value = getattr(record, CSV_FIELDS[column])
            if isinstance(value, str):
                assert cell == value
            elif np.isnan(value):
                assert np.isnan(float(cell))
            else:
                assert float(cell) == value, (record.iteration, column)
    assert all(np.isnan(r.infidelity) for r in energy_records)
    assert all(np.isnan(r.error_vs_ref) and r.energy >= h4.e_fci for r in overlap_records)
    assert [r.cnots for r in overlap_records + energy_records] == [13 * k for k in range(1, 7)]
