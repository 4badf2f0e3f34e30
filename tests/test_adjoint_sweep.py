"""The taped adjoint sweep of both gradients against two references.

`reference_reverse_brackets` is the adjoint sweep written out step by
step: it un-applies every evolution from both psi and the left vector
with an elementwise Givens turn and reads <left_k|T_k|psi_k> off the
turned-back vectors. The kernel instead keeps the forward pass's rotated
rows of psi and turns back only the left vector; both gradients must
agree with the reference to 1e-12.

`reference_kernels` keeps the kernel's former per-evaluation path (a pair
lookup per evolution, a list tape and two concatenations); the kept
single-assignment sweep plan must give exactly its values, through the
plan's whole life cycle. A plan grown by appends must hold the tables of
one built for the whole list, and of a walk over the slots in order.
"""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from oada import adapt
from oada.overlap_adapt import pipeline
from oada.pool import DoubleExcitation, SingleExcitation
from oada.statevector import (Ansatz, Basis, ProjectedOperator, Statevector, _Sweep,
                              apply_ansatz, energy_and_gradient, overlap_and_gradient,
                              prepare_hf)
import reference_kernels as reference

TOL = 1e-12


def _turn(rows, theta):
    """Givens-rotate gathered (source, destination) rows a, b in place:
    a -> c a - s b, b -> c b + s a."""
    c, s = math.cos(theta), math.sin(theta)
    swapped = rows[::-1] * s
    rows *= c
    rows[0] -= swapped[0]
    rows[1] += swapped[1]


def reference_state(ansatz, basis):
    amps = prepare_hf(ansatz.n_qubits, ansatz.n_electrons, basis).amplitudes
    for excitation, theta in zip(ansatz.excitations, ansatz.thetas):
        pairs = basis.pairs(excitation)
        rows = amps[pairs]
        _turn(rows, theta)
        amps[pairs] = rows
    return amps


def reference_reverse_brackets(ansatz, basis, psi, left):
    """<left_k|T_k|psi_k> for every k, turning back copies of psi and left."""
    dtype = np.result_type(psi, left)
    psi, left = psi.astype(dtype), left.astype(dtype)
    brackets = np.empty(len(ansatz), dtype=dtype)
    for k in range(len(ansatz) - 1, -1, -1):
        pairs = basis.pairs(ansatz.excitations[k])
        p, lam = psi[pairs], left[pairs]
        brackets[k] = np.vdot(lam[1], p[0]) - np.vdot(lam[0], p[1])
        _turn(p, -ansatz.thetas[k])
        _turn(lam, -ansatz.thetas[k])
        psi[pairs] = p
        left[pairs] = lam
    return brackets


def reference_gradients(ansatz, h, target):
    psi = reference_state(ansatz, h.basis)
    lam = h.matrix @ psi
    energy = np.vdot(psi, lam).real
    energy_grad = 2.0 * reference_reverse_brackets(ansatz, h.basis, psi, lam).real
    c = np.vdot(target.amplitudes, psi)
    brackets = reference_reverse_brackets(ansatz, h.basis, psi, target.amplitudes)
    return energy, energy_grad, abs(c) ** 2, 2.0 * (np.conjugate(c) * brackets).real


def assert_matches_reference(ansatz, h, target):
    energy, energy_grad, value, overlap_grad = reference_gradients(ansatz, h, target)
    e, g = energy_and_gradient(ansatz, h)
    f, go = overlap_and_gradient(ansatz, target)
    assert len(g) == len(go) == len(ansatz)
    assert abs(e - energy) < TOL and abs(f - value) < TOL
    assert np.max(np.abs(g - energy_grad), initial=0.0) < TOL
    assert np.max(np.abs(go - overlap_grad), initial=0.0) < TOL


def _random_ansatz(rng, pool, n_qubits, n_electrons, m):
    ansatz = Ansatz(n_qubits, n_electrons)
    for i in rng.choice(len(pool), m, replace=False):
        ansatz.append(pool[i].excitation, rng.uniform(-1.0, 1.0))
    return ansatz


def _random_state(rng, basis):
    amps = rng.normal(size=basis.dim)
    return Statevector(basis.n_qubits, amps / np.linalg.norm(amps), basis)


@pytest.mark.parametrize("name, m", [("h6", 30), ("beh2_stretched", 20)])
def test_sector_gradients_match_the_reference_sweep(request, name, m):
    problem = request.getfixturevalue(name)
    rng = np.random.default_rng(m)
    h = problem.sector
    for _ in range(3):
        ansatz = _random_ansatz(rng, problem.pool, problem.n, problem.n_electrons, m)
        assert_matches_reference(ansatz, h, _random_state(rng, h.basis))


@pytest.mark.parametrize("m", [0, 1])
def test_short_ansatz_gradients_match_the_reference_sweep(h4, m):
    rng = np.random.default_rng(m)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, m)
    assert_matches_reference(ansatz, h4.sector, _random_state(rng, h4.sector.basis))


def test_repeated_excitation_gradients_match_the_reference_sweep(h4):
    rng = np.random.default_rng(23)
    ansatz = Ansatz(h4.n, h4.n_electrons)
    repeated = h4.pool[-1].excitation
    for op in (h4.pool[-1], h4.pool[0], h4.pool[-1], h4.pool[5], h4.pool[-1]):
        ansatz.append(op.excitation, rng.uniform(-1.0, 1.0))
    assert ansatz.excitations.count(repeated) == 3
    assert_matches_reference(ansatz, h4.sector, _random_state(rng, h4.sector.basis))


def test_gradients_of_an_excitation_without_pairs_match_the_reference_sweep(h2):
    # one alpha electron and no beta one: the beta single and the double
    # couple nothing in this sector
    h = Basis.sector(4, 1).project(h2.ham)
    assert [h.basis.pairs(op.excitation).shape[1] for op in h2.pool] == [1, 0, 0]
    ansatz = Ansatz(4, 1)
    for op, theta in zip(h2.pool, (0.3, -0.7, 1.1)):
        ansatz.append(op.excitation, theta)
    rng = np.random.default_rng(4)
    assert_matches_reference(ansatz, h, _random_state(rng, h.basis))
    _, grad = energy_and_gradient(ansatz, h)
    assert grad[1] == grad[2] == 0.0


@pytest.mark.parametrize("n_angles", [1, 4])
def test_a_wrong_number_of_angles_is_refused(h4, n_angles):
    rng = np.random.default_rng(2)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 3)
    thetas = [0.1] * n_angles
    message = f"{n_angles} angles for an ansatz of 3 evolutions"
    with pytest.raises(ValueError, match=message):
        apply_ansatz(ansatz, thetas)
    with pytest.raises(ValueError, match=message):
        energy_and_gradient(ansatz, h4.sector, thetas)
    with pytest.raises(ValueError, match=message):
        overlap_and_gradient(ansatz, h4.fci_state(), thetas)


def test_overlap_stage_energies_equal_the_energy_objective(h6, h6_cipsi_pipeline,
                                                          beh2_stretched):
    # the overlap stage logs each iterate's energy from one forward pass
    # and one H application; it must be the energy objective's value
    beh2 = pipeline(beh2_stretched.mol, beh2_stretched.ham, beh2_stretched.pool, "fci", 10, 20)
    for problem, result in ((h6, h6_cipsi_pipeline), (beh2_stretched, beh2)):
        ansatz = result.ansatz
        records = result.overlap_trace.records
        assert records
        for rec in records:
            prefix = Ansatz(problem.n, problem.n_electrons,
                            list(ansatz.excitations[:rec.n_params]), list(rec.thetas))
            assert rec.energy == energy_and_gradient(prefix, problem.sector)[0]


def assert_bit_identical(ansatz, h, target):
    """Energy, overlap and both gradients exactly equal to the former path's."""
    e, g = energy_and_gradient(ansatz, h)
    e_ref, g_ref = reference.energy_and_gradient(ansatz, h)
    f, go = overlap_and_gradient(ansatz, target)
    f_ref, go_ref = reference.overlap_and_gradient(ansatz, target)
    assert e == e_ref and np.array_equal(g, g_ref)
    assert f == f_ref and np.array_equal(go, go_ref)


@pytest.mark.parametrize("name, m", [("h6", 30), ("beh2_stretched", 20), ("n2", 20)])
def test_sector_evaluations_are_bit_identical_to_the_former_path(request, name, m):
    problem = request.getfixturevalue(name)
    h = problem.sector
    rng = np.random.default_rng(100 + m)
    ansatz = _random_ansatz(rng, problem.pool, problem.n, problem.n_electrons, m)
    for _ in range(3):  # the plan's buffers are reused from the second call on
        ansatz.thetas = list(rng.uniform(-1.0, 1.0, m))
        assert_bit_identical(ansatz, h, _random_state(rng, h.basis))


def test_the_kept_plan_follows_edits_bases_and_copies(h4):
    rng = np.random.default_rng(37)
    sector, full = h4.sector, h4.full
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 5)
    target = _random_state(rng, sector.basis)
    assert_bit_identical(ansatz, sector, target)
    ansatz.append(h4.pool[0].excitation, 0.4)
    assert_bit_identical(ansatz, sector, target)
    ansatz.excitations[2] = h4.pool[-1].excitation  # replaced in place
    assert_bit_identical(ansatz, sector, target)
    for h in (full, sector):  # sector, then full, then sector again
        assert_bit_identical(ansatz, h, _random_state(rng, h.basis))
    other = ansatz.copy()
    other.append(h4.pool[3].excitation, -0.2)
    other.thetas[0] = 0.9
    assert_bit_identical(other, sector, target)
    assert_bit_identical(ansatz, sector, target)
    assert np.array_equal(apply_ansatz(ansatz, basis=sector.basis).amplitudes,
                          reference.forward(ansatz, sector.basis)[0].amplitudes)


@pytest.mark.parametrize("m", [0, 1, 30])
def test_single_assignment_sweep_is_the_former_path_at_every_length(h6, m):
    rng = np.random.default_rng(200 + m)
    h = h6.sector
    ansatz = _random_ansatz(rng, h6.pool, h6.n, h6.n_electrons, m)
    target = _random_state(rng, h.basis)
    for _ in range(2):
        assert_bit_identical(ansatz, h, target)
        assert np.array_equal(apply_ansatz(ansatz, basis=h.basis).amplitudes,
                              reference.forward(ansatz, h.basis)[0].amplitudes)
        ansatz.thetas = list(rng.uniform(-1.0, 1.0, m))
    sweep = ansatz._sweep
    assert sweep._reads.dtype == np.intp and sweep._final.dtype == np.intp
    # room for C pairs, at most half as many again as the T laid out
    capacity, total = sweep._capacity, sweep._total
    assert total <= capacity <= total + total // 2
    # one slot per amplitude written, after the starting vector
    assert sweep._ahead.shape == sweep._back.shape == (h.basis.dim + 2 * capacity,)
    assert sweep._reads.shape == (2 * total,)
    # one read table for both directions: the plan is 24 dim + 48 C bytes
    assert (sweep._reads.base.nbytes + sweep._ahead.base.nbytes
            == 24 * h.basis.dim + 48 * capacity)


def test_single_assignment_sweep_follows_appends_and_replacements(h4):
    rng = np.random.default_rng(53)
    h = h4.sector
    ansatz = Ansatz(h4.n, h4.n_electrons)
    target = _random_state(rng, h.basis)
    for _ in range(8):  # grown one evolution at a time, some repeated
        ansatz.append(h4.pool[int(rng.integers(len(h4.pool)))].excitation,
                      rng.uniform(-1.0, 1.0))
        assert_bit_identical(ansatz, h, target)
    for k in (0, 3, 7):
        before = ansatz._sweep
        ansatz.excitations[k] = h4.pool[int(rng.integers(len(h4.pool)))].excitation
        assert_bit_identical(ansatz, h, target)
        assert ansatz._sweep is not before


def _all_excitations(n):
    """Every spin-conserving single and double excitation on n spin orbitals."""
    excitations = [SingleExcitation(p, q) for p in range(n) for q in range(p % 2, p, 2)]
    excitations += [DoubleExcitation(p, q, r, s) for p in range(n) for q in range(p + 1, n)
                    for r in range(n) for s in range(r + 1, n)
                    if len({p, q, r, s}) == 4 and (p % 2 + q % 2) == (r % 2 + s % 2)]
    return excitations


@pytest.mark.parametrize("n, n_electrons", [(4, 1), (4, 3), (6, 1), (6, 5), (6, 2)])
def test_single_assignment_sweep_is_the_former_path_on_tiny_sectors(n, n_electrons):
    # runs of one pair and of none, repeated and in any order (the first
    # run the smallest), where a 2x2 product on one pair is a
    # matrix-vector product
    basis = Basis.sector(n, n_electrons)
    rng = np.random.default_rng(10 * n + n_electrons)
    a = rng.normal(size=(basis.dim, basis.dim))
    h = ProjectedOperator(basis, sp.csr_matrix(a + a.T))
    excitations = _all_excitations(n)
    sizes = [basis.pairs(e).shape[1] for e in excitations]
    assert 1 in sizes
    for _ in range(4):
        ansatz = Ansatz(n, n_electrons)
        ansatz.append(excitations[int(np.argmin(sizes))], 0.5)
        for i in rng.integers(len(excitations), size=12):
            ansatz.append(excitations[i], rng.uniform(-1.0, 1.0))
        assert_bit_identical(ansatz, h, _random_state(rng, basis))
        assert np.array_equal(apply_ansatz(ansatz, basis=basis).amplitudes,
                              reference.forward(ansatz, basis)[0].amplitudes)


def reference_tables(pairs, dim):
    """The read table and every position's last slot, walking the slots in
    order: pair after pair, its source, then its destination."""
    last, reads = list(range(dim)), []
    positions = [int(position) for p in pairs for position in p.T.ravel()]
    for slot, position in enumerate(positions, start=dim):
        reads.append(last[position])
        last[position] = slot
    return np.array(reads, dtype=np.intp), np.array(last, dtype=np.intp)


def assert_extended_plan_is_built_afresh(ansatz, basis):
    """The kept plan, grown by appends, has the tables and runs of a plan
    built for the whole excitation list, and those of the walk above."""
    kept, fresh = ansatz._sweep, _Sweep(ansatz, basis)
    assert kept.excitations == fresh.excitations == ansatz.excitations
    reads, final = reference_tables(fresh.pairs, basis.dim)
    for plan in (kept, fresh):
        assert np.array_equal(plan._reads, reads) and np.array_equal(plan._final, final)
        assert plan._total <= plan._capacity <= plan._total + plan._total // 2
    for name in ("_starts", "_nonempty"):
        assert np.array_equal(getattr(kept, name), getattr(fresh, name)), name
    assert kept._runs == fresh._runs and kept._singles == fresh._singles
    assert len(kept._steps) == len(fresh._steps) == len(ansatz)


def test_an_extended_plan_is_the_plan_built_afresh_over_a_growth(h6):
    # 30 appends drawn from 12 operators, so most are repeats
    rng = np.random.default_rng(59)
    h = h6.sector
    target = _random_state(rng, h.basis)
    ansatz = Ansatz(h6.n, h6.n_electrons)
    energy_and_gradient(ansatz, h)
    plan = ansatz._sweep
    for i in rng.integers(12, size=30):
        ansatz.append(h6.pool[i].excitation, rng.uniform(-1.0, 1.0))
        assert_bit_identical(ansatz, h, target)
        assert ansatz._sweep is plan
        assert_extended_plan_is_built_afresh(ansatz, h.basis)
    assert len(set(ansatz.excitations)) < len(ansatz)


@pytest.mark.parametrize("n, n_electrons", [(4, 1), (6, 1), (6, 5)])
def test_an_extended_plan_is_the_plan_built_afresh_on_tiny_sectors(n, n_electrons):
    # runs of one pair and of none, appended one and several at a time
    basis = Basis.sector(n, n_electrons)
    rng = np.random.default_rng(n + 7 * n_electrons)
    excitations = _all_excitations(n)
    sizes = {basis.pairs(e).shape[1] for e in excitations}
    assert {0, 1} <= sizes
    ansatz = Ansatz(n, n_electrons)
    apply_ansatz(ansatz, basis=basis)
    plan = ansatz._sweep
    for count in (1, 1, 3, 1, 5, 2):
        for i in rng.integers(len(excitations), size=count):
            ansatz.append(excitations[i], rng.uniform(-1.0, 1.0))
        assert np.array_equal(apply_ansatz(ansatz, basis=basis).amplitudes,
                              reference.forward(ansatz, basis)[0].amplitudes)
        assert ansatz._sweep is plan
        assert_extended_plan_is_built_afresh(ansatz, basis)


def test_the_kept_plan_is_rebuilt_after_any_other_edit(h4):
    rng = np.random.default_rng(61)
    sector, full = h4.sector, h4.full
    target = _random_state(rng, sector.basis)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 4)

    def rebuilt(edit, h):
        before = ansatz._sweep
        edit()
        assert_bit_identical(ansatz, h, target if h is sector else _random_state(rng, h.basis))
        assert_extended_plan_is_built_afresh(ansatz, h.basis)
        return ansatz._sweep is not before

    assert_bit_identical(ansatz, sector, target)  # builds the plan
    assert not rebuilt(lambda: None, sector)
    assert not rebuilt(lambda: ansatz.append(h4.pool[2].excitation, 0.3), sector)
    assert rebuilt(lambda: ansatz.excitations.__setitem__(1, h4.pool[-1].excitation), sector)
    assert rebuilt(lambda: (ansatz.excitations.pop(), ansatz.thetas.pop()), sector)

    def replace_and_append():  # no longer a prefix, though the list grew
        ansatz.excitations[0] = h4.pool[1].excitation
        ansatz.append(h4.pool[4].excitation, 0.2)

    assert rebuilt(replace_and_append, sector)
    assert rebuilt(lambda: None, full)  # another basis
    assert not rebuilt(lambda: ansatz.append(h4.pool[0].excitation, -0.6), full)
    assert rebuilt(lambda: setattr(ansatz, "n_electrons", h4.n_electrons - 2), full)


def test_a_growth_stage_builds_one_plan(h4, monkeypatch):
    built = []
    build = _Sweep.__init__

    def counting(plan, *args):
        built.append(plan)
        build(plan, *args)

    monkeypatch.setattr(_Sweep, "__init__", counting)
    ansatz, trace = adapt.run_adapt(h4.ham, h4.pool, n_electrons=h4.n_electrons, eps=1e-8,
                                    max_ops=6)
    assert len(trace.records) == 6 and trace.stop_reason == "budget"
    assert built == [ansatz._sweep]


def _carried_starts(monkeypatch):
    """Every solve's start as `adapt.grow` passes it, beside a fresh
    evaluation of the stage's objective at the same angles."""
    starts = []
    solve = adapt.minimize

    def checking(objective, theta0, **kwargs):
        starts.append((kwargs["start"], objective(np.array(theta0))))
        return solve(objective, theta0, **kwargs)

    monkeypatch.setattr(adapt, "minimize", checking)
    return starts


def test_a_carried_start_is_a_fresh_evaluation_bit_for_bit(h4, h6, monkeypatch):
    # G(0) is the identity: at the new angle 0 the previous optimum's
    # value, gradient and state, with the screen's slope appended
    starts = _carried_starts(monkeypatch)
    _, trace = adapt.run_adapt(h6.ham, h6.pool, n_electrons=h6.n_electrons, eps=1e-8,
                               max_ops=8)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 3, 6)
    assert len(trace.records) == 8 and len(starts) == 8 + 6
    # only a pipeline's first energy solve evaluates its start
    assert [k for k, (start, _) in enumerate(starts) if start is None] == [8 + 3]
    assert len(result.overlap_trace.records) == 3
    for start, fresh in starts:
        if start is None:
            continue
        value, grad, state, aux = start
        assert value == fresh[0] and np.array_equal(grad, fresh[1])
        assert np.array_equal(state.amplitudes, fresh[2].amplitudes)
        assert np.array_equal(aux, fresh[3])


def test_returned_states_and_gradients_outlive_later_evaluations(h6):
    rng = np.random.default_rng(41)
    h = h6.sector
    ansatz = _random_ansatz(rng, h6.pool, h6.n, h6.n_electrons, 12)
    target = _random_state(rng, h.basis)
    state = apply_ansatz(ansatz, basis=h.basis)
    _, grad = energy_and_gradient(ansatz, h)
    _, overlap_grad = overlap_and_gradient(ansatz, target)
    kept = [a.copy() for a in (state.amplitudes, grad, overlap_grad)]
    for _ in range(2):
        thetas = list(rng.uniform(-1.0, 1.0, len(ansatz)))
        energy_and_gradient(ansatz, h, thetas)
        overlap_and_gradient(ansatz, _random_state(rng, h.basis), thetas)
        apply_ansatz(ansatz, thetas, h.basis)
    for now, before in zip((state.amplitudes, grad, overlap_grad), kept):
        assert np.array_equal(now, before)


def test_a_wrong_number_of_angles_is_refused_by_a_built_plan(h4):
    rng = np.random.default_rng(43)
    ansatz = _random_ansatz(rng, h4.pool, h4.n, h4.n_electrons, 3)
    energy_and_gradient(ansatz, h4.sector)  # builds the plan
    with pytest.raises(ValueError, match="2 angles for an ansatz of 3 evolutions"):
        energy_and_gradient(ansatz, h4.sector, [0.1, 0.2])
    ansatz.append(h4.pool[0].excitation)
    with pytest.raises(ValueError, match="3 angles for an ansatz of 4 evolutions"):
        overlap_and_gradient(ansatz, _random_state(rng, h4.sector.basis), [0.1] * 3)


def test_an_evaluation_with_a_built_plan_allocates_little(beh2_stretched):
    # the former path peaked at 295 kB: a pair lookup per evolution, a list
    # tape and two concatenations of up to m * dim amplitudes
    h = beh2_stretched.sector
    rng = np.random.default_rng(47)
    ansatz = _random_ansatz(rng, beh2_stretched.pool, beh2_stretched.n,
                            beh2_stretched.n_electrons, 20)
    energy_and_gradient(ansatz, h)  # builds the plan
    tracemalloc.start()
    try:
        energy_and_gradient(ansatz, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 160 * 1024
