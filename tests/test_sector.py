"""The Hartree-Fock sector basis against independent full-space oracles.

`reference_project_terms` and `reference_pairs` are the term-by-term and
one-excitation-at-a-time loops that `Basis._project_terms` and
`Basis._find_pairs` replace with array passes; the passes must reproduce
them bit for bit.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm

import oada
from oada import ci
from oada.cli import main
from oada.overlap_adapt import pipeline
from oada.pauli import _I_POWERS, PauliString, QubitOperator
from oada.pool import DoubleExcitation, SingleExcitation
from oada.statevector import (CHUNK, Ansatz, Basis, Statevector, energy_and_gradient,
                              overlap_and_gradient, prepare_hf)


def _sector(problem):
    return Basis.sector(problem.n, problem.n_electrons)


def reference_project_terms(basis, operator):
    """The operator's CSR matrix in `basis`, one Pauli term at a time: terms
    are grouped by x_mask, and each group's values start at 0 and add the
    terms in `sorted_terms` order; groups are accumulated 128 at a time."""
    groups = {}
    for s, c in operator.sorted_terms():
        groups.setdefault(s.x_mask, []).append((s.z_mask, c))
    x_keys = sorted(groups)
    shape = (basis.dim, basis.dim)
    columns = np.arange(basis.dim)
    matrix = sp.csr_matrix(shape, dtype=np.complex128)
    for start in range(0, len(x_keys), 128):
        rows, cols, data = [], [], []
        for x_mask in x_keys[start:start + 128]:
            images = basis.masks ^ x_mask
            row = basis.index(images)
            inside = row >= 0
            images, row, col = images[inside], row[inside], columns[inside]
            values = np.zeros(len(images), dtype=np.complex128)
            for z_mask, c in groups[x_mask]:
                phase = _I_POWERS[(-(z_mask & x_mask).bit_count()) % 4]
                signs = 1.0 - 2.0 * (np.bitwise_count(images & z_mask) & 1)
                values += (c * phase) * signs
            rows.append(row)
            cols.append(col)
            data.append(values)
        matrix = matrix + sp.coo_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=shape).tocsr()
    if matrix.nnz and np.max(np.abs(matrix.data.imag)) < 1e-13:
        matrix = sp.csr_matrix((matrix.data.real, matrix.indices, matrix.indptr),
                               shape=matrix.shape)
    matrix.eliminate_zeros()
    return matrix


def reference_pairs(basis, excitation):
    """(2, n) source and destination positions of one excitation."""
    if isinstance(excitation, SingleExcitation):
        occupied, empty = 1 << excitation.q, 1 << excitation.p
    else:
        occupied = (1 << excitation.r) | (1 << excitation.s)
        empty = (1 << excitation.p) | (1 << excitation.q)
    flip = occupied | empty
    pattern = basis.masks & flip
    src = np.flatnonzero(pattern == occupied)
    dst = basis.index(basis.masks[src] ^ flip)
    assert np.all(dst >= 0) and np.count_nonzero(pattern == empty) == len(src)
    return np.stack([src, dst])


def assert_same_csr(new, ref):
    assert new.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.dtype == b.dtype, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


@pytest.mark.parametrize("name", ["h6", "beh2_stretched", "n2"])
def test_projection_is_the_term_loop_bit_for_bit(name, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    projected = sector.project(problem.ham).matrix
    assert projected.dtype == np.float64
    assert_same_csr(projected, reference_project_terms(sector, problem.ham))
    if name == "n2":
        # Cancellation residues the Slater-Condon matrix does not store.
        slater = ci.slater_condon_hamiltonian(problem.mol).matrix
        extra = (abs(projected) > 0).astype(int) - (abs(slater) > 0).astype(int)
        assert extra.min() == 0 and extra.sum() == 32
        assert np.max(np.abs(projected[extra.toarray() == 1])) <= 6.5e-17


def test_complex_projection_is_the_term_loop_bit_for_bit():
    op = (QubitOperator.from_word(4, [("Y", 0), ("X", 1)], 0.5)
          + QubitOperator.from_word(4, [("X", 0), ("X", 1)], 0.25)
          + QubitOperator.from_word(4, [("Z", 0), ("Y", 2), ("Y", 3)], -0.75)
          + QubitOperator.from_word(4, [("Z", 1)], 1.5)
          + QubitOperator.identity(4, 0.125))
    full = Basis.full(4)
    projected = full._project_terms(op)
    assert projected.dtype == np.complex128
    assert_same_csr(projected, reference_project_terms(full, op))
    rng = np.random.default_rng(7)
    op = QubitOperator(6, {PauliString(int(x), int(z)): complex(*rng.normal(size=2))
                           for x, z in rng.integers(64, size=(40, 2))})
    for basis in (Basis.full(6), Basis.sector(6, 3)):
        assert_same_csr(basis._project_terms(op), reference_project_terms(basis, op))


def _random_operator(n, x_masks, z_masks, seed):
    """Operator with one normal(0, 1) coefficient per (x, z) mask pair."""
    rng = np.random.default_rng(seed)
    return QubitOperator(n, {PauliString(int(x), int(z)): float(c)
                             for x, z, c in zip(x_masks, z_masks, rng.normal(size=len(x_masks)))})


def _edge_operators(n, seed):
    rng = np.random.default_rng(seed)
    top = 1 << n
    return {
        "no x = 0 group": _random_operator(n, rng.integers(1, top, size=40),
                                           rng.integers(top, size=40), seed),
        "Z only": _random_operator(n, np.zeros(12, dtype=int), rng.integers(top, size=12), seed),
        "identity alone": QubitOperator.identity(n, 0.375),
        "mixed": _random_operator(n, rng.integers(4, size=60) * rng.integers(top, size=60),
                                  rng.integers(top, size=60), seed),
    }


@pytest.mark.parametrize("n, n_electrons", [(7, 3), (8, 5), (6, 0), (6, 6), (5, 2)])
def test_projection_edge_cases_are_the_term_loop_bit_for_bit(n, n_electrons):
    # (7, 3) and (8, 5) have N_alpha != N_beta; (6, 0) and (6, 6) one state each
    for basis in (Basis.sector(n, n_electrons), Basis.full(n)):
        for kind, op in _edge_operators(n, seed=10 * n + n_electrons).items():
            projected = basis._project_terms(op)
            reference = reference_project_terms(basis, op)
            assert projected.nnz == reference.nnz, (basis.dim, kind)
            if reference.nnz:  # the term loop leaves an empty matrix complex
                assert_same_csr(projected, reference)
            else:
                assert not projected.indptr.any()


def test_a_last_block_of_one_row_is_the_term_loop_bit_for_bit():
    # The diagonal pass takes CHUNK // terms rows at a time and the sweep
    # CHUNK // 2 // groups: with these counts both end on one row, where
    # numpy's sum over a (terms, 1) table would turn pairwise.
    basis = Basis.full(10)
    terms = next(t for t in range(2, basis.dim) if basis.dim % (CHUNK // t) == 1)
    groups = next(g for g in range(2, basis.dim) if basis.dim % (CHUNK // 2 // g) == 1)
    rng = np.random.default_rng(5)
    x_masks = np.repeat(rng.choice(np.arange(1, basis.dim), size=groups, replace=False), 3)
    z_masks = rng.choice(basis.dim, size=terms, replace=False)
    op = (_random_operator(10, np.zeros(terms, dtype=int), z_masks, seed=1)
          + _random_operator(10, x_masks, rng.integers(basis.dim, size=3 * groups), seed=2))
    assert sum(s.x_mask == 0 for s in op.terms) == terms
    assert len({s.x_mask for s in op.terms}) == groups + 1
    assert_same_csr(basis._project_terms(op), reference_project_terms(basis, op))


@pytest.mark.parametrize("n, n_electrons", [(4, 2), (7, 3), (8, 5), (6, 0), (6, 6), (12, 6)])
def test_membership_is_the_lookup(n, n_electrons):
    sector = Basis.sector(n, n_electrons)
    assert sector.counts == ((n_electrons + 1) // 2, n_electrons // 2)
    assert Basis.full(n).counts is None
    every = np.arange(1 << n, dtype=np.int64)
    # A sector mask with a bit moved to or above n_qubits, on the same spin:
    # its popcounts still match.
    occupied = sector.masks[sector.masks != 0]
    low = occupied & -occupied
    moved = (occupied ^ low) | (low << 2 * ((n + 1) // 2))
    top = (occupied ^ low) | np.where(low & 0x5555555555555555, 1 << 62, 1 << 61)
    for basis in (sector, Basis.full(n)):
        assert np.array_equal(basis.holds(every), basis.index(every) >= 0)
        for outside in (moved, top):
            assert not basis.holds(outside).any()
            assert np.all(basis.index(outside) < 0)


def test_projection_of_an_operator_without_terms_is_an_empty_real_matrix():
    # the term loop leaves an empty matrix complex; a projected operator is real
    for basis in (Basis.full(3), Basis.sector(4, 2)):
        matrix = basis.project(QubitOperator(basis.n_qubits)).matrix
        assert matrix.dtype == np.float64 and matrix.shape == (basis.dim, basis.dim)
        assert matrix.nnz == 0 and not matrix.indptr.any()


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["h6", "beh2_stretched"])
def test_projection_peak_memory_stays_within_the_term_loop(name, request):
    problem = request.getfixturevalue(name)
    for basis in (_sector(problem), Basis.full(problem.n)):
        built = []
        new = _peak_bytes(lambda: built.append(basis._project_terms(problem.ham)))
        ref = _peak_bytes(lambda: reference_project_terms(basis, problem.ham))
        assert new <= ref, (basis.dim, new, ref)
        # Beside the returned matrix, whose data are held twice while the
        # row blocks are joined, the temporaries stay within a multiple of
        # CHUNK: 0.7-1.2 CHUNK * 8 bytes on these bases.
        matrix = built.pop()
        kept = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        assert new - kept - matrix.data.nbytes < 3 * CHUNK * 8, (basis.dim, new, kept)


@pytest.mark.parametrize("name", ["h6", "beh2_stretched", "n2"])
def test_one_pass_pairs_are_the_single_excitation_pairs(name, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    excitations = [op.excitation for op in problem.pool]
    one_pass = sector._find_pairs(excitations)
    assert len(one_pass) == len(excitations)
    for e, pairs in zip(excitations, one_pass):
        assert pairs.dtype == np.int64 and pairs.flags.c_contiguous
        assert np.array_equal(pairs, reference_pairs(sector, e))
        assert np.array_equal(pairs, sector._find_pairs([e])[0])


def test_one_bad_excitation_among_good_ones_is_refused(h4):
    sector = _sector(h4)
    good = [op.excitation for op in h4.pool]
    with pytest.raises(ValueError, match=r"orbital index 8 outside \[0, 8\)"):
        sector._find_pairs(good[:3] + [DoubleExcitation(8, 1, 2, 3)] + good[3:])
    with pytest.raises(ValueError, match="leaves the basis"):
        sector._find_pairs(good[:3] + [SingleExcitation(5, 0)] + good[3:])


@pytest.mark.parametrize("name", ["h6", "beh2_stretched"])
def test_a_fresh_run_pairs_the_pool_in_one_pass(name, request, monkeypatch):
    problem = request.getfixturevalue(name)
    calls = []
    find = Basis._find_pairs

    def counting(self, excitations):
        calls.append(len(excitations))
        return find(self, excitations)

    monkeypatch.setattr(Basis, "_find_pairs", counting)
    oada.run_adapt(problem.ham, problem.pool, n_electrons=problem.n_electrons,
                   eps=1e-8, max_ops=2)
    assert calls == [len(problem.pool)]


@pytest.mark.parametrize("name", ["h2", "h4", "h6"])
def test_projected_hamiltonian_is_sector_block(name, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    projected = sector.project(problem.ham).matrix
    block = problem.ham.to_sparse_matrix()[sector.masks][:, sector.masks]
    assert projected.dtype == np.float64
    assert projected.shape == (sector.dim, sector.dim)
    assert np.max(np.abs(projected.toarray() - block.toarray())) < 1e-13


def test_sector_masks_are_the_hf_sector(h6):
    sector = _sector(h6)
    masks = [m for m in range(1 << h6.n)
             if bin(m & 0x555).count("1") == 3 and bin(m & 0xAAA).count("1") == 3]
    assert sector.dim == 400
    assert list(sector.masks) == masks


def test_sector_pairs_are_full_pairs_inside_the_sector(h4, h6):
    for problem in (h4, h6):
        sector = _sector(problem)
        full = Basis.full(problem.n)
        inside = set(sector.masks.tolist())
        for op in problem.pool:
            src, dst = full.pairs(op.excitation)  # full-space positions are masks
            expected = sorted((int(s), int(d)) for s, d in zip(src, dst)
                              if s in inside and d in inside)
            s_src, s_dst = sector.pairs(op.excitation)
            got = sorted(zip(sector.masks[s_src].tolist(), sector.masks[s_dst].tolist()))
            assert got == expected


def test_spin_flip_excitation_leaves_the_sector(h4):
    with pytest.raises(ValueError, match="leaves the basis"):
        _sector(h4).pairs(SingleExcitation(5, 0))


@pytest.mark.parametrize("excitation", [SingleExcitation(2, 2), DoubleExcitation(0, 1, 0, 2)])
def test_repeated_orbital_indices_are_refused_in_both_bases(h4, excitation):
    # unchecked, the full basis pairs |100> with |000>, or 0b101 with 0b010
    for basis in (Basis.full(h4.n), _sector(h4)):
        with pytest.raises(ValueError, match="excitation indices must be distinct"):
            basis.pairs(excitation)


def _dense_oracle(problem, ops, thetas, target):
    """Energy, overlap and both gradients from dense expm products."""
    h = problem.ham.to_dense_matrix()
    gens = [op.generator(problem.n).to_dense_matrix() for op in ops]
    units = [expm(theta * t) for t, theta in zip(gens, thetas)]
    hf = prepare_hf(problem.n, problem.n_electrons).amplitudes
    psi = hf
    for u in units:
        psi = u @ psi
    derivs = []
    for k in range(len(units)):
        d = hf
        for j, u in enumerate(units):
            d = u @ d
            if j == k:
                d = gens[k] @ d
        derivs.append(d)
    energy = np.vdot(psi, h @ psi).real
    e_grad = np.array([2.0 * np.vdot(psi, h @ d).real for d in derivs])
    c = np.vdot(target, psi)
    f_grad = np.array([2.0 * (np.conjugate(c) * np.vdot(target, d)).real for d in derivs])
    return energy, e_grad, abs(c) ** 2, f_grad


def test_sector_gradients_match_dense_expm(h4):
    rng = np.random.default_rng(3)
    sector = _sector(h4)
    h_sector = sector.project(h4.ham)
    target_full = h4.fci_state()
    target = sector.extract(target_full)
    assert target.amplitudes.dtype == np.float64
    for m in (1, 4, 9):
        ops = [h4.pool[int(k)] for k in rng.integers(len(h4.pool), size=m)]
        thetas = rng.uniform(-1.5, 1.5, size=m)
        ansatz = Ansatz(h4.n, h4.n_electrons, [op.excitation for op in ops], list(thetas))
        energy, e_grad, fid, f_grad = _dense_oracle(h4, ops, thetas, target_full.amplitudes)
        value, grad = energy_and_gradient(ansatz, h_sector)
        assert abs(value - energy) < 1e-12
        assert np.max(np.abs(grad - e_grad)) < 1e-12
        value, grad = overlap_and_gradient(ansatz, target)
        assert abs(value - fid) < 1e-12
        assert np.max(np.abs(grad - f_grad)) < 1e-12


def test_extract_and_embed_round_trip(h4):
    sector = _sector(h4)
    rng = np.random.default_rng(11)
    amps = rng.normal(size=1 << h4.n)
    state = Statevector(h4.n, amps)
    inner = sector.extract(state)
    assert inner.amplitudes.dtype == np.float64
    back = Basis.full(h4.n).extract(inner)
    outside = np.ones(1 << h4.n, dtype=bool)
    outside[sector.masks] = False
    assert np.array_equal(back.amplitudes[sector.masks], amps[sector.masks])
    assert not np.any(back.amplitudes[outside])


def test_pipeline_never_builds_the_full_matrix(h4, monkeypatch):
    def refuse(self):
        raise AssertionError("2^N matrix built")

    monkeypatch.setattr(QubitOperator, "to_sparse_matrix", refuse)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 2, 4, e_ref=h4.e_fci)
    assert len(result.ansatz) == 4
    assert result.adapt_trace.final_energy >= h4.e_fci - 1e-10


def test_no_solver_path_allocates_the_full_space(h4, tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("2^N basis allocated")

    wavefunction = ci.run_cipsi(h4.sector, max_dets=8).statevector(h4.sector.basis)
    ansatz = Ansatz(h4.n, h4.n_electrons, [op.excitation for op in h4.pool[:3]],
                    [0.1, -0.2, 0.3])
    monkeypatch.setattr(Basis, "full", refuse)
    for source, options in (("cipsi", {"cipsi_max_dets": 8}),
                            ("wavefunction", {"target_wavefunction": wavefunction}),
                            ("adapt-ansatz", {"target_ansatz": ansatz})):
        result = pipeline(h4.mol, h4.ham, h4.pool, source, 2, 3, **options)
        assert result.target_state.basis == _sector(h4)
    path = oada.fixture_path("h4_1.5")
    assert main(["run", "--method", "cipsi", "--fcidump", path, "--cipsi-max-dets", "8",
                 "--out-trace", str(tmp_path / "t.csv"),
                 "--out-wavefunction", str(tmp_path / "wf.dets")]) == 0
    assert capsys.readouterr().err == ""


def test_sector_cap_raises_before_allocating(monkeypatch):
    def enumerate_nothing(*args):
        raise AssertionError("sector enumerated before the cap check")

    monkeypatch.setattr(itertools, "combinations", enumerate_nothing)
    with pytest.raises(ValueError, match="exceeds cap"):
        Basis.sector(40, 20)  # C(20, 10)^2 = 3.4e10 amplitudes


@pytest.mark.parametrize("name, dim", [("h4", 36), ("h6", 400)])
def test_sector_ground_state_is_the_fci_target(name, dim, request):
    problem = request.getfixturevalue(name)
    sector = _sector(problem)
    energy, target = ci.sector_ground_state(sector.project(problem.ham))
    assert target.basis is sector and sector.dim == dim
    assert target.amplitudes.dtype == np.float64
    exact = problem.fci[1]
    assert exact.basis == sector
    assert abs(np.vdot(target.amplitudes, exact.amplitudes)) ** 2 >= 1 - 1e-10
    assert abs(energy - problem.e_fci) < 1e-10


def test_pipeline_fci_target_skips_the_determinant_solver(h4, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("Slater-Condon FCI called")

    monkeypatch.setattr(ci, "fci_ground_state", refuse)
    result = pipeline(h4.mol, h4.ham, h4.pool, "fci", 2, 4, e_ref=h4.e_fci)
    assert result.target_state.basis == _sector(h4)
    assert abs(result.target_energy - h4.e_fci) < 1e-10
    assert len(result.ansatz) == 4


def test_pipeline_cipsi_target_lies_in_the_sector(h4):
    result = pipeline(h4.mol, h4.ham, h4.pool, "cipsi", 2, 3, cipsi_max_dets=8)
    assert result.target_state.basis == _sector(h4)
    assert abs(result.target_state.norm() - 1.0) < 1e-12


def test_target_without_sector_weight_is_rejected(h2):
    wrong = Statevector(4)
    wrong.amplitudes[ci.strings_to_mask(0b1, 0)] = 1.0  # one electron: outside the sector
    with pytest.raises(ValueError, match="no weight"):
        pipeline(h2.mol, h2.ham, h2.pool, "wavefunction", 2, 3, target_wavefunction=wrong)


class CountingMatrix:
    """A matrix that counts the vectors it is applied to."""

    def __init__(self, matrix):
        self.matrix, self.shape, self.columns = matrix, matrix.shape, 0

    def __matmul__(self, v):
        self.columns += 1 if v.ndim == 1 else v.shape[1]
        return self.matrix @ v

    def diagonal(self):
        return self.matrix.diagonal()


def _lowest_diagonal_start(matrix):
    start = np.zeros(matrix.shape[0])
    start[np.argmin(matrix.diagonal())] = 1.0
    return start


def test_davidson_applies_h_once_per_iteration(beh2_stretched):
    matrix = beh2_stretched.sector.matrix
    counting = CountingMatrix(matrix)
    energy, _ = ci._davidson(counting, _lowest_diagonal_start(matrix))
    assert counting.columns == 19  # 19 iterations, no restart
    assert abs(energy - beh2_stretched.refs["REF_FCI"]) < 1e-9


def test_davidson_restart_keeps_the_energy(h6):
    matrix = h6.sector.matrix
    counting = CountingMatrix(matrix)
    energy, _ = ci._davidson(counting, _lowest_diagonal_start(matrix))
    # 107 iterations, one more product for each of the 5 restart vectors.
    assert counting.columns == 112
    assert abs(energy - h6.refs["REF_FCI"]) < 1e-9


def test_davidson_raises_convergence_error(h6, monkeypatch):
    matrix = _sector(h6).project(h6.ham).matrix
    monkeypatch.setattr(ci, "DAVIDSON_MAX_ITER", 2)
    with pytest.raises(oada.ConvergenceError, match="Davidson"):
        ci._davidson(matrix, _lowest_diagonal_start(matrix))
