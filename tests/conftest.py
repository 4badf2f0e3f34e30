import numpy as np
import pytest

import oada
from oada.statevector import Ansatz, Basis, apply_ansatz, overlap


class Problem:
    """Lazily assembled bundle for one fixture molecule."""

    def __init__(self, name):
        self.path = oada.fixture_path(name)
        self.refs = oada.reference_energies(self.path)
        self.data = oada.read_fcidump(self.path)
        self.mol = oada.to_spin_orbital(self.data)
        self.n = self.mol.n_spin_orbitals
        self.n_electrons = self.mol.n_electrons
        self._ham = None
        self._full = None
        self._sector = None
        self._pool = None
        self._fci = None

    @property
    def ham(self):
        if self._ham is None:
            self._ham = oada.jw_hamiltonian(self.mol)
        return self._ham

    @property
    def full(self):
        """The Jordan-Wigner Hamiltonian projected onto the full 2^N basis."""
        if self._full is None:
            self._full = Basis.full(self.n).project(self.ham)
        return self._full

    @property
    def sector(self):
        """The Jordan-Wigner Hamiltonian projected onto the Hartree-Fock
        sector, where CIPSI and the ansatz loops run."""
        if self._sector is None:
            self._sector = Basis.sector(self.n, self.n_electrons).project(self.ham)
        return self._sector

    @property
    def pool(self):
        if self._pool is None:
            self._pool = oada.build_pool(self.n, self.n_electrons)
        return self._pool

    @property
    def fci(self):
        """(energy, Slater-Condon ground state in the sector), cached."""
        if self._fci is None:
            self._fci = oada.fci_ground_state(self.mol)
        return self._fci

    @property
    def e_fci(self):
        return self.fci[0]

    def fci_state(self):
        return Basis.full(self.n).extract(self.fci[1])


@pytest.fixture(scope="session")
def h2():
    return Problem("h2_0.7414")


@pytest.fixture(scope="session")
def h4():
    return Problem("h4_1.5")


@pytest.fixture(scope="session")
def h6():
    return Problem("h6_3.0")


@pytest.fixture(scope="session")
def beh2_stretched():
    return Problem("beh2_3.0")


@pytest.fixture(scope="session")
def n2():
    return Problem("n2_cas66_1.0977")


@pytest.fixture(scope="session")
def h6_adapt_50(h6):
    """Plain adaptive run on H6 to the 50-operator budget (shared, ~10 s)."""
    return oada.run_adapt(h6.ham, h6.pool, n_electrons=h6.n_electrons,
                          eps=1e-8, max_ops=50, e_ref=h6.e_fci)


@pytest.fixture(scope="session")
def h6_overlap_50(h6):
    """Exact-state-targeted overlap run on H6 to 50 operators (shared, ~4 s)."""
    return oada.run_overlap_adapt(h6.fci_state(), h6.pool, 50,
                                  n_electrons=h6.n_electrons, hamiltonian=h6.ham)


@pytest.fixture(scope="session")
def h6_infidelity_curves(h6, h6_adapt_50, h6_overlap_50):
    """Per-parameter infidelity of both H6 runs, from replayed iterates."""
    target = h6.fci_state()
    ansatz, trace = h6_adapt_50
    adapt_infid = []
    for rec in trace.records:
        prefix = Ansatz(h6.n, h6.n_electrons,
                        list(ansatz.excitations[:rec.n_params]), list(rec.thetas))
        adapt_infid.append(1.0 - abs(overlap(target, apply_ansatz(prefix))) ** 2)
    _, oa_trace = h6_overlap_50
    oa_infid = [rec.infidelity for rec in oa_trace.records]
    return np.array(adapt_infid), np.array(oa_infid)


@pytest.fixture(scope="session")
def h6_cipsi_pipeline(h6):
    """Criterion-style two-stage run: CIPSI(50) target, overlap 20, budget 50."""
    return oada.pipeline(h6.mol, h6.ham, h6.pool, "cipsi", 20, 50,
                         cipsi_max_dets=50, e_ref=h6.e_fci)
