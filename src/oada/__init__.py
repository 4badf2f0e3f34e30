"""oada: overlap-guided adaptive ansatz construction for variational
quantum eigensolvers, with exact statevector simulation and selected-CI
targets.

Typical flow: parse an FCIDUMP, map the Hamiltonian to qubits, build the
restricted excitation pool, then run the adaptive loop (`run_adapt`), the
overlap-guided loop (`run_overlap_adapt`), or a two-stage `pipeline`.
"""

from .adapt import GrowthTrace, load_ansatz, run_adapt, save_ansatz, screen_energy_gradients
from .ci import (CipsiState, export_statevector, fci_ground_state, run_cipsi,
                 sector_ground_state, slater_condon)
from .errors import ConvergenceError, DimensionCapError, ObjectiveError
from .fcidump import (FcidumpData, FcidumpError, MolecularHamiltonian, dump_fcidump,
                      parse_fcidump, read_fcidump, reference_energies,
                      to_spin_orbital)
from .fixtures import available_fixtures, fixture_path
from .optimizer import OptimizeResult, minimize
from .overlap_adapt import (four_angle_gradient, pipeline, run_overlap_adapt,
                            screen_overlap_gradients)
from .pauli import (PauliString, QubitOperator, format_operator, jw_annihilation,
                    jw_creation, jw_hamiltonian)
from .pool import (DoubleExcitation, PoolOperator, SingleExcitation,
                   ansatz_resource_counts, build_pool, cnot_count)
from .statevector import (Ansatz, PoolScreen, Statevector, apply_ansatz, apply_excitation,
                          energy_and_gradient, expectation, overlap,
                          overlap_and_gradient, prepare_hf)

__version__ = "0.1.0"
