"""The adaptive growth loop, its trace, and the energy stage.

Both stages run `grow`. Each iteration screens every pool operator by its
gradient at zero angle, appends the best one, and re-optimizes every angle
from the previous optimum (warm start, new angle at 0, and the previous
solve's inverse Hessian bordered with 1 for it). The stages differ only in
the screen, the objective and the threshold: `run_adapt` screens the
energy gradient and minimizes the energy; `overlap_adapt.run_overlap_adapt`
screens |<target|T|psi>| and maximizes the overlap. Energy screening
shares one H|psi> across all candidates, so it costs a single Hamiltonian
application.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .fcidump import FcidumpError
from .optimizer import minimize
from .pool import DoubleExcitation, SingleExcitation, ansatz_resource_counts
from .statevector import (Ansatz, Basis, ProjectedOperator, Statevector, _pair_bracket,
                          apply_ansatz, energy_and_gradient)

__all__ = [
    "EnergyRecord",
    "GrowthTrace",
    "TIE_RTOL",
    "select_operator",
    "screen_energy_gradients",
    "sector_hamiltonian",
    "run_adapt",
    "save_ansatz",
    "load_ansatz",
]

logger = logging.getLogger(__name__)

# Screening gradients within this relative distance of the largest count as
# tied. Symmetry-equivalent operators have equal gradients in exact
# arithmetic, but the optimizer's stopping point leaves them a few 1e-9
# apart (relative), which would otherwise decide the pick.
TIE_RTOL = 1e-6


@dataclass
class EnergyRecord:
    COLUMNS: ClassVar[str] = "iter,op_id,kind,grad,energy,error_vs_fci,params,cnots,evals"

    iteration: int
    op_id: int
    kind: str
    gradient: float
    energy: float
    error_vs_ref: float
    n_params: int
    cnots: int
    n_evaluations: int
    optimizer_converged: bool = True
    thetas: tuple = ()

    def csv_row(self):
        return (f"{self.iteration},{self.op_id},{self.kind},{self.gradient!r},"
                f"{self.energy!r},{self.error_vs_ref!r},{self.n_params},"
                f"{self.cnots},{self.n_evaluations}")


@dataclass
class GrowthTrace:
    """One stage's records, one per appended operator, and why it stopped."""

    columns: str
    records: list = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self):
        return "\n".join([self.columns] + [r.csv_row() for r in self.records]) + "\n"

    def energies(self):
        return np.array([r.energy for r in self.records])

    @property
    def final_energy(self):
        return self.records[-1].energy if self.records else np.nan


def screen_energy_gradients(state: Statevector, hamiltonian, pool):
    """d/dtheta <psi|U^ H U|psi> at theta=0 for every pool operator.

    Equals <psi|[H, T]|psi> = 2 Re <H psi|T psi> for the anti-hermitian
    generator T; the single H|psi> is shared across all candidates. The
    Hamiltonian is taken in the state's basis.
    """
    basis = state.basis
    h_psi = basis.project(hamiltonian).matrix @ state.amplitudes
    return np.array([2.0 * _pair_bracket(h_psi, state.amplitudes,
                                         basis.pairs(op.excitation)).real
                     for op in pool])


def select_operator(grads) -> int:
    """Pool position of the operator to append: the largest |gradient|,
    with every candidate within `TIE_RTOL` of it going to the lowest
    position (pools are in id order, so the lowest id)."""
    magnitudes = np.abs(grads)
    return int(np.argmax(magnitudes >= magnitudes.max() * (1.0 - TIE_RTOL)))


def sector_hamiltonian(hamiltonian, n_qubits, n_electrons) -> ProjectedOperator:
    """The Hamiltonian in the Hartree-Fock sector, where the adaptive loops
    run; an operator already projected is used as it is."""
    if isinstance(hamiltonian, ProjectedOperator):
        return hamiltonian
    return Basis.sector(n_qubits, n_electrons).project(hamiltonian)


def grow(ansatz: Ansatz, pool, basis: Basis, screen, objective, make_record,
         trace: GrowthTrace, *, threshold, budget, gtol, max_opt_iter, stage):
    """Grow `ansatz` in place until the gradient or budget stop fires.

    Args:
        ansatz: the starting ansatz; operators are appended to it and its
            angles re-optimized.
        basis: the basis the ansatz state is simulated in.
        screen: state -> zero-angle gradient of every pool operator.
        objective: angles -> (value, gradient) of `ansatz`, minimized.
        make_record: (iteration, pool operator, |gradient|, OptimizeResult)
            -> the trace record of that iteration.
        trace: receives the records and the stop reason.
        threshold: stop when the largest |gradient| is below this.
        budget: stop when the ansatz holds this many operators (None: never).
        stage: names the stage in the optimizer's near-miss log line.

    Returns:
        trace
    """
    iteration = len(ansatz)
    hess_inv = None  # the stage's first solve starts from the identity
    while True:
        grads = screen(apply_ansatz(ansatz, basis=basis))
        best = select_operator(grads)
        gmax = float(abs(grads[best]))
        if gmax < threshold:
            trace.stop_reason = "gradient"
            return trace
        if budget is not None and len(ansatz) >= budget:
            trace.stop_reason = "budget"
            return trace
        iteration += 1
        ansatz.append(pool[best].excitation, 0.0)
        result = minimize(objective, ansatz.thetas, gtol=gtol, max_iter=max_opt_iter,
                          hess_inv0=hess_inv)
        ansatz.thetas = [float(t) for t in result.theta_opt]
        hess_inv = result.hess_inv
        if not result.converged:
            # Near-misses (line search giving up within 10x of gtol) are routine.
            level = logging.DEBUG if result.gradient_norm < 10 * gtol else logging.WARNING
            logger.log(level, "%s iteration %d: optimizer returned best-so-far "
                       "(gradient norm %.2e)", stage, iteration, result.gradient_norm)
        trace.records.append(make_record(iteration, pool[best], gmax, result))


def run_adapt(hamiltonian, pool, init: Ansatz = None, *,
              eps=1e-3, max_ops=None, gtol=1e-8, max_opt_iter=500,
              n_electrons=None, e_ref=None):
    """Grow and optimize an ansatz by energy-gradient screening until the
    gradient or budget stop fires.

    Args:
        hamiltonian: QubitOperator, or an operator already projected onto
            the Hartree-Fock sector (`sector_hamiltonian`).
        pool: operators from `build_pool`.
        init: starting ansatz; None starts from Hartree-Fock (requires
            n_electrons).
        eps: stop when the largest screening-gradient magnitude is below this.
        max_ops: stop when the ansatz holds this many operators.
        e_ref: reference energy for the trace error column (NaN if absent).

    Returns:
        (optimized Ansatz, GrowthTrace of EnergyRecords)
    """
    if init is None:
        if n_electrons is None:
            raise ValueError("need init or n_electrons")
        init = Ansatz(hamiltonian.n_qubits, n_electrons)
    ansatz = init.copy()
    h_eval = sector_hamiltonian(hamiltonian, ansatz.n_qubits, ansatz.n_electrons)
    e_ref = np.nan if e_ref is None else float(e_ref)

    def record(iteration, op, gradient, result):
        return EnergyRecord(
            iteration=iteration,
            op_id=op.id,
            kind=op.kind,
            gradient=gradient,
            energy=result.objective_value,
            error_vs_ref=result.objective_value - e_ref,
            n_params=len(ansatz),
            cnots=ansatz_resource_counts(ansatz.excitations)[2],
            n_evaluations=result.n_evaluations,
            optimizer_converged=result.converged,
            thetas=tuple(ansatz.thetas),
        )

    trace = grow(ansatz, pool, h_eval.basis,
                 lambda psi: screen_energy_gradients(psi, h_eval, pool),
                 lambda theta: energy_and_gradient(ansatz, h_eval, theta),
                 record, GrowthTrace(EnergyRecord.COLUMNS), threshold=eps,
                 budget=max_ops, gtol=gtol, max_opt_iter=max_opt_iter, stage="ADAPT")
    return ansatz, trace


def save_ansatz(ansatz: Ansatz, path):
    """Text form: header, then `single p q theta` / `double p q r s theta`."""
    with open(path, "w") as fh:
        fh.write(f"n_qubits={ansatz.n_qubits} n_electrons={ansatz.n_electrons}\n")
        for exc, theta in zip(ansatz.excitations, ansatz.thetas):
            idx = " ".join(str(i) for i in exc.indices())
            fh.write(f"{exc.kind} {idx} {theta!r}\n")


def load_ansatz(path) -> Ansatz:
    """Read the text form of `save_ansatz`.

    Raises:
        FcidumpError: on a malformed header or excitation line.
    """
    with open(path) as fh:
        try:
            header = dict(part.split("=") for part in fh.readline().split())
            ansatz = Ansatz(int(header["n_qubits"]), int(header["n_electrons"]))
        except (KeyError, ValueError):
            raise FcidumpError(f"{path}: header must read "
                               "'n_qubits=<int> n_electrons=<int>'") from None
        for number, line in enumerate(fh, start=2):
            tokens = line.split()
            if not tokens:
                continue
            try:
                if tokens[0] == "single" and len(tokens) == 4:
                    ansatz.append(SingleExcitation(int(tokens[1]), int(tokens[2])),
                                  float(tokens[3]))
                elif tokens[0] == "double" and len(tokens) == 6:
                    ansatz.append(DoubleExcitation(*(int(t) for t in tokens[1:5])),
                                  float(tokens[5]))
                else:
                    raise ValueError
            except ValueError:
                raise FcidumpError(f"{path}:{number}: expected 'single p q theta' or "
                                   "'double p q r s theta'") from None
    return ansatz
