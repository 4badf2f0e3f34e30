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
from .optimizer import GTOL, NEAR_MISS, minimize
from .pool import DoubleExcitation, SingleExcitation, ansatz_resource_counts, check_excitation
from .statevector import (Ansatz, Basis, PoolScreen, Statevector, apply_ansatz,
                          energy_and_gradient)

__all__ = [
    "EnergyRecord",
    "GrowthTrace",
    "TIE_RTOL",
    "select_operator",
    "screen_energy_gradients",
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


def screen_energy_gradients(state: Statevector, hamiltonian, pool: PoolScreen):
    """d/dtheta <psi|U^ H U|psi> at theta=0 for every operator of `pool`,
    a `PoolScreen` on the state's basis.

    Equals <psi|[H, T]|psi> = 2 <H psi|T psi> for the real anti-symmetric
    generator T; the single H|psi> is shared across all candidates, and all
    brackets are taken in one pass (`PoolScreen.brackets`). The
    Hamiltonian is taken in the state's basis.

    Raises:
        ValueError: when the pool screen was built on another basis.
    """
    basis = state.basis
    if pool.basis != basis:
        raise ValueError("the pool screen was built on another basis than the state's")
    h_psi = basis.project(hamiltonian).matrix @ state.amplitudes
    return 2.0 * pool.brackets(h_psi, state.amplitudes)


def select_operator(grads) -> int:
    """Pool position of the operator to append: the largest |gradient|,
    with every candidate within `TIE_RTOL` of it going to the lowest
    position (pools are in id order, so the lowest id)."""
    magnitudes = np.abs(grads)
    return int(np.argmax(magnitudes >= magnitudes.max() * (1.0 - TIE_RTOL)))


def grow(ansatz: Ansatz, pool: PoolScreen, screen, objective, make_record,
         trace: GrowthTrace, *, threshold, budget, stage):
    """Grow `ansatz` in place until the gradient or budget stop fires.

    Args:
        ansatz: the starting ansatz; operators are appended to it and its
            angles re-optimized.
        pool: the stage's pool screen; its `operators` are the candidates,
            and the ansatz state is simulated in its basis.
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

    Raises:
        ValueError: when threshold is not positive and budget is None, so
            that no stop could ever fire, or when the pool is empty.
    """
    if not threshold > 0 and budget is None:
        raise ValueError(f"need a stopping rule: {stage} threshold {threshold} "
                         "with no budget never stops")
    if not pool.operators:
        raise ValueError(f"the {stage} pool is empty: there is no operator to screen")
    iteration = len(ansatz)
    hess_inv = None  # the stage's first solve starts from the identity
    while True:
        grads = screen(apply_ansatz(ansatz, basis=pool.basis))
        best = select_operator(grads)
        gmax = float(abs(grads[best]))
        if gmax < threshold:
            trace.stop_reason = "gradient"
            return trace
        if budget is not None and len(ansatz) >= budget:
            trace.stop_reason = "budget"
            return trace
        iteration += 1
        ansatz.append(pool.operators[best].excitation, 0.0)
        result = minimize(objective, ansatz.thetas, hess_inv0=hess_inv)
        ansatz.thetas = [float(t) for t in result.theta_opt]
        hess_inv = result.hess_inv
        if not result.converged:
            # Floor stops and other near-misses (within NEAR_MISS x GTOL) are routine.
            routine = result.stop == "floor" or result.gradient_norm < NEAR_MISS * GTOL
            logger.log(logging.DEBUG if routine else logging.WARNING,
                       "%s iteration %d: optimizer stopped by %s "
                       "(gradient norm %.2e)", stage, iteration, result.stop,
                       result.gradient_norm)
        trace.records.append(make_record(iteration, pool.operators[best], gmax, result))


def run_adapt(hamiltonian, pool, init: Ansatz = None, *,
              eps=1e-3, max_ops=None, n_electrons=None, e_ref=None):
    """Grow and optimize an ansatz by energy-gradient screening until the
    gradient or budget stop fires.

    Args:
        hamiltonian: QubitOperator, or an operator already projected onto
            the Hartree-Fock sector (`Basis.sector(...).project`).
        pool: operators from `build_pool`.
        init: starting ansatz; None starts from Hartree-Fock (requires
            n_electrons).
        eps: stop when the largest screening-gradient magnitude is below
            this; it must be positive unless max_ops is given (ValueError).
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
    h_eval = Basis.sector(ansatz.n_qubits, ansatz.n_electrons).project(hamiltonian)
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

    screen = PoolScreen(h_eval.basis, pool)
    trace = grow(ansatz, screen, lambda psi: screen_energy_gradients(psi, h_eval, screen),
                 lambda theta: energy_and_gradient(ansatz, h_eval, theta),
                 record, GrowthTrace(EnergyRecord.COLUMNS), threshold=eps,
                 budget=max_ops, stage="ADAPT")
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
        FcidumpError: on a malformed header or excitation line, a
            non-finite angle, or an excitation that breaks `build_pool`'s
            rules for the header's n_qubits (`pool.check_excitation`).
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
                    excitation = SingleExcitation(int(tokens[1]), int(tokens[2]))
                elif tokens[0] == "double" and len(tokens) == 6:
                    excitation = DoubleExcitation(*(int(t) for t in tokens[1:5]))
                else:
                    raise ValueError
                theta = float(tokens[-1])
            except ValueError:
                raise FcidumpError(f"{path}:{number}: expected 'single p q theta' or "
                                   "'double p q r s theta'") from None
            if not np.isfinite(theta):
                raise FcidumpError(f"{path}:{number}: angle {tokens[-1]} is not a finite number")
            try:
                check_excitation(excitation, ansatz.n_qubits)
            except ValueError as exc:
                raise FcidumpError(f"{path}:{number}: {line.strip()!r}: {exc}") from None
            ansatz.append(excitation, theta)
    return ansatz
