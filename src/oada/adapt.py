"""The adaptive growth loop, its record, and the energy stage.

Both stages run `grow`. Each iteration screens every pool operator by its
gradient at zero angle, appends the best one, and re-optimizes every angle
from the previous optimum (warm start, new angle at 0, and the previous
solve's inverse Hessian bordered with 1 for it). The stages differ only in
the screen, the objective, the threshold and how the energy of the
optimized iterate is read: `run_adapt` screens the energy gradient and
minimizes the energy, whose value is the record's energy;
`overlap_adapt.run_overlap_adapt` screens |<target|T|psi>|, maximizes the
overlap and reads <psi|H|psi>. Energy screening shares one H|psi> across
all candidates, so it costs a single Hamiltonian application, and that one
is the solve's own: each solve's lowest evaluation carries its state (and
H|psi>) into the record and the next screen, and, since a new angle of 0
leaves the state unchanged, its value and gradient into the next solve's
start. `grow` records each iteration of either stage as one
`GrowthRecord`, so both stages write one CSV format (`CSV_HEADER`)."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .fcidump import FcidumpError
from .optimizer import GTOL, NEAR_MISS, minimize
from .pool import DoubleExcitation, SingleExcitation, ansatz_resource_counts, check_excitation
from .statevector import (Ansatz, Basis, PoolScreen, Statevector, apply_ansatz,
                          energy_and_gradient)

__all__ = [
    "CSV_HEADER",
    "GrowthRecord",
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


# The one trace CSV header, for the rows of both stages.
CSV_HEADER = ("stage,iter,op_id,kind,grad,energy,error_vs_fci,infidelity,params,"
              "cnots,evals,stop")


@dataclass
class GrowthRecord:
    """One iteration of either stage: the operator appended, its screening
    gradient, and the optimized iterate. The infidelity is NaN in the
    energy stage; `stop` is why the iteration's solve ended
    (`OptimizeResult.stop`)."""

    stage: str  # "overlap" or "energy"
    iteration: int
    op_id: int
    kind: str
    gradient: float
    energy: float
    error_vs_ref: float
    infidelity: float
    n_params: int
    cnots: int
    n_evaluations: int
    stop: str
    thetas: tuple


@dataclass
class GrowthTrace:
    """One stage's records, one per appended operator, and why it stopped."""

    records: list = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self, *later):
        """`CSV_HEADER`, this trace's rows, then the rows of each trace in
        `later` (a pipeline writes its overlap trace, then its energy trace)."""
        rows = [CSV_HEADER]
        for r in (record for trace in (self, *later) for record in trace.records):
            rows.append(f"{r.stage},{r.iteration},{r.op_id},{r.kind},{r.gradient!r},"
                        f"{r.energy!r},{r.error_vs_ref!r},{r.infidelity!r},{r.n_params},"
                        f"{r.cnots},{r.n_evaluations},{r.stop}")
        return "\n".join(rows) + "\n"

    def energies(self):
        return np.array([r.energy for r in self.records])

    @property
    def final_energy(self):
        return self.records[-1].energy if self.records else np.nan


def screen_energy_gradients(state: Statevector, h_psi, pool: PoolScreen):
    """d/dtheta <psi|U^ H U|psi> at theta=0 for every operator of `pool`,
    a `PoolScreen` on the state's basis, from H|psi> (`h_psi`, in that
    basis too).

    Equals <psi|[H, T]|psi> = 2 <H psi|T psi> for the real anti-symmetric
    generator T; the single H|psi> is shared across all candidates, and all
    brackets are taken in one pass (`PoolScreen.brackets`). The growth loop
    hands in the H|psi> of the solve's lowest evaluation, so a screen
    applies no Hamiltonian.

    Raises:
        ValueError: when the pool screen was built on another basis.
    """
    if pool.basis != state.basis:
        raise ValueError("the pool screen was built on another basis than the state's")
    return 2.0 * pool.brackets(h_psi, state.amplitudes)


def select_operator(grads) -> int:
    """Pool position of the operator to append: the largest |gradient|,
    with every candidate within `TIE_RTOL` of it going to the lowest
    position (pools are in id order, so the lowest id)."""
    magnitudes = np.abs(grads)
    return int(np.argmax(magnitudes >= magnitudes.max() * (1.0 - TIE_RTOL)))


def grow(ansatz: Ansatz, stage, *, threshold, budget, e_ref=np.nan):
    """Grow `ansatz` in place until the gradient or budget stop fires, and
    record each iteration.

    `stage` is the stage's objective and screen over `ansatz` (`EnergyStage`
    or `overlap_adapt.OverlapStage`). Its `objective(theta)` returns
    (value, gradient, state, aux): the minimized objective, its gradient,
    the state psi and the stage's by-product of psi (`aux`); `minimize`
    returns state and aux of its lowest evaluation. Besides `name` and the
    `pool` screen it provides:

    - `at(state) -> (value, aux)` for the state of the given ansatz;
    - `screen(state, aux) -> gradients`, signed, one per pool operator, the
      largest magnitude appended;
    - `slope(aux, gradient)`, the objective's derivative along the new
      angle at 0 from the operator's screen gradient;
    - `energy(state, aux, value)`, the energy recorded for the iterate.

    Each solve starts from the previous optimum, the new angle at 0, and
    the previous solve's inverse Hessian bordered with 1. G(0) is the
    identity, so the objective there is known: the optimum's value, and its
    gradient with the new angle's slope appended. Only the first solve of a
    stage whose ansatz arrives with angles evaluates its start.

    Args:
        ansatz: the starting ansatz; operators are appended to it and its
            angles re-optimized.
        stage: the stage, as above.
        threshold: stop when the largest |gradient| is below this.
        budget: stop when the ansatz holds this many operators (None: never).
        e_ref: reference energy of the records' error (NaN: none).

    Returns:
        GrowthTrace of the stage's GrowthRecords and its stop reason.

    Raises:
        ValueError: when threshold is not positive and budget is None, so
            that no stop could ever fire, or when the pool is empty.
    """
    name, pool = stage.name, stage.pool
    if not threshold > 0 and budget is None:
        raise ValueError(f"need a stopping rule: {name} threshold {threshold} "
                         "with no budget never stops")
    if not pool.operators:
        raise ValueError(f"the {name} pool is empty: there is no operator to screen")
    trace = GrowthTrace()
    iteration = len(ansatz)
    hess_inv = None  # the stage's first solve starts from the identity
    state = apply_ansatz(ansatz, basis=pool.basis)
    value, aux = stage.at(state)
    grad = None if len(ansatz) else np.zeros(0)  # the objective's gradient, when known
    while True:
        grads = stage.screen(state, aux)
        best = select_operator(grads)
        gmax = float(abs(grads[best]))
        if gmax < threshold:
            trace.stop_reason = "gradient"
            return trace
        if budget is not None and len(ansatz) >= budget:
            trace.stop_reason = "budget"
            return trace
        iteration += 1
        op = pool.operators[best]
        ansatz.append(op.excitation, 0.0)
        start = (None if grad is None else
                 (value, np.append(grad, stage.slope(aux, grads[best])), state, aux))
        result = minimize(stage.objective, ansatz.thetas, hess_inv0=hess_inv, start=start)
        ansatz.thetas = [float(t) for t in result.theta_opt]
        hess_inv = result.hess_inv
        value, grad, (state, aux) = result.objective_value, result.gradient, result.extra
        if not result.converged:
            # Floor stops and other near-misses (within NEAR_MISS x GTOL) are routine.
            routine = result.stop == "floor" or result.gradient_norm < NEAR_MISS * GTOL
            logger.log(logging.DEBUG if routine else logging.WARNING,
                       "%s iteration %d: optimizer stopped by %s "
                       "(gradient norm %.2e)", name, iteration, result.stop,
                       result.gradient_norm)
        energy = stage.energy(state, aux, value)
        trace.records.append(GrowthRecord(
            stage=name, iteration=iteration, op_id=op.id, kind=op.kind, gradient=gmax,
            energy=energy, error_vs_ref=energy - e_ref,
            infidelity=value if name == "overlap" else np.nan,
            n_params=len(ansatz), cnots=ansatz_resource_counts(ansatz.excitations)[2],
            n_evaluations=result.n_evaluations, stop=result.stop,
            thetas=tuple(ansatz.thetas)))


class EnergyStage:
    """The energy stage of `grow` over `ansatz`: minimize <psi|H|psi> and
    screen 2 <H psi|T|psi>; aux is H|psi>, shared by the record (the value)
    and the next screen."""

    name = "energy"

    def __init__(self, ansatz: Ansatz, h, pool: PoolScreen):
        self.ansatz, self.h, self.pool = ansatz, h, pool

    def objective(self, theta):
        return energy_and_gradient(self.ansatz, self.h, theta, with_state=True)

    def at(self, state):
        h_psi = self.h.matrix @ state.amplitudes
        return float(np.vdot(state.amplitudes, h_psi)), h_psi

    def screen(self, state, h_psi):
        return screen_energy_gradients(state, h_psi, self.pool)

    def slope(self, h_psi, gradient):
        return gradient

    def energy(self, state, h_psi, value):
        return value


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
        (optimized Ansatz, GrowthTrace of the energy stage's GrowthRecords)
    """
    if init is None:
        if n_electrons is None:
            raise ValueError("need init or n_electrons")
        init = Ansatz(hamiltonian.n_qubits, n_electrons)
    ansatz = init.copy()
    h_eval = Basis.sector(ansatz.n_qubits, ansatz.n_electrons).project(hamiltonian)
    stage = EnergyStage(ansatz, h_eval, PoolScreen(h_eval.basis, pool))
    trace = grow(ansatz, stage, threshold=eps, budget=max_ops,
                 e_ref=np.nan if e_ref is None else float(e_ref))
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
