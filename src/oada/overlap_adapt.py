"""Overlap-guided adaptive ansatz growth and the two-stage pipelines.

Instead of chasing energy drops, the ansatz is grown to maximize its
squared overlap with a target wavefunction (exact ground state, selected-CI
expansion, or a previously grown ansatz). The result then seeds a regular
adaptive energy run, which is the practical two-stage algorithm: the
overlap stage steers the operator selection past the energy plateaus that
trap a cold start.

Screening uses the zero-angle overlap derivative |<ref|T|psi>|; the
four-angle formula re-expresses that derivative through four overlap
magnitudes and is kept as a verification / measurement-model mode.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import ci
from .adapt import AdaptTrace, run_adapt, sector_hamiltonian
from .optimizer import minimize
from .statevector import (Ansatz, Basis, Statevector, _pair_bracket, apply_ansatz,
                          apply_excitation, energy_and_gradient, overlap,
                          overlap_and_gradient)

__all__ = [
    "OverlapRecord",
    "OverlapTrace",
    "screen_overlap_gradients",
    "four_angle_gradient",
    "run_overlap_adapt",
    "pipeline",
    "PipelineResult",
]

logger = logging.getLogger(__name__)

OVERLAP_TRACE_COLUMNS = "iter,op_id,kind,grad,infidelity,energy,params"
DEFAULT_GTOL_OVERLAP = 1e-7


@dataclass
class OverlapRecord:
    iteration: int
    op_id: int
    kind: str
    gradient: float
    infidelity: float
    energy: float
    n_params: int
    thetas: tuple = ()

    def csv_row(self):
        return (f"{self.iteration},{self.op_id},{self.kind},{self.gradient!r},"
                f"{self.infidelity!r},{self.energy!r},{self.n_params}")


@dataclass
class OverlapTrace:
    records: list = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self):
        return "\n".join([OVERLAP_TRACE_COLUMNS]
                         + [r.csv_row() for r in self.records]) + "\n"

    @property
    def final_infidelity(self):
        return self.records[-1].infidelity if self.records else np.nan


def screen_overlap_gradients(reference: Statevector, state: Statevector, pool):
    """|d/dtheta <ref|exp(theta T)|psi>| at theta=0 = |<ref|T|psi>| per operator,
    evaluated in the state's basis."""
    basis = state.basis
    reference = basis.extract(reference)
    return np.array([abs(_pair_bracket(reference.amplitudes, state.amplitudes,
                                       basis.pairs(op.excitation)))
                     for op in pool])


def four_angle_gradient(reference: Statevector, state: Statevector, excitation):
    """Overlap-gradient magnitude from four rotated-overlap measurements.

    Evaluates |<ref|T|psi>| through the combination
    |f(-pi/2)/2 - f(pi/2)/2 + 2/sqrt(3) (f(pi/3) - f(-pi/3))| / (2 |<ref|psi>|)
    with f(t) = |<ref|exp(t T)|psi>|^2, valid when the zero-angle gradient
    is real; a complex-phase violation is reported as a warning, not fixed.

    Raises:
        ValueError: when |<ref|psi>| vanishes and the formula is singular;
            use the direct inner product instead.
    """
    reference = state.basis.extract(reference)
    c0 = overlap(reference, state)
    if abs(c0) <= 1e-12:
        raise ValueError("current overlap is zero; the four-angle formula is "
                         "singular there, use screen_overlap_gradients instead")
    direct = _pair_bracket(reference.amplitudes, state.amplitudes,
                           state.basis.pairs(excitation))
    if abs(direct.imag) > 1e-8 * max(1.0, abs(direct)):
        warnings.warn("four-angle formula assumes a real overlap gradient; "
                      f"found imaginary part {direct.imag:.3e}", stacklevel=2)

    def f(theta):
        return abs(overlap(reference, apply_excitation(state, excitation, theta))) ** 2

    combo = (0.5 * f(-math.pi / 2) - 0.5 * f(math.pi / 2)
             + 2.0 / math.sqrt(3.0) * (f(math.pi / 3) - f(-math.pi / 3)))
    return abs(combo) / (2.0 * abs(c0))


def run_overlap_adapt(reference: Statevector, pool, p_max, init: Ansatz = None, *,
                      gtol_overlap=DEFAULT_GTOL_OVERLAP, gtol=1e-8,
                      max_opt_iter=500, n_electrons=None, hamiltonian=None,
                      restarts=0, seed=None):
    """Grow an ansatz to maximize |<ref|psi>|^2, up to p_max operators.

    The objective minimized at each step is the infidelity
    1 - |<ref|psi(theta)>|^2, warm-started from the previous optimum. When
    `hamiltonian` is given, each record also carries the energy of the
    optimized iterate (purely diagnostic; it never influences selection).
    The loop runs in the Hartree-Fock sector, the Hamiltonian's basis when
    it is already projected; the reference is extracted into it once.

    Returns:
        (optimized Ansatz, OverlapTrace)
    """
    if init is None:
        if n_electrons is None:
            raise ValueError("need init or n_electrons")
        init = Ansatz(reference.n_qubits, n_electrons)
    ansatz = init.copy()
    if hamiltonian is not None:
        h_eval = sector_hamiltonian(hamiltonian, ansatz.n_qubits, ansatz.n_electrons)
        basis = h_eval.basis
    else:
        h_eval, basis = None, Basis.sector(ansatz.n_qubits, ansatz.n_electrons)
    target = basis.extract(reference)
    trace = OverlapTrace()
    iteration = len(ansatz)
    while True:
        psi = apply_ansatz(ansatz, basis=basis)
        grads = screen_overlap_gradients(target, psi, pool)
        best = int(np.argmax(grads))  # ties resolve to the lowest id
        gmax = float(grads[best])
        if gmax < gtol_overlap:
            trace.stop_reason = "gradient"
            break
        if p_max is not None and len(ansatz) >= p_max:
            trace.stop_reason = "budget"
            break
        iteration += 1
        ansatz.append(pool[best].excitation, 0.0)

        def objective(theta):
            value, grad = overlap_and_gradient(ansatz, target, theta)
            return 1.0 - value, -grad

        result = minimize(objective, ansatz.thetas, gtol=gtol, max_iter=max_opt_iter,
                          restarts=restarts, seed=seed)
        ansatz.thetas = [float(t) for t in result.theta_opt]
        if not result.converged:
            level = logging.DEBUG if result.gradient_norm < 10 * gtol else logging.WARNING
            logger.log(level, "overlap iteration %d: optimizer returned best-so-far "
                       "(gradient norm %.2e)", iteration, result.gradient_norm)
        if h_eval is not None:
            energy, _ = energy_and_gradient(ansatz, h_eval)
        else:
            energy = np.nan
        trace.records.append(OverlapRecord(
            iteration=iteration,
            op_id=pool[best].id,
            kind=pool[best].kind,
            gradient=gmax,
            infidelity=result.objective_value,
            energy=energy,
            n_params=len(ansatz),
            thetas=tuple(ansatz.thetas),
        ))
    return ansatz, trace


@dataclass
class PipelineResult:
    """Outcome of `pipeline`. `target_state` lies in the Hartree-Fock sector."""

    ansatz: Ansatz
    adapt_trace: AdaptTrace
    overlap_trace: OverlapTrace
    target_state: Statevector
    target_energy: float = np.nan


def build_target(mol, ref_source, h_sector, *, cipsi_max_dets=None,
                 cipsi_target_e2=None, target_ansatz=None, target_wavefunction=None):
    """Assemble the target state of a pipeline run, in the Hartree-Fock sector.

    `h_sector` is the Hamiltonian projected onto that sector
    (`sector_hamiltonian`). ref_source 'fci' takes its lowest eigenpair
    (`ci.sector_ground_state`). 'cipsi' runs the selected-CI loop and
    embeds its expansion; 'adapt-ansatz' applies a stored ansatz;
    'wavefunction' embeds a determinant expansion loaded from the
    determinant text format. Each of these three is extracted into the
    sector once, here.

    Raises:
        ValueError: for an unknown source, or a target with no weight in
            the Hartree-Fock sector, where the loops run.
    """
    if ref_source == "fci":
        energy, target = ci.sector_ground_state(h_sector)
        return target, energy
    n_qubits = h_sector.n_qubits
    if ref_source == "cipsi":
        state = ci.run_cipsi(mol, target_e2=cipsi_target_e2, max_dets=cipsi_max_dets)
        wavefn = state.wavefunction(mol.n_spin_orbitals // 2)
        target, energy = ci.export_statevector(wavefn, n_qubits), state.e_variational
    elif ref_source == "adapt-ansatz":
        if target_ansatz is None:
            raise ValueError("ref_source 'adapt-ansatz' needs target_ansatz")
        target, energy = apply_ansatz(target_ansatz), np.nan
    elif ref_source == "wavefunction":
        if target_wavefunction is None:
            raise ValueError("ref_source 'wavefunction' needs target_wavefunction")
        target = ci.export_statevector(target_wavefunction, n_qubits)
        energy = target_wavefunction.energy if target_wavefunction.energy is not None \
            else np.nan
    else:
        raise ValueError(f"unknown ref_source {ref_source!r}")
    target = h_sector.basis.extract(target)
    if not np.any(target.amplitudes):
        raise ValueError(f"the {ref_source} target has no weight in the Hartree-Fock "
                         "sector the ansatz lives in")
    return target, energy


def pipeline(mol, hamiltonian, pool, ref_source, p_overlap, p_total, *,
             cipsi_max_dets=None, cipsi_target_e2=None, target_ansatz=None,
             target_wavefunction=None, eps=1e-8, gtol=1e-8,
             gtol_overlap=DEFAULT_GTOL_OVERLAP, e_ref=None,
             restarts=0, seed=None) -> PipelineResult:
    """Two-stage run: overlap-guided growth to p_overlap, then energy
    minimization to p_total.

    The Hamiltonian is projected onto the Hartree-Fock sector once (an
    operator already projected is used as it is); the target and both
    stages live in that sector.

    Repeated compression is chaining: feed the returned ansatz back in as
    `target_ansatz` with ref_source 'adapt-ansatz'.
    """
    h_sector = sector_hamiltonian(hamiltonian, mol.n_spin_orbitals, mol.n_electrons)
    target, target_energy = build_target(
        mol, ref_source, h_sector, cipsi_max_dets=cipsi_max_dets,
        cipsi_target_e2=cipsi_target_e2, target_ansatz=target_ansatz,
        target_wavefunction=target_wavefunction)
    overlap_ansatz, overlap_trace = run_overlap_adapt(
        target, pool, p_overlap, n_electrons=mol.n_electrons,
        gtol_overlap=gtol_overlap, gtol=gtol, hamiltonian=h_sector,
        restarts=restarts, seed=seed)
    ansatz, adapt_trace = run_adapt(
        h_sector, pool, init=overlap_ansatz, eps=eps, max_ops=p_total,
        gtol=gtol, e_ref=e_ref, restarts=restarts, seed=seed)
    return PipelineResult(ansatz, adapt_trace, overlap_trace, target, target_energy)
