"""Overlap-guided adaptive ansatz growth and the two-stage pipelines.

Instead of chasing energy drops, the ansatz is grown to maximize its
squared overlap with a target wavefunction (exact ground state, selected-CI
expansion, or a previously grown ansatz). The result then seeds a regular
adaptive energy run, which is the practical two-stage algorithm: the
overlap stage steers the operator selection past the energy plateaus that
trap a cold start. Both stages run the one growth loop, `adapt.grow`; this
one differs only in its screen, objective and threshold, and in reading
each iterate's energy as <psi|H|psi>. Its records are the energy stage's
`adapt.GrowthRecord`s with stage "overlap", so a pipeline's two traces
make one CSV: `overlap_trace.to_csv(adapt_trace)`.

Screening ranks by the zero-angle overlap derivative |<ref|T|psi>|; the
four-angle formula re-expresses that derivative through four overlap
magnitudes and is kept as a verification / measurement-model mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ci
from .adapt import GrowthTrace, grow, run_adapt
# Not called here: the benchmark's tracer patches these names, so they must exist.
from .optimizer import minimize  # noqa: F401
from .statevector import energy_and_gradient  # noqa: F401
from .statevector import (Ansatz, Basis, PoolScreen, Statevector, apply_ansatz,
                          apply_excitation, expectation, overlap, overlap_and_gradient)

__all__ = [
    "screen_overlap_gradients",
    "four_angle_gradient",
    "run_overlap_adapt",
    "pipeline",
    "PipelineResult",
]

# The overlap stage stops when the largest overlap-gradient magnitude falls
# below this.
GTOL_OVERLAP = 1e-7


def screen_overlap_gradients(reference: Statevector, state: Statevector, pool: PoolScreen):
    """d/dtheta <ref|exp(theta T)|psi> at theta=0 = <ref|T|psi> per operator
    of `pool`, a `PoolScreen` on the state's basis, all in one pass
    (`PoolScreen.brackets`). Signed: the screen ranks by magnitude, and the
    sign gives the infidelity's slope along the selected operator.

    Raises:
        ValueError: when the pool screen was built on another basis.
    """
    basis = state.basis
    if pool.basis != basis:
        raise ValueError("the pool screen was built on another basis than the state's")
    reference = basis.extract(reference)
    return pool.brackets(reference.amplitudes, state.amplitudes)


def four_angle_gradient(reference: Statevector, state: Statevector, excitation):
    """Overlap-gradient magnitude from four rotated-overlap measurements.

    Evaluates |<ref|T|psi>| through the combination
    |f(-pi/2)/2 - f(pi/2)/2 + 2/sqrt(3) (f(pi/3) - f(-pi/3))| / (2 |<ref|psi>|)
    with f(t) = |<ref|exp(t T)|psi>|^2, which holds because both states,
    and so the zero-angle gradient, are real.

    Raises:
        ValueError: when |<ref|psi>| vanishes and the formula is singular;
            use the direct inner product instead.
    """
    reference = state.basis.extract(reference)
    c0 = overlap(reference, state)
    if abs(c0) <= 1e-12:
        raise ValueError("current overlap is zero; the four-angle formula is "
                         "singular there, use screen_overlap_gradients instead")

    def f(theta):
        return abs(overlap(reference, apply_excitation(state, excitation, theta))) ** 2

    combo = (0.5 * f(-math.pi / 2) - 0.5 * f(math.pi / 2)
             + 2.0 / math.sqrt(3.0) * (f(math.pi / 3) - f(-math.pi / 3)))
    return abs(combo) / (2.0 * abs(c0))


def run_overlap_adapt(reference: Statevector, pool, p_max, *, n_electrons, hamiltonian=None):
    """Grow an ansatz from Hartree-Fock to maximize |<ref|psi>|^2, up to
    p_max operators or until the largest overlap gradient is below
    `GTOL_OVERLAP`.

    The objective minimized at each step is the infidelity
    1 - |<ref|psi(theta)>|^2, warm-started from the previous optimum and
    inverse Hessian (`OverlapStage`). When `hamiltonian` is given, each
    record also carries the energy <psi|H|psi> of the optimized iterate,
    read from the state the next screen uses (purely diagnostic; it never
    influences selection); without it the energy is NaN. The records' error
    column is NaN: the stage has no reference energy.
    The loop runs in the Hartree-Fock sector, the Hamiltonian's basis when
    it is already projected; the reference is extracted into it once.
    `pool` is a list of pool operators. The returned ansatz is a copy, which
    carries no sweep plan, so a pipeline's energy stage does not hold this
    stage's.

    Returns:
        (optimized Ansatz, GrowthTrace of the overlap stage's GrowthRecords)
    """
    ansatz = Ansatz(reference.n_qubits, n_electrons)
    basis = Basis.sector(ansatz.n_qubits, n_electrons)
    h_eval = None
    if hamiltonian is not None:
        h_eval = basis.project(hamiltonian)
        basis = h_eval.basis  # an operator passed through keeps its pair cache
    stage = OverlapStage(ansatz, basis.extract(reference), h_eval, PoolScreen(basis, pool))
    trace = grow(ansatz, stage, threshold=GTOL_OVERLAP, budget=p_max)
    return ansatz.copy(), trace


class OverlapStage:
    """The overlap stage of `adapt.grow` over `ansatz`: minimize the
    infidelity 1 - |<target|psi>|^2 and screen <target|T|psi>; aux is
    c = <target|psi>, by which the infidelity's slope along a new angle is
    -2 c <target|T|psi>. The recorded energy is <psi|H|psi> (NaN without
    `h`)."""

    name = "overlap"

    def __init__(self, ansatz: Ansatz, target: Statevector, h, pool: PoolScreen):
        self.ansatz, self.target, self.h, self.pool = ansatz, target, h, pool

    def objective(self, theta):
        value, grad, state, c = overlap_and_gradient(self.ansatz, self.target, theta,
                                                     with_state=True)
        return 1.0 - value, -grad, state, c

    def at(self, state):
        c = np.vdot(self.target.amplitudes, state.amplitudes)
        return 1.0 - float(abs(c) ** 2), c

    def screen(self, state, c):
        return screen_overlap_gradients(self.target, state, self.pool)

    def slope(self, c, bracket):
        return -(2.0 * (c * bracket))

    def energy(self, state, c, value):
        return np.nan if self.h is None else expectation(state, self.h)


@dataclass
class PipelineResult:
    """Outcome of `pipeline`. `target_state` lies in the Hartree-Fock sector."""

    ansatz: Ansatz
    adapt_trace: GrowthTrace
    overlap_trace: GrowthTrace
    target_state: Statevector
    target_energy: float = np.nan


def build_target(ref_source, h_sector, *, cipsi_max_dets=None, cipsi_target_e2=None,
                 target_ansatz=None, target_wavefunction=None):
    """Assemble the target state of a pipeline run, in the Hartree-Fock sector.

    `h_sector` is the Hamiltonian projected onto that sector; every target
    is built in its basis.
    ref_source 'fci' takes its lowest eigenpair (`ci.sector_ground_state`);
    'cipsi' runs the selected-CI loop on it and embeds the variational
    state; 'adapt-ansatz' applies a stored ansatz; 'wavefunction' embeds
    `target_wavefunction`, a Statevector such as `ci.read_wavefunction`
    returns, and normalizes it. The energy is NaN for the last two.

    Raises:
        ValueError: for an unknown source, or a wavefunction with no weight
            in the Hartree-Fock sector, where the loops run.
    """
    basis = h_sector.basis
    if ref_source == "fci":
        energy, target = ci.sector_ground_state(h_sector)
    elif ref_source == "cipsi":
        state = ci.run_cipsi(h_sector, target_e2=cipsi_target_e2, max_dets=cipsi_max_dets)
        target, energy = state.statevector(basis), state.e_variational
    elif ref_source == "adapt-ansatz":
        if target_ansatz is None:
            raise ValueError("ref_source 'adapt-ansatz' needs target_ansatz")
        target, energy = apply_ansatz(target_ansatz, basis=basis), np.nan
    elif ref_source == "wavefunction":
        if target_wavefunction is None:
            raise ValueError("ref_source 'wavefunction' needs target_wavefunction")
        target, energy = ci.export_statevector(target_wavefunction, basis), np.nan
    else:
        raise ValueError(f"unknown ref_source {ref_source!r}")
    return target, energy


def pipeline(mol, hamiltonian, pool, ref_source, p_overlap, p_total, *,
             cipsi_max_dets=None, cipsi_target_e2=None, target_ansatz=None,
             target_wavefunction=None, eps=1e-8, e_ref=None) -> PipelineResult:
    """Two-stage run: overlap-guided growth to p_overlap, then energy
    minimization to p_total.

    The Hamiltonian is projected onto the Hartree-Fock sector once (an
    operator already projected onto it is used as it is); the target and
    both stages live in that sector; each stage screens the pool through
    its own `PoolScreen`.

    Repeated compression is chaining: feed the returned ansatz back in as
    `target_ansatz` with ref_source 'adapt-ansatz'.

    Raises:
        ValueError: when p_overlap exceeds p_total; the energy stage would
            stop at once, with more operators than p_total.
    """
    if p_total is not None and p_overlap > p_total:
        raise ValueError(f"p_overlap={p_overlap} exceeds p_total={p_total}")
    h_sector = Basis.sector(mol.n_spin_orbitals, mol.n_electrons).project(hamiltonian)
    target, target_energy = build_target(
        ref_source, h_sector, cipsi_max_dets=cipsi_max_dets,
        cipsi_target_e2=cipsi_target_e2, target_ansatz=target_ansatz,
        target_wavefunction=target_wavefunction)
    overlap_ansatz, overlap_trace = run_overlap_adapt(
        target, pool, p_overlap, n_electrons=mol.n_electrons, hamiltonian=h_sector)
    ansatz, adapt_trace = run_adapt(
        h_sector, pool, init=overlap_ansatz, eps=eps, max_ops=p_total, e_ref=e_ref)
    return PipelineResult(ansatz, adapt_trace, overlap_trace, target, target_energy)
