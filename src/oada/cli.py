"""Experiment driver: reproduce the convergence studies as CSV traces.

Subcommands: run, dump-pool, dump-hamiltonian, verify. `run` does every
computation, chosen by --method: FCI, CIPSI, the adaptive energy loop or
one of the overlap-guided pipelines. It accepts a plain key=value config
file; command-line flags win over config values. The other three print
the pool, the qubit Hamiltonian or the invariant checks of an input.

Every method but fci writes one trace CSV: cipsi a row per step, the
growing methods `adapt.CSV_HEADER` rows (a pipeline's overlap rows, then
its energy rows) and a summary line that ends with each stage's stop.

`--log-level` (before the subcommand, default warning) sets the least
severity of the package's log lines printed to stderr, such as the
optimizer's near-miss warnings (debug adds the routine floor stops).

Exit codes follow the exception type, each with a one-line diagnostic:
2 bad input (FcidumpError, a usage error, a missing file), 3 a dimension cap
(DimensionCapError), 4 a non-finite objective (ObjectiveError), 1 any
other ValueError or a Davidson run that did not converge (ConvergenceError).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from contextlib import contextmanager
from typing import NamedTuple

from . import ci
from .adapt import CSV_HEADER, load_ansatz, run_adapt, save_ansatz
from .errors import ConvergenceError, DimensionCapError, ObjectiveError
from .fcidump import FcidumpError, read_fcidump, reference_energies, to_spin_orbital
from .overlap_adapt import pipeline
from .pauli import format_operator, jw_hamiltonian
from .pool import ansatz_resource_counts, build_pool, format_pool
from .statevector import Basis, apply_ansatz, energy_and_gradient, format_state
from .verify import run_verification


class Method(NamedTuple):
    """A `run` method: the target `overlap_adapt.pipeline` builds (None: no
    pipeline), the optional flags it reads (any other one, by flag or config
    key, exits 2) and the flag groups it needs one flag of at least."""
    source: str | None
    flags: tuple
    needs: tuple = ()


_GROW = ("max_ops", "eps", "out_trace", "out_ansatz", "dump_state", "gnuplot")
_OVERLAP = _GROW + ("p_overlap",)
_CIPSI_STOP = ("cipsi_max_dets", "cipsi_target_e2")
METHODS = {
    "adapt": Method(None, _GROW),
    "overlap-adapt-fci": Method("fci", _OVERLAP, (("max_ops",),)),
    "overlap-adapt-cipsi": Method("cipsi", _OVERLAP + _CIPSI_STOP,
                                  (("max_ops",), _CIPSI_STOP)),
    "overlap-adapt-ansatz": Method("adapt-ansatz", _OVERLAP + ("target_ansatz",),
                                   (("max_ops",), ("target_ansatz",))),
    "overlap-adapt-wavefunction": Method("wavefunction", _OVERLAP + ("target_wavefunction",),
                                         (("max_ops",), ("target_wavefunction",))),
    "cipsi": Method(None, _CIPSI_STOP + ("out_trace", "out_wavefunction"), (_CIPSI_STOP,)),
    "fci": Method(None, ("out_wavefunction", "dump_state")),
}

LOG_LEVELS = ("debug", "info", "warning", "error")

DEFAULT_TRACE = "trace.csv"  # where every method but fci writes its trace

EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_OPTIMIZER = 4

GNUPLOT_TEMPLATE = """set datafile separator ','
set logscale y
set xlabel 'parameters in the ansatz'
set ylabel 'energy error vs FCI (Ha)'
set object 1 rect from graph 0, first 1e-10 to graph 1, first 1e-3 fc rgb '#ffccdd' fs solid 0.3 noborder
plot '{trace}' every ::1 using {params}:{error_vs_fci} with linespoints title '{title}'
"""


def _read_config(path):
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise FcidumpError(f"config line without '=': {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_defaults(path, parser):
    """The config file's values, parsed by the `run` `parser` as the flags
    they name; `main` takes each one whose flag the command line omits."""
    config = _read_config(path)
    dests = {action.dest for action in parser._actions} - {"help", "config"}
    unknown = sorted(set(config) - dests)
    if unknown:
        raise FcidumpError(f"unknown config keys: {', '.join(unknown)}")
    try:
        values = parser.parse_args([f"{_flag(key)}={raw}" for key, raw in config.items()])
    except FcidumpError as exc:
        raise FcidumpError(f"config {path}: {exc}") from None
    return {key: getattr(values, key) for key in config}


def _flag(dest):
    return "--" + dest.replace("_", "-")


def _load_problem(args):
    data = read_fcidump(args.fcidump)
    refs = reference_energies(args.fcidump)
    mol = to_spin_orbital(data)
    return mol, refs


def _cipsi_trace(h_sector, args):
    """Run CIPSI to the stop rule; (final state, trace CSV rows)."""
    rows = ["iter,dets,e_v,e2,e_cipsi"]
    size = 0
    for state in ci.cipsi_states(h_sector, args.cipsi_target_e2, args.cipsi_max_dets):
        if len(state.dets) > size:  # a last step that adds nothing gets no row
            size = len(state.dets)
            pt2 = f"{state.e_pt2!r},{state.e_cipsi!r}" if state.iteration else "nan,nan"
            rows.append(f"{state.iteration},{size},{state.e_variational!r},{pt2}")
    return state, rows


def _summary_line(method, energy, e_ref, excitations, trace, overlap_trace):
    """The run's last line; it ends with the stop reason of each stage, the
    overlap stage's (when there is one) first."""
    sq, dq, cnots = ansatz_resource_counts(excitations)
    err = energy - e_ref if e_ref is not None else math.nan
    stops = f"stop={trace.stop_reason}"
    if overlap_trace is not None:
        stops = f"overlap_stop={overlap_trace.stop_reason} {stops}"
    return (f"method={method} final_energy={energy:.12f} error_vs_fci={err:.6e} "
            f"params={len(excitations)} SQ={sq} DQ={dq} CNOTS={cnots} {stops}")


def _check_ansatz(ansatz, path, mol):
    found = (ansatz.n_qubits, ansatz.n_electrons)
    expected = (mol.n_spin_orbitals, mol.n_electrons)
    if found != expected:
        raise FcidumpError(f"{path}: n_qubits={found[0]} n_electrons={found[1]}, the "
                           f"molecule has n_qubits={expected[0]} n_electrons={expected[1]}")


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def cmd_run(args):
    mol, refs = _load_problem(args)
    n = mol.n_spin_orbitals
    # Every method works on the Jordan-Wigner Hamiltonian projected onto the
    # Hartree-Fock sector; `verify` checks it against the Slater-Condon
    # matrix, which is not built here.
    h_sector = Basis.sector(n, mol.n_electrons).project(jw_hamiltonian(mol))

    if args.method == "fci":
        energy, state = ci.sector_ground_state(h_sector)
        print(f"E_FCI = {energy:.12f}")
        if "REF_FCI" in refs:
            print(f"REF_FCI = {refs['REF_FCI']:.12f} (diff {energy - refs['REF_FCI']:.2e})")
        if args.out_wavefunction:
            ci.write_wavefunction(state, args.out_wavefunction)
        if args.dump_state:
            _write(args.dump_state, format_state(state) + "\n")
        return 0

    if args.method == "cipsi":
        state, rows = _cipsi_trace(h_sector, args)
        _write(args.out_trace or DEFAULT_TRACE, "\n".join(rows) + "\n")
        print(f"E_v = {state.e_variational:.12f}  E2 = {state.e_pt2:.6e}  "
              f"E_CIPSI = {state.e_cipsi:.12f}  dets = {len(state.dets)}")
        if args.out_wavefunction:
            ci.write_wavefunction(state.statevector(h_sector.basis), args.out_wavefunction)
        return 0

    e_ref = refs["REF_FCI"] if "REF_FCI" in refs else ci.sector_ground_state(h_sector)[0]
    pool = build_pool(n, mol.n_electrons)

    eps = args.eps if args.eps is not None else (1e-8 if args.max_ops is not None else 1e-3)
    if args.method == "adapt":
        ansatz, trace = run_adapt(h_sector, pool, n_electrons=mol.n_electrons,
                                  eps=eps, max_ops=args.max_ops, e_ref=e_ref)
        overlap_trace = None
    else:
        p_overlap = args.p_overlap
        if p_overlap is None:
            p_overlap = max(1, round(0.45 * args.max_ops))  # 40-50% rule of thumb
        target_wavefunction = None
        if args.target_wavefunction:
            target_wavefunction = ci.read_wavefunction(args.target_wavefunction,
                                                       h_sector.basis)
        target_ansatz = None
        if args.target_ansatz:
            target_ansatz = load_ansatz(args.target_ansatz)
            _check_ansatz(target_ansatz, args.target_ansatz, mol)
        result = pipeline(mol, h_sector, pool, METHODS[args.method].source, p_overlap,
                          args.max_ops, cipsi_max_dets=args.cipsi_max_dets,
                          cipsi_target_e2=args.cipsi_target_e2,
                          target_ansatz=target_ansatz,
                          target_wavefunction=target_wavefunction, eps=eps, e_ref=e_ref)
        ansatz, trace, overlap_trace = result.ansatz, result.adapt_trace, result.overlap_trace

    out_trace = args.out_trace or DEFAULT_TRACE
    # One file: a pipeline's overlap rows, then its energy rows.
    _write(out_trace, trace.to_csv() if overlap_trace is None
           else overlap_trace.to_csv(trace))
    if args.out_ansatz:
        save_ansatz(ansatz, args.out_ansatz)
    if args.dump_state:
        _write(args.dump_state,
               format_state(apply_ansatz(ansatz, basis=h_sector.basis)) + "\n")
    if args.gnuplot:
        # gnuplot counts the trace's columns from 1
        columns = {name: i + 1 for i, name in enumerate(CSV_HEADER.split(","))}
        _write(args.gnuplot, GNUPLOT_TEMPLATE.format(trace=out_trace, title=args.method,
                                                     **columns))
    if trace.records:
        final_energy = trace.final_energy
    else:
        # No operator was added in the last stage: report the ansatz as it stands.
        final_energy, _ = energy_and_gradient(ansatz, h_sector)
    print(_summary_line(args.method, final_energy, e_ref, ansatz.excitations, trace,
                        overlap_trace))
    return 0


def cmd_dump_pool(args):
    mol, _ = _load_problem(args)
    print(format_pool(build_pool(mol.n_spin_orbitals, mol.n_electrons)))
    return 0


def cmd_dump_hamiltonian(args):
    mol, _ = _load_problem(args)
    print(format_operator(jw_hamiltonian(mol)))
    return 0


def cmd_verify(args):
    checks = run_verification(args.fcidump)
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{status}: {name}{suffix}")
        failed += 0 if ok else 1
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as FcidumpError, which `main` prints as one
    line and exits 2 on, instead of printing the usage text."""

    def error(self, message):
        raise FcidumpError(message)


def build_parser():
    parser = _Parser(
        prog="oada",
        description="Adaptive and overlap-guided ansatz experiments on FCIDUMP inputs")
    parser.add_argument("--log-level", choices=LOG_LEVELS, default="warning",
                        help="least severity of the log lines printed to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("--fcidump", required=False)
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--max-ops", type=int)
    run.add_argument("--p-overlap", type=int)
    run.add_argument("--eps", type=float,
                     help="gradient stop; default 1e-3, or 1e-8 when --max-ops is given")
    run.add_argument("--cipsi-max-dets", type=int)
    run.add_argument("--cipsi-target-e2", type=float)
    run.add_argument("--target-ansatz")
    run.add_argument("--target-wavefunction",
                     help="stored .dets expansion, the overlap-adapt-wavefunction target")
    run.add_argument("--out-trace", help=f"trace CSV; default {DEFAULT_TRACE}")
    run.add_argument("--out-ansatz")
    run.add_argument("--out-wavefunction")
    run.add_argument("--dump-state")
    run.add_argument("--gnuplot", help="write a ready-to-plot gnuplot script")
    run.set_defaults(func=cmd_run)

    dp = sub.add_parser("dump-pool", help="print the operator pool")
    dp.add_argument("--fcidump", required=True)
    dp.set_defaults(func=cmd_dump_pool)

    dh = sub.add_parser("dump-hamiltonian", help="print the qubit Hamiltonian")
    dh.add_argument("--fcidump", required=True)
    dh.set_defaults(func=cmd_dump_hamiltonian)

    ver = sub.add_parser("verify", help="run the invariant suite on a fixture")
    ver.add_argument("--fcidump", required=True)
    ver.set_defaults(func=cmd_verify)

    parser.run_parser = run
    return parser


@contextmanager
def _log_to_stderr(level):
    """Print the package's log records at `level` and above to stderr, one
    line each as 'LEVEL: message', until the block ends."""
    package = logging.getLogger(__package__)
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    saved = package.level
    package.setLevel(level.upper())
    package.addHandler(handler)
    try:
        yield
    finally:
        package.removeHandler(handler)
        package.setLevel(saved)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            if args.config:
                for key, value in _config_defaults(args.config, parser.run_parser).items():
                    if getattr(args, key) is None:  # the flag wins
                        setattr(args, key, value)
            for dest in ("fcidump", "method"):
                if getattr(args, dest) is None:
                    raise FcidumpError(f"run needs {_flag(dest)} (flag or config)")
            method = METHODS[args.method]
            unread = [_flag(action.dest) for action in parser.run_parser._actions
                      if action.default is None and getattr(args, action.dest) is not None
                      and action.dest not in ("config", "fcidump", "method", *method.flags)]
            if unread:
                raise FcidumpError(f"--method {args.method} does not use "
                                   f"{', '.join(unread)}")
            for name in ("max_ops", "p_overlap", "eps", "cipsi_max_dets", "cipsi_target_e2"):
                value = getattr(args, name)
                if value is not None and not value > 0:  # NaN is not positive
                    raise FcidumpError(f"{_flag(name)} must be positive")
            if args.p_overlap is not None and args.max_ops is not None \
                    and args.p_overlap > args.max_ops:
                raise FcidumpError(f"--p-overlap {args.p_overlap} exceeds "
                                   f"--max-ops {args.max_ops}")
            for group in method.needs:
                if all(getattr(args, dest) is None for dest in group):
                    raise FcidumpError(f"--method {args.method} needs "
                                       f"{' and/or '.join(map(_flag, group))}")
        with _log_to_stderr(args.log_level):
            return args.func(args)
    except (FcidumpError, FileNotFoundError) as exc:
        return _fail(exc, EXIT_PARSE)
    except DimensionCapError as exc:
        return _fail(exc, EXIT_DIMENSION)
    except ObjectiveError as exc:
        return _fail(exc, EXIT_OPTIMIZER)
    except (ValueError, ConvergenceError) as exc:
        return _fail(exc, 1)


def _fail(exc, code):
    print(f"error: {exc}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
