"""Experiment driver: reproduce the convergence studies as CSV traces.

Subcommands: run, fci, run-cipsi, dump-pool, dump-hamiltonian, verify.
`run` accepts a plain key=value config file; command-line flags win over
config values.

Exit codes follow the exception type, each with a one-line diagnostic:
2 bad input (FcidumpError, a missing file), 3 a dimension cap
(DimensionCapError), 4 a non-finite objective (ObjectiveError), 1 any
other ValueError or a Davidson run that did not converge (ConvergenceError).
"""

from __future__ import annotations

import argparse
import math
import sys

from . import ci
from .adapt import load_ansatz, run_adapt, save_ansatz, sector_hamiltonian
from .errors import ConvergenceError, DimensionCapError, ObjectiveError
from .fcidump import FcidumpError, read_fcidump, reference_energies, to_spin_orbital
from .overlap_adapt import pipeline
from .pauli import format_operator, jw_hamiltonian
from .pool import ansatz_resource_counts, build_pool, format_pool
from .statevector import apply_ansatz, energy_and_gradient, format_state
from .verify import run_verification

METHODS = ("adapt", "overlap-adapt-fci", "overlap-adapt-cipsi",
           "overlap-adapt-ansatz", "cipsi", "fci")

EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_OPTIMIZER = 4

GNUPLOT_TEMPLATE = """set datafile separator ','
set logscale y
set xlabel 'parameters in the ansatz'
set ylabel 'energy error vs FCI (Ha)'
set object 1 rect from graph 0, first 1e-10 to graph 1, first 1e-3 fc rgb '#ffccdd' fs solid 0.3 noborder
plot '{trace}' every ::1 using 7:6 with linespoints title '{title}'
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


def _merge_config(args, parser):
    """Fill arguments the user left unset from the config file, typed."""
    if not getattr(args, "config", None):
        return args
    config = _read_config(args.config)
    for action in parser._actions:
        key = action.dest
        if key in ("help", "config") or key not in config:
            continue
        raw = config.pop(key)
        if getattr(args, key) is not None and getattr(args, key) != action.default:
            continue  # explicit flag wins
        if action.type is not None:
            setattr(args, key, action.type(raw))
        elif isinstance(action.default, bool) or action.const is True:
            setattr(args, key, raw.lower() in ("1", "true", "yes"))
        else:
            setattr(args, key, raw)
    if config:
        raise FcidumpError(f"unknown config keys: {', '.join(sorted(config))}")
    return args


def _load_problem(args):
    data = read_fcidump(args.fcidump)
    refs = reference_energies(args.fcidump)
    mol = to_spin_orbital(data)
    return mol, refs


def _solve_fci(mol, refs):
    """Slater-Condon FCI, printed with the fixture's REF_FCI when it has one."""
    energy, wavefn = ci.fci_ground_state(mol)
    print(f"E_FCI = {energy:.12f}")
    if "REF_FCI" in refs:
        print(f"REF_FCI = {refs['REF_FCI']:.12f} (diff {energy - refs['REF_FCI']:.2e})")
    return wavefn


def _cipsi_trace(mol, args):
    """Run CIPSI to the stop rule; (final state, trace CSV rows)."""
    rows = ["iter,dets,e_v,e2,e_cipsi"]
    size = 0
    for state in ci.cipsi_states(mol, args.cipsi_target_e2, args.cipsi_max_dets):
        if len(state.dets) > size:  # a last step that adds nothing gets no row
            size = len(state.dets)
            pt2 = f"{state.e_pt2!r},{state.e_cipsi!r}" if state.iteration else "nan,nan"
            rows.append(f"{state.iteration},{size},{state.e_variational!r},{pt2}")
    return state, rows


def _summary_line(method, energy, e_ref, excitations):
    sq, dq, cnots = ansatz_resource_counts(excitations)
    err = energy - e_ref if e_ref is not None else math.nan
    return (f"method={method} final_energy={energy:.12f} error_vs_fci={err:.6e} "
            f"params={len(excitations)} SQ={sq} DQ={dq} CNOTS={cnots}")


def _check_wavefunction(wavefn, path, mol):
    """A stored target must be written for the molecule's orbitals and sector."""
    norb = mol.n_spin_orbitals // 2
    if wavefn.norb != norb:
        raise FcidumpError(f"{path}: norb={wavefn.norb}, the molecule has norb={norb}")
    sector = (mol.n_alpha, mol.n_beta)
    found = {(d.alpha.bit_count(), d.beta.bit_count()) for d in wavefn.coefficients}
    if found != {sector}:
        raise FcidumpError(f"{path}: determinants with (N_alpha, N_beta) in "
                           f"{sorted(found)}, the molecule's sector is {sector}")


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

    if args.method == "fci":
        wavefn = _solve_fci(mol, refs)
        if args.out_wavefunction:
            ci.write_wavefunction(wavefn, args.out_wavefunction)
        if args.dump_state:
            _write(args.dump_state, format_state(ci.export_statevector(wavefn, n)) + "\n")
        return 0

    if args.method == "cipsi":
        if args.cipsi_max_dets is None and args.cipsi_target_e2 is None:
            raise FcidumpError("cipsi needs --cipsi-max-dets and/or --cipsi-target-e2")
        state, rows = _cipsi_trace(mol, args)
        _write(args.out_trace, "\n".join(rows) + "\n")
        print(f"E_v = {state.e_variational:.12f}  E2 = {state.e_pt2:.6e}  "
              f"E_CIPSI = {state.e_cipsi:.12f}  dets = {len(state.dets)}")
        if args.out_wavefunction:
            ci.write_wavefunction(state.wavefunction(n // 2), args.out_wavefunction)
        return 0

    ham = jw_hamiltonian(mol)
    h_sector = sector_hamiltonian(ham, n, mol.n_electrons)
    e_ref = None
    if not args.no_reference:
        e_ref = refs["REF_FCI"] if "REF_FCI" in refs else ci.sector_ground_state(h_sector)[0]
    pool = build_pool(n, mol.n_electrons)
    if args.dump_pool:
        _write(args.dump_pool, format_pool(pool) + "\n")
    if args.dump_hamiltonian:
        _write(args.dump_hamiltonian, format_operator(ham) + "\n")

    budget = args.p_total if args.p_total is not None else args.max_ops
    eps = args.eps if args.eps is not None else (1e-8 if budget is not None else 1e-3)
    common = dict(gtol=args.gtol, restarts=args.restarts, seed=args.seed)

    if args.method == "adapt":
        ansatz, trace = run_adapt(h_sector, pool, n_electrons=mol.n_electrons,
                                  eps=eps, max_ops=budget, e_ref=e_ref, **common)
        overlap_trace = None
    else:
        source = {"overlap-adapt-fci": "fci",
                  "overlap-adapt-cipsi": "cipsi",
                  "overlap-adapt-ansatz": "adapt-ansatz"}[args.method]
        if budget is None:
            raise FcidumpError("overlap methods need --p-total (or --max-ops)")
        p_overlap = args.p_overlap
        if p_overlap is None:
            p_overlap = max(1, round(0.45 * budget))  # 40-50% rule of thumb
        target_wavefunction = None
        if args.target_wavefunction:
            # a stored determinant expansion replaces the in-process target
            source = "wavefunction"
            target_wavefunction = ci.read_wavefunction(args.target_wavefunction)
            _check_wavefunction(target_wavefunction, args.target_wavefunction, mol)
        if source == "cipsi" and args.cipsi_max_dets is None \
                and args.cipsi_target_e2 is None:
            raise FcidumpError("overlap-adapt-cipsi needs --cipsi-max-dets "
                               "and/or --cipsi-target-e2 (or --target-wavefunction)")
        target_ansatz = None
        if args.target_ansatz:
            target_ansatz = load_ansatz(args.target_ansatz)
            _check_ansatz(target_ansatz, args.target_ansatz, mol)
        if source == "adapt-ansatz" and target_ansatz is None:
            raise FcidumpError("overlap-adapt-ansatz needs --target-ansatz")
        result = pipeline(mol, h_sector, pool, source, p_overlap, budget,
                          cipsi_max_dets=args.cipsi_max_dets,
                          cipsi_target_e2=args.cipsi_target_e2,
                          target_ansatz=target_ansatz,
                          target_wavefunction=target_wavefunction, eps=eps,
                          gtol_overlap=args.gtol_overlap, e_ref=e_ref, **common)
        ansatz, trace, overlap_trace = result.ansatz, result.adapt_trace, result.overlap_trace

    _write(args.out_trace, trace.to_csv())
    if overlap_trace is not None:
        _write(args.out_overlap_trace, overlap_trace.to_csv())
    if args.out_ansatz:
        save_ansatz(ansatz, args.out_ansatz)
    if args.dump_state:
        _write(args.dump_state, format_state(apply_ansatz(ansatz)) + "\n")
    if args.gnuplot:
        _write(args.gnuplot, GNUPLOT_TEMPLATE.format(trace=args.out_trace,
                                                     title=args.method))
    if trace.records:
        final_energy = trace.final_energy
    else:
        # No operator was added in the last stage: report the ansatz as it stands.
        final_energy, _ = energy_and_gradient(ansatz, h_sector)
    print(_summary_line(args.method, final_energy, e_ref, ansatz.excitations))
    return 0


def cmd_fci(args):
    _solve_fci(*_load_problem(args))
    return 0


def cmd_run_cipsi(args):
    mol, _ = _load_problem(args)
    state = ci.run_cipsi(mol, target_e2=args.target_e2, max_dets=args.max_dets)
    print(f"E_v = {state.e_variational:.12f}  E2 = {state.e_pt2:.6e}  "
          f"E_CIPSI = {state.e_cipsi:.12f}  dets = {len(state.dets)}")
    if args.out:
        ci.write_wavefunction(state.wavefunction(mol.n_spin_orbitals // 2), args.out)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oada",
        description="Adaptive and overlap-guided ansatz experiments on FCIDUMP inputs")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", help="key=value config file; flags override")
    run.add_argument("--fcidump", required=False)
    run.add_argument("--method", choices=METHODS)
    run.add_argument("--max-ops", type=int)
    run.add_argument("--p-overlap", type=int)
    run.add_argument("--p-total", type=int)
    run.add_argument("--eps", type=float,
                     help="gradient stop; default 1e-3, or 1e-8 when a budget is given")
    run.add_argument("--gtol", type=float, default=1e-8)
    run.add_argument("--gtol-overlap", type=float, default=1e-7)
    run.add_argument("--cipsi-max-dets", type=int)
    run.add_argument("--cipsi-target-e2", type=float)
    run.add_argument("--target-ansatz")
    run.add_argument("--target-wavefunction",
                     help="stored determinant expansion to use as the overlap target")
    run.add_argument("--seed", type=int)
    run.add_argument("--restarts", type=int, default=0)
    run.add_argument("--no-reference", action="store_true",
                     help="skip the FCI reference for the error column")
    run.add_argument("--out-trace", default="trace.csv")
    run.add_argument("--out-overlap-trace", default="overlap_trace.csv")
    run.add_argument("--out-ansatz")
    run.add_argument("--out-wavefunction")
    run.add_argument("--dump-state")
    run.add_argument("--dump-pool")
    run.add_argument("--dump-hamiltonian")
    run.add_argument("--gnuplot", help="write a ready-to-plot gnuplot script")
    run.set_defaults(func=cmd_run)

    fci = sub.add_parser("fci", help="exact sector ground-state energy")
    fci.add_argument("--fcidump", required=True)
    fci.set_defaults(func=cmd_fci)

    cip = sub.add_parser("run-cipsi", help="selected-CI loop")
    cip.add_argument("--fcidump", required=True)
    cip.add_argument("--max-dets", type=int)
    cip.add_argument("--target-e2", type=float)
    cip.add_argument("--out", help="write the determinant wavefunction here")
    cip.set_defaults(func=cmd_run_cipsi)

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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            args = _merge_config(args, parser.run_parser)
            if args.fcidump is None:
                raise FcidumpError("run needs --fcidump (flag or config)")
            if args.method is None:
                raise FcidumpError("run needs --method (flag or config)")
            for name in ("max_ops", "p_overlap", "p_total"):
                value = getattr(args, name)
                if value is not None and value <= 0:
                    raise FcidumpError(f"--{name.replace('_', '-')} must be positive")
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
