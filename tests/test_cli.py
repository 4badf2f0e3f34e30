import math
import os
import subprocess
import sys

import numpy as np
import pytest

import oada
from oada import verify
from oada.adapt import load_ansatz
from oada.cli import main
from oada.statevector import Basis, apply_ansatz


# The child must import the same oada as this process: put its source
# directory, as an absolute path, ahead of any inherited PYTHONPATH, so a
# relative entry or another installed copy cannot win from the child's cwd.
SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(oada.__file__)))


def run_cli(args, cwd, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SOURCE_DIR, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "oada.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=timeout)


@pytest.fixture(scope="module")
def h2_path():
    return oada.fixture_path("h2_0.7414")


@pytest.fixture(scope="module")
def h4_path():
    return oada.fixture_path("h4_1.5")


def test_run_method_fci(h2_path, tmp_path):
    result = run_cli(["run", "--method", "fci", "--fcidump", h2_path], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "E_FCI = -1.137270174828" in result.stdout


def test_run_adapt_summary_and_trace(h2_path, tmp_path):
    result = run_cli(["run", "--method", "adapt", "--fcidump", h2_path,
                      "--max-ops", "5", "--out-trace", "t.csv",
                      "--out-ansatz", "a.txt", "--gnuplot", "plot.gp"], tmp_path)
    assert result.returncode == 0, result.stderr
    summary = result.stdout.strip().splitlines()[-1]
    assert summary.startswith("method=adapt")
    fields = dict(kv.split("=") for kv in summary.split())
    assert abs(float(fields["error_vs_fci"])) < 1e-8
    assert int(fields["CNOTS"]) == 3 * int(fields["SQ"]) + 13 * int(fields["DQ"])
    # one double is exact on H2, so the gradient stop fires before the budget
    assert summary.endswith(" stop=gradient") and "overlap_stop" not in fields
    header = (tmp_path / "t.csv").read_text().splitlines()[0].split(",")
    assert header == ["stage", "iter", "op_id", "kind", "grad", "energy", "error_vs_fci",
                      "infidelity", "params", "cnots", "evals", "stop"]
    assert (tmp_path / "a.txt").exists()
    script = (tmp_path / "plot.gp").read_text()
    assert "logscale" in script
    # the script plots the error against the parameter count, by column position
    using = script.split(" using ")[1].split()[0]
    assert [header[int(c) - 1] for c in using.split(":")] == ["params", "error_vs_fci"]


def test_run_adapt_empty_trace_reports_hf_energy(h2_path, tmp_path):
    # the gradient stop fires before any operator is added: the summary
    # reports the Hartree-Fock state, not the reference energy
    result = run_cli(["run", "--method", "adapt", "--fcidump", h2_path,
                      "--eps", "10"], tmp_path)
    assert result.returncode == 0, result.stderr
    fields = dict(kv.split("=") for kv in result.stdout.strip().splitlines()[-1].split())
    refs = oada.reference_energies(h2_path)
    assert int(fields["params"]) == 0
    assert abs(float(fields["error_vs_fci"]) - (refs["REF_HF"] - refs["REF_FCI"])) < 1e-7


def test_run_adapt_nonpositive_eps_exits_with_one_line(h2_path, tmp_path):
    # with no budget, a gradient stop at eps <= 0 could never fire: the run
    # must be refused, not left appending operators until it is killed
    result = run_cli(["run", "--method", "adapt", "--fcidump", h2_path, "--eps", "0"],
                     tmp_path, timeout=60)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == ["error: --eps must be positive"]
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("method, flag, value", [
    ("cipsi", "--cipsi-max-dets", "0"),
    ("cipsi", "--cipsi-max-dets", "-4"),
    ("cipsi", "--cipsi-target-e2", "-1"),
    ("cipsi", "--cipsi-target-e2", "nan"),
    ("overlap-adapt-cipsi", "--cipsi-max-dets", "0"),
])
def test_run_nonpositive_cipsi_flag_exits_with_one_line(h4_path, tmp_path, capsys,
                                                        method, flag, value):
    # a non-positive budget or E2 target would run toward the Hartree-Fock
    # state or to saturation instead of the stop asked for
    assert main(["run", "--method", method, "--fcidump", h4_path, flag, value,
                 "--out-trace", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {flag} must be positive"]
    assert not (tmp_path / "t.csv").exists()


def test_run_deterministic_traces(h4_path, tmp_path):
    args = ["run", "--method", "adapt", "--fcidump", h4_path,
            "--max-ops", "5", "--out-trace", "t{}.csv"]
    r1 = run_cli([a.format(1) for a in args], tmp_path)
    r2 = run_cli([a.format(2) for a in args], tmp_path)
    assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_run_overlap_adapt_fci(h2_path, tmp_path):
    result = run_cli(["run", "--method", "overlap-adapt-fci", "--fcidump", h2_path,
                      "--p-overlap", "2", "--max-ops", "3", "--out-trace", "t.csv"],
                     tmp_path)
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == oada.adapt.CSV_HEADER
    # the overlap stage reproduces the FCI target with one double and stops
    # by its gradient; the energy stage then has nothing to add
    assert [line.split(",")[0] for line in lines[1:]] == ["overlap"]
    summary = result.stdout.strip().splitlines()[-1]
    assert summary.endswith(" overlap_stop=gradient stop=gradient")


def test_run_overlap_budget_above_the_total_exits_with_one_line(h4_path, tmp_path):
    # the energy stage could never reach a budget below the overlap stage's
    result = run_cli(["run", "--method", "overlap-adapt-fci", "--fcidump", h4_path,
                      "--p-overlap", "6", "--max-ops", "3"], tmp_path)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == ["error: --p-overlap 6 exceeds --max-ops 3"]
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("flags, message", [
    (["--method", "cipsi", "--cipsi-max-dets", "8", "--dump-state", "s.txt",
      "--gnuplot", "g.gp"], "--method cipsi does not use --dump-state, --gnuplot"),
    (["--method", "adapt", "--max-ops", "2", "--out-wavefunction", "wf.dets"],
     "--method adapt does not use --out-wavefunction"),
    # fci writes no trace: a trace path it would ignore is refused
    (["--method", "fci", "--out-trace", "x.csv"], "--method fci does not use --out-trace"),
    # a stored target is its own method: the other overlap methods refuse it
    (["--method", "overlap-adapt-cipsi", "--cipsi-max-dets", "4", "--max-ops", "4",
      "--target-wavefunction", "wf.dets"],
     "--method overlap-adapt-cipsi does not use --target-wavefunction"),
    (["--method", "overlap-adapt-ansatz", "--target-ansatz", "a.txt", "--max-ops", "4",
      "--target-wavefunction", "wf.dets"],
     "--method overlap-adapt-ansatz does not use --target-wavefunction"),
    (["--method", "overlap-adapt-wavefunction", "--target-wavefunction", "wf.dets",
      "--max-ops", "4", "--cipsi-max-dets", "4"],
     "--method overlap-adapt-wavefunction does not use --cipsi-max-dets"),
])
def test_run_refuses_flags_the_method_does_not_use(h4_path, tmp_path, flags, message):
    result = run_cli(["run", "--fcidump", h4_path, *flags], tmp_path)
    assert result.returncode == 2
    assert result.stderr.strip().splitlines() == [f"error: {message}"]
    assert not any(tmp_path.iterdir())


def test_run_method_cipsi_writes_the_wavefunction(h4_path, tmp_path):
    result = run_cli(["run", "--method", "cipsi", "--fcidump", h4_path,
                      "--cipsi-max-dets", "6", "--out-wavefunction", "wf.dets"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "E_v =" in result.stdout
    state = oada.ci.read_wavefunction(tmp_path / "wf.dets", Basis.sector(8, 4))
    assert np.count_nonzero(state.amplitudes) == 6


def test_stored_wavefunction_as_overlap_target(h4_path, tmp_path):
    r1 = run_cli(["run", "--method", "cipsi", "--fcidump", h4_path,
                  "--cipsi-max-dets", "8", "--out-wavefunction", "wf.dets"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["run", "--method", "overlap-adapt-wavefunction", "--fcidump", h4_path,
                  "--target-wavefunction", "wf.dets",
                  "--p-overlap", "2", "--max-ops", "4"], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert "method=overlap-adapt-wavefunction" in r2.stdout


def test_overlap_adapt_cipsi_requires_stop(h4_path, tmp_path):
    result = run_cli(["run", "--method", "overlap-adapt-cipsi",
                      "--fcidump", h4_path, "--max-ops", "4"], tmp_path)
    assert result.returncode == 2
    assert "cipsi" in result.stderr


# `run --method cipsi` traces as written before the CLI and `run_cipsi`
# shared one stop loop, and before CIPSI ran on the projected sector
# Hamiltonian; values are compared to 1e-12 Ha. Every written cell must
# parse with float(): E2 is a Python float, not a numpy scalar repr.
CIPSI_TRACES = {
    "h4_1.5 --cipsi-max-dets 8": """iter,dets,e_v,e2,e_cipsi
0,1,-1.8291374143561538,nan,nan
1,2,-1.8735223447344216,-0.10966326421342058,-1.9831856089478421
2,4,-1.9414581074810067,-0.06619590400778122,-2.0076540114887877
3,8,-1.9812842890563014,-0.005162857388030355,-1.9864471464443318
""",
    # the second step adds nothing: the full two-determinant sector, E2 = 0
    "h2_0.7414 --cipsi-max-dets 100": """iter,dets,e_v,e2,e_cipsi
0,1,-1.1166843871985792,nan,nan
1,2,-1.1372701748276173,0,-1.1372701748276173
""",
}


def _cells(csv_text):
    rows = [line.split(",") for line in csv_text.splitlines()]
    return rows[0], [(row[:2], [float(c) for c in row[2:]]) for row in rows[1:]]


@pytest.mark.parametrize("case", sorted(CIPSI_TRACES))
def test_run_cipsi_trace(case, tmp_path, capsys):
    name, *flags = case.split()
    trace = tmp_path / "t.csv"
    assert main(["run", "--method", "cipsi", "--fcidump", oada.fixture_path(name),
                 *flags, "--out-trace", str(trace)]) == 0
    header, rows = _cells(trace.read_text())
    expected_header, expected = _cells(CIPSI_TRACES[case])
    assert header == expected_header
    assert [r[0] for r in rows] == [r[0] for r in expected]
    for (_, values), (_, want) in zip(rows, expected):
        assert values == pytest.approx(want, abs=1e-12, nan_ok=True)
    summary = capsys.readouterr().out
    assert f"dets = {expected[-1][0][1]}" in summary


def test_run_cipsi_requires_stop(h4_path, capsys):
    assert main(["run", "--method", "cipsi", "--fcidump", h4_path]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: --method cipsi needs --cipsi-max-dets and/or --cipsi-target-e2"]


@pytest.mark.parametrize("flags, message", [
    (["--method", "overlap-adapt-fci"], "--method overlap-adapt-fci needs --max-ops"),
    (["--method", "overlap-adapt-ansatz", "--max-ops", "2"],
     "--method overlap-adapt-ansatz needs --target-ansatz"),
    (["--method", "overlap-adapt-wavefunction", "--max-ops", "2"],
     "--method overlap-adapt-wavefunction needs --target-wavefunction"),
])
def test_run_method_needs_its_flags(h4_path, capsys, flags, message):
    assert main(["run", "--fcidump", h4_path, *flags]) == 2
    assert capsys.readouterr().err.strip().splitlines() == [f"error: {message}"]


# argparse's own errors, too, print one line instead of the usage text
@pytest.mark.parametrize("argv, named", [
    (["run", "--method", "cipsi", "--out-overlap-trace", "y.csv"], "--out-overlap-trace"),
    (["run", "--method", "bogus"], "--method"),
    (["--log-level", "loud", "run"], "--log-level"),
    ([], "command"),
])
def test_usage_error_exits_2_with_one_line(capsys, argv, named):
    assert main(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


def test_reference_energy_from_sector_hamiltonian(h4_path, tmp_path, monkeypatch):
    # Without a REF_FCI line the error column comes from the sector
    # Hamiltonian's ground state, not from the Slater-Condon FCI.
    text = open(h4_path).read()
    stripped = tmp_path / "h4.fcidump"
    stripped.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith("# REF_FCI")))

    def refuse(*args, **kwargs):
        raise AssertionError("Slater-Condon FCI called")

    monkeypatch.setattr(oada.ci, "fci_ground_state", refuse)
    errors = []
    for fcidump in (h4_path, str(stripped)):
        trace = tmp_path / "t.csv"
        assert main(["run", "--method", "overlap-adapt-fci", "--fcidump", fcidump,
                     "--p-overlap", "2", "--max-ops", "3", "--out-trace", str(trace)]) == 0
        header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
        errors.append([float(row[header.index("error_vs_fci")])
                       for row in rows if row[0] == "energy"])
    assert errors[0]
    assert errors[1] == pytest.approx(errors[0], abs=1e-10)


@pytest.mark.parametrize("name", ["h4_1.5", "beh2_3.0"])
def test_fci_commands_solve_the_projected_sector_hamiltonian(name, tmp_path, monkeypatch,
                                                             capsys):
    # `run --method fci` takes the Jordan-Wigner sector matrix; the
    # Slater-Condon one stays the oracle of `verify` and is not built
    def refuse(*args, **kwargs):
        raise AssertionError("Slater-Condon Hamiltonian built")

    monkeypatch.setattr(oada.ci, "slater_condon_hamiltonian", refuse)
    path = oada.fixture_path(name)
    ref = oada.reference_energies(path)["REF_FCI"]
    dets = tmp_path / "fci.dets"
    assert main(["run", "--method", "fci", "--fcidump", path,
                 "--out-wavefunction", str(dets)]) == 0
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("E_FCI = "))
    assert abs(float(line.split()[-1]) - ref) < 1e-10
    mol = oada.to_spin_orbital(oada.read_fcidump(path))
    h_sector = Basis.sector(mol.n_spin_orbitals, mol.n_electrons).project(
        oada.jw_hamiltonian(mol))
    psi = oada.ci.read_wavefunction(str(dets), h_sector.basis).amplitudes
    assert abs(psi @ (h_sector.matrix @ psi) / (psi @ psi) - ref) < 1e-10


def test_other_spin_sector_exit_code(h2_path, tmp_path, capsys):
    high_spin = tmp_path / "h2_ms2.fcidump"
    high_spin.write_text(open(h2_path).read().replace("MS2=0", "MS2=2"))
    assert main(["run", "--method", "fci", "--fcidump", str(high_spin)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "MS2=2" in err[0]


def test_log_level_sets_which_optimizer_lines_print(tmp_path, capsys):
    # The 35-operator stretched BeH2 run has routine floor stops (logged at
    # DEBUG) and one near-miss line search at iteration 35 (WARNING, the
    # default level).
    run = ["run", "--method", "adapt", "--max-ops", "35",
           "--fcidump", oada.fixture_path("beh2_3.0"),
           "--out-trace", str(tmp_path / "trace.csv")]
    near_miss = "WARNING: energy iteration 35: optimizer stopped by line search"
    lines = {}
    for level, flag in [("debug", ["--log-level", "debug"]), ("warning", []),
                        ("error", ["--log-level", "error"])]:
        assert main([*flag, *run]) == 0
        lines[level] = capsys.readouterr().err.splitlines()
    debug = lines["debug"]
    assert any(line.startswith(near_miss) for line in debug)
    assert any(line.startswith("DEBUG: energy iteration ")
               and "optimizer stopped by floor" in line for line in debug)
    assert lines["warning"] == [line for line in debug if line.startswith("WARNING")]
    assert lines["warning"] and lines["error"] == []


def test_dump_pool(h2_path, tmp_path):
    result = run_cli(["dump-pool", "--fcidump", h2_path], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "0 single 2 0 3"
    assert len(lines) == 3


def test_dump_hamiltonian(h2_path, tmp_path):
    result = run_cli(["dump-hamiltonian", "--fcidump", h2_path], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 15
    assert lines[0].split()[-1] == "I"


def test_verify_subcommand(h2_path, tmp_path):
    result = run_cli(["verify", "--fcidump", h2_path], tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "FAIL" not in result.stdout
    assert result.stdout.count("PASS") >= 8


def test_verify_counts_weight_in_another_spin_sector(h2_path, monkeypatch):
    # two alpha electrons: N is right and S_z is not, which an electron
    # count alone would pass
    def wrong_sz_state(ansatz):
        return oada.Statevector(4, np.eye(16)[0b0101])

    monkeypatch.setattr(verify, "apply_ansatz", wrong_sz_state)
    checks = {name: (ok, detail) for name, ok, detail in verify.run_verification(h2_path)}
    ok, detail = checks["norm, N and S_z preserved over 100 random evolutions"]
    assert not ok and detail.endswith("sector = 1.0e+00")


def test_missing_file_single_line_diagnostic(tmp_path):
    result = run_cli(["run", "--method", "fci", "--fcidump", "nope.fcidump"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("flag", ["--config", "--fcidump"])
def test_a_directory_as_input_exits_2_with_one_line(h2_path, tmp_path, capsys, flag):
    # it printed an IsADirectoryError traceback
    argv = ["run", "--method", "fci", "--fcidump", h2_path, flag, str(tmp_path)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "Is a directory" in err[0]


@pytest.mark.parametrize("method, flag", [
    ("fci", "--out-wavefunction"), ("fci", "--dump-state"), ("adapt", "--out-trace"),
    ("adapt", "--out-ansatz"), ("adapt", "--gnuplot"), ("cipsi", "--out-wavefunction"),
])
@pytest.mark.parametrize("missing", [True, False])
def test_an_unwritable_output_path_exits_2_before_the_run(h2_path, tmp_path, capsys,
                                                          monkeypatch, method, flag, missing):
    # the run printed its energy, then failed to write
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path / "nodir" / "x") if missing else str(tmp_path)
    argv = ["run", "--method", method, "--fcidump", h2_path, flag, path]
    argv += {"fci": [], "adapt": ["--max-ops", "1"], "cipsi": ["--cipsi-max-dets", "2"]}[method]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and os.listdir(tmp_path) == []
    err = err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {flag} {path}")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nnot_a_number 1 1 0 0\n")
    result = run_cli(["run", "--method", "fci", "--fcidump", str(bad)], tmp_path)
    assert result.returncode == 2
    assert "line" in result.stderr


def test_non_finite_integral_exit_code(h2_path, tmp_path, capsys):
    # a NaN (11|11) was dropped by the coefficient cutoff: the run printed a
    # wrong E_FCI and exited 0
    nan = tmp_path / "nan.fcidump"
    nan.write_text(open(h2_path).read().replace(" 6.7448876778419997e-01", " nan"))
    assert main(["run", "--method", "fci", "--fcidump", str(nan)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "line 7: 'nan' is not a finite number" in err[0]


def test_dimension_cap_exit_code(tmp_path):
    big = tmp_path / "big.fcidump"
    big.write_text("&FCI NORB=30,NELEC=30,MS2=0,\n&END\n0.0 0 0 0 0\n")
    result = run_cli(["run", "--method", "fci", "--fcidump", str(big)], tmp_path)
    assert result.returncode == 3
    assert "exceeds cap" in result.stderr


def _exit_code_and_peak_rss_kb(fcidump, cwd):
    script = ("import resource; from oada.cli import main; "
              f"code = main(['run', '--method', 'fci', '--fcidump', {str(fcidump)!r}]); "
              "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SOURCE_DIR, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, cwd=cwd, env=env)
    code, rss_kb = result.stdout.split()[-2:]
    return int(code), int(rss_kb)


def test_dimension_cap_fires_before_the_integrals_are_allocated(h2_path, tmp_path):
    # NORB=30 would need a 60^4 spin-orbital tensor (104 MB); the cap on its
    # C(30,15)^2 sector must fire from the header alone
    big = tmp_path / "big.fcidump"
    big.write_text("&FCI NORB=30,NELEC=30,MS2=0,\n&END\n0.0 0 0 0 0\n")
    code, rss_big = _exit_code_and_peak_rss_kb(big, tmp_path)
    code_h2, rss_h2 = _exit_code_and_peak_rss_kb(h2_path, tmp_path)
    assert (code, code_h2) == (3, 0)
    assert rss_big <= rss_h2 + 20 * 1024


def _state_lines(text):
    lines = [line.split() for line in text.strip().splitlines()]
    return [int(m) for m, _ in lines], np.array([float(a) for _, a in lines])


def test_dump_state_is_the_sector_state(h4_path, tmp_path, capsys):
    # the sector state's lines equal the nonzero entries of the 2^N oracles
    dump, ansatz_file = tmp_path / "state.txt", tmp_path / "a.txt"
    assert main(["run", "--method", "adapt", "--fcidump", h4_path, "--max-ops", "4",
                 "--out-trace", str(tmp_path / "t.csv"), "--out-ansatz", str(ansatz_file),
                 "--dump-state", str(dump)]) == 0
    full = apply_ansatz(load_ansatz(ansatz_file)).amplitudes
    masks, values = _state_lines(dump.read_text())
    assert masks == np.flatnonzero(full).tolist()
    assert np.max(np.abs(values - full[masks])) < 1e-14

    assert main(["run", "--method", "fci", "--fcidump", h4_path,
                 "--dump-state", str(dump)]) == 0
    mol = oada.to_spin_orbital(oada.read_fcidump(h4_path))
    _, state = oada.fci_ground_state(mol)
    full = Basis.full(mol.n_spin_orbitals).extract(state).amplitudes
    masks, values = _state_lines(dump.read_text())
    assert masks == np.flatnonzero(full).tolist()
    assert np.max(np.abs(values - full[masks])) < 1e-14


def test_wrong_sector_wavefunction_target_exit_code(h2_path, tmp_path):
    (tmp_path / "wf.dets").write_text("norb=2 nelec=1\n1.0 1 0\n")
    result = run_cli(["run", "--method", "overlap-adapt-wavefunction", "--fcidump", h2_path,
                      "--target-wavefunction", "wf.dets", "--max-ops", "2"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    assert "sector" in result.stderr


def test_wrong_molecule_ansatz_target_exit_code(h2_path, tmp_path):
    (tmp_path / "a.txt").write_text("n_qubits=8 n_electrons=4\ndouble 4 5 0 1 0.1\n")
    result = run_cli(["run", "--method", "overlap-adapt-ansatz", "--fcidump", h2_path,
                      "--target-ansatz", "a.txt", "--max-ops", "2"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    assert "n_qubits=8" in result.stderr


@pytest.mark.parametrize("line, problem", [
    ("double 2 9 0 1 0.1", "orbital index outside [0, 4)"),
    ("single 2 1 0.1", "does not conserve S_z"),
    ("double 2 2 0 1 0.1", "repeated orbital index"),
    ("double 2 3 0 1 nan", "angle nan is not a finite number"),
])
def test_bad_stored_excitation_exit_code(h2_path, tmp_path, capsys, line, problem):
    (tmp_path / "a.txt").write_text(f"n_qubits=4 n_electrons=2\n{line}\n")
    assert main(["run", "--method", "overlap-adapt-ansatz", "--fcidump", h2_path,
                 "--target-ansatz", str(tmp_path / "a.txt"), "--max-ops", "2",
                 "--out-trace", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and ":2:" in err[0] and problem in err[0]


def test_davidson_failure_exit_code_in_process(h2_path, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise oada.ConvergenceError("Davidson did not reach residual")

    monkeypatch.setattr(oada.ci, "_davidson", no_convergence)
    code = main(["run", "--method", "overlap-adapt-fci", "--fcidump", h2_path,
                 "--max-ops", "2", "--out-trace", str(tmp_path / "t.csv")])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == [
        "error: Davidson did not reach residual"]


def test_config_file_with_flag_override(h2_path, tmp_path):
    config = tmp_path / "exp.conf"
    config.write_text("fcidump={}\nmethod=adapt\nmax_ops=1\nout_trace=c.csv\n"
                      .format(h2_path))
    # flag overrides the config's max_ops=1
    result = run_cli(["run", "--config", str(config), "--max-ops", "3"], tmp_path)
    assert result.returncode == 0, result.stderr
    trace = (tmp_path / "c.csv").read_text()
    assert "method=adapt" in result.stdout
    # unknown config keys are rejected
    config.write_text("fcidump={}\nmethod=adapt\nbogus=1\n".format(h2_path))
    result = run_cli(["run", "--config", str(config)], tmp_path)
    assert result.returncode == 2
    assert "bogus" in result.stderr


@pytest.mark.parametrize("line, flags, code, message", [
    ("method=bogus", [], 2, "config exp.conf: argument --method: invalid choice: 'bogus'"),
    ("max_ops=abc", [], 2, "config exp.conf: argument --max-ops: invalid int value: 'abc'"),
    ("dump_pool=pool.txt", [], 2, "unknown config keys: dump_pool"),
    ("out_trace=c.csv", ["--out-trace", "trace.csv"], 0, ""),
    ("gtol=1e-9", [], 2, "unknown config keys: gtol"),
    ("p_total=3", [], 2, "unknown config keys: p_total"),
])
def test_config_values_are_typed_and_flags_win(h2_path, tmp_path, monkeypatch, capsys,
                                               line, flags, code, message):
    monkeypatch.chdir(tmp_path)
    key = line.split("=")[0]
    base = {"fcidump": h2_path, "method": "adapt", "max_ops": "1"}
    text = "".join(f"{k}={v}\n" for k, v in base.items() if k != key) + line + "\n"
    (tmp_path / "exp.conf").write_text(text)
    assert main(["run", "--config", "exp.conf", *flags]) == code
    err = capsys.readouterr().err.strip().splitlines()
    if code:
        assert len(err) == 1 and message in err[0]
    else:
        assert (tmp_path / "trace.csv").exists() and not (tmp_path / "c.csv").exists()


def test_config_seed_is_an_unknown_key(h2_path, tmp_path, capsys):
    config = tmp_path / "exp.conf"
    config.write_text(f"fcidump={h2_path}\nmethod=adapt\nseed=1\n")
    assert main(["run", "--config", str(config)]) == 2
    assert "unknown config keys: seed" in capsys.readouterr().err


def test_main_entry_in_process(h2_path, capsys):
    assert main(["run", "--method", "fci", "--fcidump", h2_path]) == 0
    out = capsys.readouterr().out
    assert "E_FCI" in out
