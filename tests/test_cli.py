import math
import os
import subprocess
import sys

import pytest

import oada
from oada.cli import main


# The child must import the same oada as this process: put its source
# directory, as an absolute path, ahead of any inherited PYTHONPATH, so a
# relative entry or another installed copy cannot win from the child's cwd.
SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(oada.__file__)))


def run_cli(args, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SOURCE_DIR, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "oada.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


@pytest.fixture(scope="module")
def h2_path():
    return oada.fixture_path("h2_0.7414")


@pytest.fixture(scope="module")
def h4_path():
    return oada.fixture_path("h4_1.5")


def test_fci_subcommand(h2_path, tmp_path):
    result = run_cli(["fci", "--fcidump", h2_path], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "E_FCI = -1.137270174828" in result.stdout


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
    trace = (tmp_path / "t.csv").read_text()
    assert trace.splitlines()[0] == "iter,op_id,kind,grad,energy,error_vs_fci,params,cnots,evals"
    assert (tmp_path / "a.txt").exists()
    assert "logscale" in (tmp_path / "plot.gp").read_text()


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


def test_run_deterministic_traces(h4_path, tmp_path):
    args = ["run", "--method", "adapt", "--fcidump", h4_path,
            "--max-ops", "5", "--out-trace", "t{}.csv"]
    r1 = run_cli([a.format(1) for a in args], tmp_path)
    r2 = run_cli([a.format(2) for a in args], tmp_path)
    assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
    assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()


def test_run_overlap_adapt_fci(h2_path, tmp_path):
    result = run_cli(["run", "--method", "overlap-adapt-fci", "--fcidump", h2_path,
                      "--p-overlap", "2", "--p-total", "3",
                      "--out-trace", "t.csv", "--out-overlap-trace", "o.csv"],
                     tmp_path)
    assert result.returncode == 0, result.stderr
    overlap_trace = (tmp_path / "o.csv").read_text()
    assert overlap_trace.splitlines()[0] == "iter,op_id,kind,grad,infidelity,energy,params"


def test_run_cipsi_subcommand(h4_path, tmp_path):
    result = run_cli(["run-cipsi", "--fcidump", h4_path, "--max-dets", "6",
                      "--out", "wf.dets"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert "E_v =" in result.stdout
    from oada.ci import read_wavefunction
    wavefn = read_wavefunction(tmp_path / "wf.dets")
    assert len(wavefn.coefficients) == 6


def test_stored_wavefunction_as_overlap_target(h4_path, tmp_path):
    r1 = run_cli(["run-cipsi", "--fcidump", h4_path, "--max-dets", "8",
                  "--out", "wf.dets"], tmp_path)
    assert r1.returncode == 0, r1.stderr
    r2 = run_cli(["run", "--method", "overlap-adapt-cipsi", "--fcidump", h4_path,
                  "--target-wavefunction", "wf.dets",
                  "--p-overlap", "2", "--p-total", "4"], tmp_path)
    assert r2.returncode == 0, r2.stderr
    assert "method=overlap-adapt-cipsi" in r2.stdout


def test_overlap_adapt_cipsi_requires_stop(h4_path, tmp_path):
    result = run_cli(["run", "--method", "overlap-adapt-cipsi",
                      "--fcidump", h4_path, "--p-total", "4"], tmp_path)
    assert result.returncode == 2
    assert "cipsi" in result.stderr


# `run --method cipsi` traces as written before the CLI and `run_cipsi`
# shared one stop loop. The e2 and e_cipsi cells are currently written as
# numpy scalar reprs (`np.float64(...)`) and compared by value here.
CIPSI_TRACES = {
    "h4_1.5 --cipsi-max-dets 8": """iter,dets,e_v,e2,e_cipsi
0,1,-1.8291374143561538,nan,nan
1,2,-1.8735223447344216,np.float64(-0.10966326421342058),np.float64(-1.9831856089478421)
2,4,-1.9414581074810067,np.float64(-0.06619590400778122),np.float64(-2.0076540114887877)
3,8,-1.9812842890563014,np.float64(-0.005162857388030355),np.float64(-1.9864471464443318)
""",
    # the second step adds nothing: the full two-determinant sector, E2 = 0
    "h2_0.7414 --cipsi-max-dets 100": """iter,dets,e_v,e2,e_cipsi
0,1,-1.1166843871985792,nan,nan
1,2,-1.1372701748276173,0,-1.1372701748276173
""",
}


def _cells(csv_text):
    def value(cell):
        return float(cell.removeprefix("np.float64(").removesuffix(")"))

    rows = [line.split(",") for line in csv_text.splitlines()]
    return rows[0], [(row[:2], [value(c) for c in row[2:]]) for row in rows[1:]]


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
        "error: cipsi needs --cipsi-max-dets and/or --cipsi-target-e2"]


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
                     "--p-overlap", "2", "--p-total", "3", "--out-trace", str(trace),
                     "--out-overlap-trace", str(tmp_path / "o.csv")]) == 0
        errors.append([float(line.split(",")[5])
                       for line in trace.read_text().splitlines()[1:]])
    assert errors[0]
    assert errors[1] == pytest.approx(errors[0], abs=1e-10)


def test_other_spin_sector_exit_code(h2_path, tmp_path, capsys):
    high_spin = tmp_path / "h2_ms2.fcidump"
    high_spin.write_text(open(h2_path).read().replace("MS2=0", "MS2=2"))
    assert main(["fci", "--fcidump", str(high_spin)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "MS2=2" in err[0]


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


def test_missing_file_single_line_diagnostic(tmp_path):
    result = run_cli(["fci", "--fcidump", "nope.fcidump"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.fcidump"
    bad.write_text("&FCI NORB=2,NELEC=2,MS2=0,\n&END\nnot_a_number 1 1 0 0\n")
    result = run_cli(["fci", "--fcidump", str(bad)], tmp_path)
    assert result.returncode == 2
    assert "line" in result.stderr


def test_dimension_cap_exit_code(tmp_path):
    big = tmp_path / "big.fcidump"
    big.write_text("&FCI NORB=30,NELEC=30,MS2=0,\n&END\n0.0 0 0 0 0\n")
    result = run_cli(["fci", "--fcidump", str(big)], tmp_path)
    assert result.returncode == 3
    assert "exceeds cap" in result.stderr


def test_wrong_sector_wavefunction_target_exit_code(h2_path, tmp_path):
    (tmp_path / "wf.dets").write_text("norb=2 nelec=1\n1.0 1 0\n")
    result = run_cli(["run", "--method", "overlap-adapt-cipsi", "--fcidump", h2_path,
                      "--target-wavefunction", "wf.dets", "--p-total", "2"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    assert "sector" in result.stderr


def test_wrong_molecule_ansatz_target_exit_code(h2_path, tmp_path):
    (tmp_path / "a.txt").write_text("n_qubits=8 n_electrons=4\ndouble 4 5 0 1 0.1\n")
    result = run_cli(["run", "--method", "overlap-adapt-ansatz", "--fcidump", h2_path,
                      "--target-ansatz", "a.txt", "--p-total", "2"], tmp_path)
    assert result.returncode == 2
    assert len(result.stderr.strip().splitlines()) == 1
    assert "n_qubits=8" in result.stderr


def test_davidson_failure_exit_code_in_process(h2_path, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise oada.ConvergenceError("Davidson did not reach residual")

    monkeypatch.setattr(oada.ci, "_davidson", no_convergence)
    code = main(["run", "--method", "overlap-adapt-fci", "--fcidump", h2_path,
                 "--p-total", "2", "--out-trace", str(tmp_path / "t.csv"),
                 "--out-overlap-trace", str(tmp_path / "o.csv")])
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


def test_main_entry_in_process(h2_path, capsys):
    assert main(["fci", "--fcidump", h2_path]) == 0
    out = capsys.readouterr().out
    assert "E_FCI" in out
