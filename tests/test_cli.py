"""Command-line interface: dispatch, config handling, exit codes,
deterministic artifacts."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from vortexpatch.cli import main


def run_cli(args):
    """Invoke the console entry point; return the exit code."""
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    return exc.value.code


class TestSpectrumCommand:
    def test_frequency_table(self, tmp_path, capsys):
        code = run_cli(["spectrum", "--b", "0.5", "--jmax", "5",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Omega_2(0.5) = 0.53125" in out
        csv = (tmp_path / "spectrum_omega.csv").read_text()
        assert csv.splitlines()[0] == "j,omega"
        assert "2,5.3125000000000000e-01" in csv

    def test_invalid_b(self, tmp_path):
        code = run_cli(["spectrum", "--b", "2.0", "--output-dir", str(tmp_path)])
        assert code == 1

    def test_scan_artifacts(self, tmp_path):
        code = run_cli(["spectrum", "--b", "0.5", "--jmax", "3", "--scan",
                        "--lmax", "2", "--grid", "400",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        js = json.loads((tmp_path / "spectrum_scan.json").read_text())
        assert js["rho0_hat"] > 0

    def test_manifest_written(self, tmp_path):
        run_cli(["spectrum", "--b", "0.5", "--output-dir", str(tmp_path)])
        man = json.loads((tmp_path / "spectrum_manifest.json").read_text())
        assert man["subcommand"] == "spectrum"
        assert man["config"]["b"] == 0.5
        assert "numpy" in man["versions"]
        assert man["wall_time_s"] >= 0


class TestSimulateCommand:
    def test_flat_equilibrium(self, tmp_path):
        code = run_cli(["simulate", "--b", "0.5", "--amplitudes", "",
                        "--dt", "1e-2", "--t", "0.1", "--stride", "1",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert not summary["aborted"]
        # flat trajectory: the deformation mean stays at zero
        assert abs(summary["final_mean"]) < 1e-12
        csv = (tmp_path / "simulate_trajectory.csv").read_text()
        assert csv.splitlines()[0].startswith("time,mean,hamiltonian")

    def test_manifest_profile(self, tmp_path):
        code = run_cli(["simulate", "--b", "0.5", "--amplitudes", "2:1e-3",
                        "--dt", "1e-2", "--t", "0.05", "--stride", "2",
                        "--grid", "32", "--output-dir", str(tmp_path)])
        assert code == 0
        prof = json.loads((tmp_path / "simulate_manifest.json").read_text())["profile"]
        assert prof["rhs_evaluations"] == 4 * 5
        assert prof["energy_evaluations"] == 3  # t = 0, 0.02, 0.04
        assert 0.0079 < prof["max_admissibility_ratio"] < 0.0081  # ~1e-3 / 0.125
        assert 0.5 < prof["max_R"] < 0.51
        assert prof["stepping_s"] > 0 and prof["diagnostics_s"] > 0

    def test_inadmissible_amplitude(self, tmp_path):
        # amplitude above b^2/2 violates patch admissibility -> config error
        code = run_cli(["simulate", "--b", "0.5", "--amplitudes", "2:0.2",
                        "--dt", "1e-2", "--t", "0.1",
                        "--output-dir", str(tmp_path)])
        assert code == 1


class TestLinearizeCommand:
    def test_equilibrium_matrix(self, tmp_path):
        code = run_cli(["linearize", "--b", "0.5", "--n", "4", "--grid", "128",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "linearize_matrix.csv").read_text().splitlines()
        assert lines[0] == "j,j0,re,im"
        assert len(lines) - 1 == 8 * 8
        spec = (tmp_path / "linearize_spectrum.csv").read_text().splitlines()
        assert spec[0] == "j,re_lambda,im_lambda"
        # diagonal carries -i Omega_j: mode 2 row shows -0.53125 imaginary part
        row2 = [l for l in spec[1:] if l.startswith("2,")][0]
        assert abs(float(row2.split(",")[2]) + 0.53125) < 1e-8

    def test_manifest_profile(self, tmp_path):
        code = run_cli(["linearize", "--n", "4", "--grid", "64",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        prof = _read_json(tmp_path, "linearize_manifest.json")["profile"]
        assert sorted(prof) == ["M", "N", "assemble_s", "eigen_solve_s"]
        assert (prof["M"], prof["N"]) == (64, 4)
        assert prof["assemble_s"] > 0 and prof["eigen_solve_s"] > 0


class TestCantorCommand:
    def test_artifacts_and_flags(self, tmp_path):
        code = run_cli(["cantor", "--gamma", "1e-3", "--sites", "1,2",
                        "--lmax", "3", "--tau1", "3.0", "--tau2", "13.0",
                        "--upsilon", "0.5", "--output-dir", str(tmp_path)])
        assert code == 0
        csv = (tmp_path / "cantor_intervals.csv").read_text()
        assert csv.splitlines()[0] == "l,j,j0,left,right,length"
        js = json.loads((tmp_path / "cantor_summary.json").read_text())
        assert js["russmann_violations"] == 0

    def test_manifest_profile(self, tmp_path):
        code = run_cli(["cantor", "--gamma", "1e-2", "--lmax", "3",
                        "--kind", "second-order-Melnikov", "--output-dir", str(tmp_path)])
        assert code == 0
        prof = _read_json(tmp_path, "cantor_manifest.json")["profile"]
        assert sorted(prof) == ["bisect_s", "families_skipped", "filter_s", "russmann_s",
                                "screen_s", "tuples_bisected", "tuples_kept",
                                "tuples_screened", "window_nodes"]
        assert all(prof[f"{stage}_s"] >= 0 for stage in ("screen", "filter", "bisect",
                                                         "russmann"))
        assert prof["tuples_screened"] >= prof["tuples_kept"] >= prof["tuples_bisected"] > 0
        assert prof["window_nodes"] > 0

    def test_determinism_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            code = run_cli(["cantor", "--gamma", "1e-3", "--lmax", "3",
                            "--output-dir", str(d)])
            assert code == 0
            outs.append((
                (d / "cantor_intervals.csv").read_bytes(),
                (d / "cantor_summary.json").read_bytes(),
            ))
        assert outs[0] == outs[1]

    def test_curve_with_jobs_canonical_order(self, tmp_path):
        for jobs, name in (("1", "serial"), ("2", "parallel")):
            d = tmp_path / name
            code = run_cli(["cantor", "--gamma", "1e-2", "--lmax", "2",
                            "--curve", "1e-2,1e-3", "--jobs", jobs,
                            "--output-dir", str(d)])
            assert code == 0
        serial = (tmp_path / "serial" / "cantor_curve.csv").read_bytes()
        parallel = (tmp_path / "parallel" / "cantor_curve.csv").read_bytes()
        assert serial == parallel
        lines = serial.decode().splitlines()
        assert lines[0] == "gamma,excluded_measure"
        assert float(lines[1].split(",")[0]) == 1e-2  # input order preserved


class TestKamCommands:
    def test_transport_oracle(self, tmp_path):
        code = run_cli(["kam-transport", "--amp", "0.1",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        js = json.loads((tmp_path / "kam_transport_result.json").read_text())
        assert js["reducible"]
        assert abs(js["V_infty"] - np.sqrt(0.24)) < 1e-8
        csv = (tmp_path / "kam_transport_history.csv").read_text()
        assert csv.splitlines()[0] == "m,delta_s0,delta_sh,cut_fraction,V_m"

    def test_remainder_requires_seed(self, tmp_path):
        code = run_cli(["kam-remainder", "--output-dir", str(tmp_path)])
        assert code == 1

    def test_remainder_run_and_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            d = tmp_path / name
            code = run_cli(["kam-remainder", "--seed", "7", "--steps", "2",
                            "--n", "6", "--l", "4", "--output-dir", str(d)])
            assert code == 0
            outs.append((
                (d / "kam_remainder_history.csv").read_bytes(),
                (d / "kam_remainder_spectrum.json").read_bytes(),
            ))
        assert outs[0] == outs[1]
        # the manifest alone reports the phi grid and its aliasing estimate
        grid = _read_json(d, "kam-remainder_manifest.json")["profile"]["phi_grid"]
        assert [(g["step"], g["G"]) for g in grid] == [(0, 33), (1, 49)]
        assert all(0 <= g["shell_max"] < 1e-10 * g["sup_R_next"] for g in grid)

    def test_non_reducible_exit_2(self, tmp_path):
        # an enormous gamma cuts every mode: invariant violation exit code
        code = run_cli(["kam-remainder", "--seed", "0", "--gamma", "1e6",
                        "--output-dir", str(tmp_path)])
        assert code == 2


def _read_json(d, name):
    return json.loads((d / name).read_text())


def _csv_rows(d, name):
    return len((d / name).read_text().strip().splitlines()) - 1


# subcommand, fixed flags, config key, config value, flag, flag value, the
# resolved value, and how an artifact shows the value that was used
PRECEDENCE = [
    ("simulate", ["--dt", "1e-2", "--t", "0.04", "--grid", "32"],
     "stride", 2, "--stride", "1", 1,
     lambda d: _read_json(d, "simulate_summary.json")["config"]["record_stride"]),
    ("linearize", ["--grid", "32"], "N", 3, "--n", "2", 2,
     lambda d: _csv_rows(d, "linearize_spectrum.csv") // 2),
    ("spectrum", [], "jmax", 5, "--jmax", "2", 2,
     lambda d: _csv_rows(d, "spectrum_omega.csv")),
    ("cantor", ["--lmax", "2"], "gamma", 1e-2, "--gamma", "1e-3", 1e-3,
     lambda d: _read_json(d, "cantor_summary.json")["gamma"]),
    ("kam-transport", ["--k", "8", "--grid", "16"], "steps", 3, "--steps", "2", 2,
     lambda d: _read_json(d, "kam_transport_result.json")["steps"]),
    ("kam-remainder", ["--seed", "1", "--n", "3", "--l", "2"], "steps", 2,
     "--steps", "1", 1,
     lambda d: _csv_rows(d, "kam_remainder_history.csv") - 1),
]


class TestConfigHandling:
    @pytest.mark.parametrize(
        "cmd,fixed,key,cfg_value,flag,flag_value,resolved,observe", PRECEDENCE,
        ids=[row[0] for row in PRECEDENCE])
    def test_config_file_with_flag_override(self, tmp_path, cmd, fixed, key, cfg_value,
                                            flag, flag_value, resolved, observe):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: cfg_value}))
        for name, extra, expected in (("config", [], cfg_value),
                                      ("flag", [flag, flag_value], resolved)):
            d = tmp_path / name
            code = run_cli([cmd, "--config", str(cfg), *fixed, *extra,
                            "--output-dir", str(d)])
            assert code == 0
            assert observe(d) == expected
            manifest = _read_json(d, f"{cmd}_manifest.json")
            assert manifest["config"][key] == expected

    def test_bad_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code = run_cli(["spectrum", "--config", str(cfg),
                        "--output-dir", str(tmp_path)])
        assert code == 1

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        d = tmp_path / "from_env"
        monkeypatch.setenv("VPATCH_OUTPUT_DIR", str(d))
        code = run_cli(["spectrum", "--b", "0.5", "--jmax", "2"])
        assert code == 0
        assert (d / "spectrum_omega.csv").exists()


class TestValidateBeforeWork:
    """Bad input exits 1 before any computation or file write."""

    @pytest.mark.parametrize("args", [
        ["cantor", "--lmax", "2", "--curve", "1e-2,abc"],
        ["cantor", "--lmax", "2", "--curve", "1e-2,2.0"],
        ["cantor", "--lmax", "2", "--curve", "1e-2,1e-3", "--jobs", "0"],
        ["cantor", "--lmax", "2", "--tau2", "inf"],
        ["spectrum", "--scan", "--lmax", "2", "--grid", "200", "--eps-hat", "1e-4"],
        ["simulate", "--dt", "0.3", "--t", "1"],
    ], ids=["curve-not-a-number", "curve-gamma-out-of-range", "jobs-zero", "tau2-infinite",
            "perturbed-scan-without-seed", "final-time-not-a-whole-number-of-steps"])
    def test_exit_1_and_nothing_written(self, tmp_path, args):
        d = tmp_path / "out"
        d.mkdir()
        assert run_cli(args + ["--output-dir", str(d)]) == 1
        assert list(d.iterdir()) == []

    @pytest.mark.parametrize("name", ["", "a_file"], ids=["empty", "existing-file"])
    def test_output_dir_that_cannot_be_created(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a_file").write_text("")
        assert run_cli(["spectrum", "--jmax", "1", "--output-dir", name]) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["a_file"]


class _RecordingExecutor:
    """Stands in for ProcessPoolExecutor: runs serially, records max_workers."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestJobsBound:
    @pytest.mark.parametrize("jobs,cpus,workers", [
        (8, 64, 3),   # capped by the number of gammas
        (8, 2, 2),    # capped by the CPU count
        (2, 64, 2),   # as requested
        (4, 1, 1),    # one CPU: serial, no pool
    ])
    def test_worker_count(self, tmp_path, monkeypatch, jobs, cpus, workers):
        from vortexpatch import cli
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_RecordingExecutor, "started", [])
        code = run_cli(["cantor", "--gamma", "1e-2", "--lmax", "2",
                        "--curve", "1e-2,1e-3,1e-4", "--jobs", str(jobs),
                        "--output-dir", str(tmp_path)])
        assert code == 0
        assert _RecordingExecutor.started == ([workers] if workers > 1 else [])
        assert _read_json(tmp_path, "cantor_manifest.json")["config"]["jobs"] == workers
        assert _csv_rows(tmp_path, "cantor_curve.csv") == 3


def test_cli_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import vortexpatch.cli, sys; assert 'sympy' not in sys.modules"],
        env=env, check=True)
