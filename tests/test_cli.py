"""Command-line interface: dispatch, config handling, exit codes,
deterministic artifacts."""

import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import vortexpatch
from vortexpatch.cli import main
from vortexpatch.spectrum import FrequencySystem, transversality_scan


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

    def test_scan_manifest_profile(self, tmp_path):
        # the manifest's profile block is the scan's: its counts repeat exactly
        code = run_cli(["spectrum", "--scan", "--lmax", "2", "--grid", "400",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        prof = _read_json(tmp_path, "spectrum_manifest.json")["profile"]
        rep = transversality_scan(FrequencySystem((1, 2), 0.1, 0.9), Lmax=2, grid_size=400)
        assert ({k: v for k, v in prof.items() if not k.endswith("_s")}
                == {k: v for k, v in rep.profile.items() if not k.endswith("_s")})
        assert prof["coarse_s"] > 0 and prof["fine_s"] > 0
        assert prof["order_evaluations"] < prof["tuples"] * len(prof["orders"])

    def test_manifest_written(self, tmp_path):
        run_cli(["spectrum", "--b", "0.5", "--output-dir", str(tmp_path)])
        man = json.loads((tmp_path / "spectrum_manifest.json").read_text())
        assert man["subcommand"] == "spectrum"
        assert man["config"]["b"] == 0.5
        assert "numpy" in man["versions"]
        assert man["versions"]["vortexpatch"] == vortexpatch.__version__
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
        assert prof["energy_evaluations"] == 4  # t = 0, 0.02, 0.04 and the final 0.05
        assert 0.0079 < prof["max_admissibility_ratio"] < 0.0081  # ~1e-3 / 0.125
        assert 0.5 < prof["max_R"] < 0.51
        assert prof["stepping_s"] > 0 and prof["diagnostics_s"] > 0

    def test_final_state_off_the_stride_recorded(self, tmp_path):
        # 50 steps with the default stride 100: the run still ends in a record at T
        code = run_cli(["simulate", "--amplitudes", "2:1e-3", "--dt", "1e-3", "--t", "0.05",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        summary = json.loads((tmp_path / "simulate_summary.json").read_text())
        assert summary["snapshots"] == 2
        assert summary["final_time"] == 0.05
        rows = (tmp_path / "simulate_trajectory.csv").read_text().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == [0.0, 0.05]

    def test_inadmissible_amplitude(self, tmp_path):
        # amplitude above b^2/2 violates patch admissibility -> config error
        code = run_cli(["simulate", "--b", "0.5", "--amplitudes", "2:0.2",
                        "--dt", "1e-2", "--t", "0.1",
                        "--output-dir", str(tmp_path)])
        assert code == 1


    @pytest.mark.parametrize("stride", ["1", "1000"])
    def test_boundary_contact_aborts_at_any_stride(self, tmp_path, capsys, stride):
        # a step of this seed reaches the circle: the run aborts with exit 2 and
        # writes its artifacts, whether or not that step is a record step
        code = run_cli(["simulate", "--b", "0.7508216406058041",
                        "--amplitudes", "4:0.12646316189948498,3:-0.054734360079358786",
                        "--grid", "32", "--dt", "0.2", "--t", "6", "--stride", stride,
                        "--output-dir", str(tmp_path)])
        assert code == 2
        assert "simulation aborted" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["simulate_manifest.json",
                                                "simulate_summary.json",
                                                "simulate_trajectory.csv"]
        assert _read_json(tmp_path, "simulate_summary.json")["aborted"]


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

    def test_curve_with_jobs_canonical_order(self, tmp_path, monkeypatch):
        from vortexpatch import cli
        for cpus, name in ((1, "serial"), (2, "parallel")):
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            d = tmp_path / name
            code = run_cli(["cantor", "--gamma", "1e-2", "--lmax", "2",
                            "--curve", "1e-2,1e-3", "--output-dir", str(d)])
            assert code == 0
            assert _read_json(d, "cantor_manifest.json")["profile"]["curve_workers"] == cpus
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

    @pytest.mark.parametrize("args,converged,band", [
        (["--steps", "2"], False, [4, 8]),
        ([], True, [4, 8, 22, 32, 32]),
    ], ids=["two-steps", "readme-run"])
    def test_transport_manifest_reports_convergence(self, tmp_path, args, converged, band):
        code = run_cli(["kam-transport", "--amp", "0.1", *args, "--output-dir", str(tmp_path)])
        assert code == 0
        profile = _read_json(tmp_path, "kam-transport_manifest.json")["profile"]
        last = float((tmp_path / "kam_transport_history.csv").read_text()
                     .splitlines()[-1].split(",")[1])
        iterations = profile.pop("inverse_shift_iterations")
        # one entry per change of variables; beta's band is N_m = 4^(1.5^m),
        # capped at the Nyquist mode 32 of the default grid
        assert profile == {"converged": converged, "delta_s0": last, "horner_band": band}
        assert len(iterations) == len(band) and all(k >= 1 for k in iterations)
        assert (last <= 1e-14) == converged
        assert _read_json(tmp_path, "kam_transport_result.json")["reducible"]

    def test_transport_negative_speed_runs(self, tmp_path):
        # V0 + amp cos(theta) < 0 everywhere has a rotation number too
        assert run_cli(["kam-transport", "--v0", "-0.5", "--output-dir", str(tmp_path)]) == 0
        js = _read_json(tmp_path, "kam_transport_result.json")
        assert js["reducible"]
        assert abs(js["V_infty"] + np.sqrt(0.24)) < 1e-8

    def test_transport_slow_inverse_shift_runs_unconverged(self, tmp_path, capsys):
        # a valid speed, V0 + amp cos(theta) in [0.05, 0.95]: the first inverse
        # shift contracts at max|d_theta beta| = 0.9 and takes more than 200
        # steps within its derived cap.  The default grid of 64 is too coarse for
        # the stop test: the run ends unconverged, V_infty about 3e-4 off
        # sqrt(0.0475), and stdout says so
        code = run_cli(["kam-transport", "--amp", "0.45", "--output-dir", str(tmp_path)])
        assert code == 0
        profile = _read_json(tmp_path, "kam-transport_manifest.json")["profile"]
        assert profile["inverse_shift_iterations"][0] > 200
        assert not profile["converged"]
        assert capsys.readouterr().out.endswith(
            f", reducible = True, converged = False (delta_s0 = {profile['delta_s0']:.2e})\n")
        js = _read_json(tmp_path, "kam_transport_result.json")
        assert js["reducible"]
        assert abs(js["V_infty"] - np.sqrt(0.0475)) < 1e-3

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
        assert [(g["step"], g["G"]) for g in grid] == [(0, 36), (1, 50)]
        assert all(0 <= g["shell_max"] < 1e-10 * g["sup_R_next"] for g in grid)

    def test_non_reducible_exit_2(self, tmp_path):
        # a remainder too large to conjugate (|Psi| >= 1/2): invariant violation
        # exit code (gamma is confined to (0, 1), so it can no longer cut every mode)
        code = run_cli(["kam-remainder", "--seed", "0", "--delta0", "1",
                        "--output-dir", str(tmp_path)])
        assert code == 2

    def test_remainder_with_real_part_exit_2(self, tmp_path, monkeypatch):
        # a remainder that is not purely imaginary is refused by ReductionState:
        # an invariant violation, not a bad config
        from vortexpatch import cli
        make = cli.synthetic_reversible_remainder

        def with_real_part(*args, **kwargs):
            R = make(*args, **kwargs)
            R.entries[0, 0, 1] += 1e-12
            return R

        monkeypatch.setattr(cli, "synthetic_reversible_remainder", with_real_part)
        code = run_cli(["kam-remainder", "--seed", "0", "--n", "4", "--l", "2",
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


class _WorkStarted(Exception):
    pass


class TestValidateBeforeWork:
    """Bad input exits 1 before any computation or file write."""

    @staticmethod
    def _forbid_work(monkeypatch):
        from vortexpatch import cli

        def work(*args, **kwargs):  # a run that gets this far checked its input too late
            raise _WorkStarted

        for name in ("run_simulation", "assemble", "transversality_scan", "excluded_measure",
                     "straighten_transport", "synthetic_reversible_remainder", "omega"):
            monkeypatch.setattr(cli, name, work)

    @pytest.mark.parametrize("args", [
        ["cantor", "--lmax", "2", "--curve", "1e-2,abc"],
        ["cantor", "--lmax", "2", "--curve", "1e-2,2.0"],
        ["cantor", "--lmax", "2", "--curve", "1e-2,1e-3", "--jobs", "2"],
        ["cantor", "--lmax", "2", "--tau2", "inf"],
        ["spectrum", "--scan", "--lmax", "2", "--grid", "200", "--eps-hat", "1e-4"],
        ["simulate", "--dt", "0.3", "--t", "1"],
        ["kam-remainder", "--seed", "0", "--steps", "-1"],
        ["kam-transport", "--steps", "-1"],
        ["kam-transport", "--gamma", "0"],
        ["kam-remainder", "--seed", "0", "--gamma", "0"],
        ["kam-remainder", "--seed", "0", "--gamma", "-1"],
        ["kam-remainder", "--seed", "0", "--gamma", "2"],
        ["kam-transport", "--tau1", "nan"],
        ["kam-transport", "--upsilon", "0"],
        ["kam-transport", "--upsilon", "2"],
        ["kam-remainder", "--seed", "0", "--delta0", "-1e-3"],
        ["kam-remainder", "--seed", "0", "--tau2", "nan"],
        ["kam-remainder", "--seed", "0", "--delta0", "nan"],
        ["kam-remainder", "--seed", "0", "--n", "0"],
        ["kam-transport", "--amp", "inf"],
        ["kam-transport", "--v0", "nan"],
        ["simulate", "--t", "inf"],
        ["spectrum", "--scan", "--eps-hat", "nan", "--seed", "0"],
        ["spectrum", "--scan", "--eps-hat", "-1e-4", "--seed", "0"],
        ["spectrum", "--eps-hat", "1e-4", "--seed", "0"],
        ["kam-transport", "--steps", "0"],
        ["kam-remainder", "--seed", "0", "--l", "-1"],
        ["kam-transport", "--tau1", "-1"],
        ["kam-remainder", "--seed", "0", "--tau2", "-5"],
        ["simulate", "--amplitudes", "30:1e-4", "--grid", "64"],
        ["simulate", "--b", "0.9999999"],
        ["linearize", "--b", "0.9999999"],
        ["kam-transport", "--amp", "0.6"],
        ["kam-transport", "--amp", "0.5"],
        ["kam-transport", "--v0", "0"],
        ["simulate", "--track", "2,2"],
        ["simulate", "--amplitudes", "2:1e-3,2:2e-3"],
        ["simulate", "--grid", "64", "--track", "66,2"],
        ["spectrum", "--b", "0.5", "--seed", "3"],
    ], ids=["curve-not-a-number", "curve-gamma-out-of-range", "jobs-flag", "tau2-infinite",
            "perturbed-scan-without-seed", "final-time-not-a-whole-number-of-steps",
            "remainder-steps-negative", "transport-steps-negative", "transport-gamma-zero",
            "remainder-gamma-zero", "remainder-gamma-negative", "remainder-gamma-above-one",
            "transport-tau1-nan", "transport-upsilon-zero", "transport-upsilon-above-one",
            "remainder-delta0-negative", "remainder-tau2-nan", "remainder-delta0-nan",
            "remainder-n-zero", "transport-amp-infinite", "transport-v0-nan",
            "final-time-infinite", "eps-hat-nan", "eps-hat-negative", "eps-hat-without-scan",
            "transport-steps-zero", "remainder-l-negative", "transport-tau1-negative",
            "remainder-tau2-negative", "seed-mode-above-grid-third", "simulate-seed-on-circle",
            "linearize-seed-on-circle", "transport-speed-changes-sign",
            "transport-speed-vanishes", "transport-v0-zero", "track-mode-repeated",
            "amplitude-mode-repeated", "track-mode-above-grid-third", "seed-without-eps-hat"])
    def test_exit_1_and_nothing_written(self, tmp_path, monkeypatch, args):
        self._forbid_work(monkeypatch)
        d = tmp_path / "out"
        d.mkdir()
        assert run_cli(args + ["--output-dir", str(d)]) == 1
        assert list(d.iterdir()) == []

    @pytest.mark.parametrize("cmd,config,flags", [
        ("cantor", {"gama": 0.5, "lmax": 3}, []),
        ("cantor", {"jobs": 2, "lmax": 2, "curve": "1e-2,1e-3"}, []),
        ("simulate", {"amplitudes": {"2": 1e-3, "02": 2e-3}}, []),
        ("simulate", {"track": "2,3,2"}, []),
        ("cantor", {"lmax": 3.7}, []),
        ("spectrum", {"jmax": True}, []),
        ("spectrum", {"output_dir": 5}, []),
        # a value that a flag overrides is checked too
        ("spectrum", {"jmax": "abc"}, ["--jmax", "2"]),
        ("cantor", {"gamma": "nan", "lmax": 2}, ["--gamma", "1e-3"]),
        ("spectrum", {"output_dir": 5}, ["--output-dir", "."]),
    ], ids=["unknown-key", "unknown-key-jobs", "amplitude-mode-repeated",
            "track-mode-repeated", "integer-key-fractional", "integer-key-boolean",
            "output-dir-not-a-string", "overridden-key-not-an-integer",
            "overridden-key-not-finite", "overridden-output-dir-not-a-string"])
    def test_config_exit_1_and_nothing_written(self, tmp_path, monkeypatch, cmd, config, flags):
        self._forbid_work(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        d = tmp_path / "out"
        d.mkdir()
        monkeypatch.chdir(d)  # where a run without an output directory writes
        assert run_cli([cmd, "--config", str(cfg)] + flags) == 1
        assert list(d.iterdir()) == []

    @pytest.mark.parametrize("cmd,text", [
        ("cantor", '{"lmax": 3, "lmax": 2}'),
        ("simulate", '{"amplitudes": {"2": 1e-3, "2": 2e-3}}'),
    ], ids=["top-level", "amplitude-mode"])
    def test_config_key_given_twice(self, tmp_path, monkeypatch, cmd, text):
        # json.load alone keeps the last value of a repeated key
        self._forbid_work(monkeypatch)
        cfg = tmp_path / "run.json"
        cfg.write_text(text)
        d = tmp_path / "out"
        d.mkdir()
        assert run_cli([cmd, "--config", str(cfg), "--output-dir", str(d)]) == 1
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
    """A measure curve runs on min(CPUs in the affinity set, number of gammas) workers."""

    @pytest.mark.parametrize("affinity,cpus,gammas,workers", [
        (64, 64, "1e-2,1e-3,1e-4", 3),  # capped by the number of gammas
        (2, 2, "1e-2,1e-3,1e-4", 2),    # capped by the CPU count
        (None, None, "1e-2,1e-3,1e-4", 1),  # no affinity, CPU count unknown: serial
        (1, 1, "1e-2,1e-3,1e-4", 1),    # one CPU: serial, no pool
        (64, 64, "1e-3", 1),            # one gamma: serial, no pool
        (1, 2, "1e-2,1e-3,1e-4", 1),    # pinned to one of two CPUs: serial, no pool
    ], ids=["cpus64-gammas3", "cpus2-gammas3", "cpus-unknown-gammas3", "cpus1-gammas3",
            "cpus64-gammas1", "affinity1-cpus2-gammas3"])
    def test_worker_count(self, tmp_path, monkeypatch, affinity, cpus, gammas, workers):
        from vortexpatch import cli
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingExecutor)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        if affinity is None:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(affinity)))
        monkeypatch.setattr(_RecordingExecutor, "started", [])
        code = run_cli(["cantor", "--gamma", "1e-2", "--lmax", "2",
                        "--curve", gammas, "--output-dir", str(tmp_path)])
        assert code == 0
        assert _RecordingExecutor.started == ([workers] if workers > 1 else [])
        manifest = _read_json(tmp_path, "cantor_manifest.json")
        assert manifest["profile"]["curve_workers"] == workers
        assert "jobs" not in manifest["config"]
        assert _csv_rows(tmp_path, "cantor_curve.csv") == len(gammas.split(","))


def test_cli_import_does_not_load_sympy():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run(
        [sys.executable, "-c", "import vortexpatch.cli, sys; assert 'sympy' not in sys.modules; "
         "assert 'concurrent.futures.process' not in sys.modules; "
         "assert 'fractions' not in sys.modules"],
        env=env, check=True)


@pytest.mark.parametrize("given", [None, "2"])
def test_cli_import_sets_one_blas_thread(given, tmp_path):
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads: importing
    # the CLI first makes one thread the default and keeps a value the caller
    # gave.  After a product large enough to wake the BLAS workers, a
    # one-thread process still runs one thread, and the run's manifest
    # records the setting
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = """if True:
        import os, sys
        import vortexpatch.cli as cli
        import numpy as np
        a = np.ones((400, 400))
        a @ a
        print(os.environ["OPENBLAS_NUM_THREADS"])
        if os.path.exists("/proc/self/status"):
            with open("/proc/self/status") as fh:
                print([line.split()[1] for line in fh if line.startswith("Threads:")][0])
        cli.main(["spectrum", "--jmax", "2", "--output-dir", sys.argv[1]])
    """
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, check=True,
                         capture_output=True, text=True).stdout.split("\n")
    expected = given or "1"
    assert out[0] == expected
    if given is None and os.path.exists("/proc/self/status"):
        assert out[1] == "1"
    assert _read_json(tmp_path, "spectrum_manifest.json")["blas_threads"] == expected


def test_runs_do_not_load_numpy_ma(tmp_path):
    # np.unique and np.setdiff1d import numpy.ma on their first call (numpy 2.4),
    # at a cost of about 9 ms inside the first run that calls one
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    code = """if True:
        import sys
        from vortexpatch.cli import main
        runs = [["spectrum", "--scan", "--lmax", "2", "--grid", "200"],
                ["cantor", "--lmax", "2"],
                ["cantor", "--lmax", "2", "--kind", "second-order-Melnikov"],
                ["cantor", "--lmax", "2", "--kind", "transport"],
                ["linearize", "--grid", "64", "--n", "8"],
                ["kam-remainder", "--seed", "0", "--n", "4", "--l", "2", "--steps", "1"]]
        for k, args in enumerate(runs):
            try:
                main(args + ["--output-dir", f"{sys.argv[1]}/{k}"])
            except SystemExit as exc:
                assert not exc.code, (args, exc.code)
        assert "numpy.ma" not in sys.modules
    """
    subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                   env=dict(os.environ, PYTHONPATH=src), check=True)


#: one small run per subcommand and the sha256 of each of its artifacts but the
#: manifest, as an earlier version of the package wrote them: a refactor keeps
#: every artifact byte-identical
PINNED = {
    # simulate and linearize re-pinned for K1/K2 and the 2/3 projection as
    # matrices, and again for the fused log-table stack and the complex F
    # assembly: they move in their last digits, within TestContourArtifactTolerance
    "simulate": (
        ["simulate", "--b", "0.5", "--amplitudes", "2:1e-3", "--dt", "1e-2", "--t", "0.1",
         "--stride", "2", "--track", "2"],
        {
            "simulate_summary.json":
                "976b46c9c8f5a24ec35c32ac25cfe0028c552cd3e709091df8e4766130949322",
            "simulate_trajectory.csv":
                "e9080b791b9cc84364f3a983514a7b33c1bdc98242ebc12755801811c9adabaa",
        }),
    "linearize": (
        ["linearize", "--b", "0.5", "--grid", "64", "--n", "4"],
        {
            "linearize_matrix.csv":
                "ac3ff70e14fb76da15ab64c1b588e2b18ec911edc744060f8542bac8deebabb3",
            "linearize_spectrum.csv":
                "7f77daa478e2021c6105113babdb556e7545f8ad56e4e1e6913b823c0576a120",
        }),
    "spectrum": (
        ["spectrum", "--b", "0.5", "--jmax", "5", "--scan", "--lmax", "2", "--grid", "400",
         "--eps-hat", "1e-4", "--seed", "0"],
        {
            "spectrum_omega.csv":
                "2c4160cf925f5a59733090a1f01c60e8a113a690a069c8337904d27d44d5c52a",
            "spectrum_scan.csv":
                "345e5b7aa1e4122ff86f1281cd6492a54e3e27a585e1747f4a5ca2c8bac7c553",
            "spectrum_scan.json":
                "af89617b92d8073f8f219d53a93f4ceadc224900f05cfc2633321ce56b642585",
            "spectrum_scan_perturbed.json":
                "592ca080a18e46aa8fd7328b97bc7d9d5a506a5dd6f6d18ef2a7d0f2cf441e42",
        }),
    "cantor": (
        ["cantor", "--lmax", "3", "--kind", "second-order-Melnikov", "--curve", "1e-2,1e-3"],
        {
            "cantor_curve.csv":
                "170cbaf823907bd070d2c16d7cf8b0bca0a54de40967f5a9c0c6d192d5116b6b",
            "cantor_intervals.csv":
                "b947090a5b3ed31191e6168401bad9b146d89f991a9526e06437c190fdb2a827",
            "cantor_summary.json":
                "3c0142d8e92b9e52aae4ca130a99139795ff779a45c1494cdbf28f79a7ba83cb",
        }),
    "kam-transport": (
        ["kam-transport", "--k", "8", "--grid", "16", "--steps", "3"],
        {
            "kam_transport_history.csv":
                "cb780e698fe51e1270edde5a1442a46b8196e8c083bdcd2cc07780891964a446",
            "kam_transport_result.json":
                "d66d7a4329a9a3298be7033d4cc58ea8d8f88191ba2db0924069b59a8c990d99",
        }),
    "kam-remainder": (
        ["kam-remainder", "--seed", "0", "--n", "4", "--l", "3", "--steps", "2"],
        {
            # re-pinned for the half-grid kam_step on a 5-smooth grid: the
            # history moves in its last digits, within TestRemainderTolerance
            "kam_remainder_history.csv":
                "d210ccde661bafcef0545b35cc30a50926f95e654ee2e4e3454e700a57731db7",
            "kam_remainder_spectrum.json":
                "7ce4b22965eb8403d3b8d2a9fdc964ce11b8600137b9996475bf54479ace31c3",
        }),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_artifact_bytes_pinned(tmp_path, name):
    args, want = PINNED[name]
    assert run_cli(args + ["--output-dir", str(tmp_path)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.iterdir() if not p.name.endswith("_manifest.json")}
    assert got == want


#: the simulate and linearize artifacts as a version that applied K1/K2 and the
#: 2/3 projection by FFT wrote them (the hashes in PINNED before it was re-pinned)
RECORDED = pathlib.Path(__file__).parent / "recorded"


def _csv_columns(path) -> dict:
    lines = pathlib.Path(path).read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return dict(zip(lines[0].split(","), np.array(rows).T))


class TestContourArtifactTolerance:
    """The stated tolerance of the contour artifacts against the recorded FFT-form
    run: the matrix form of K1/K2 and of the 2/3 projection moves only round-off.
    Every trajectory column moves by at most 1e-13 of its largest |value|, but the
    mean of r, which is round-off about 0, by at most 1e-13 sup|r0|; each summary
    float by at most 1e-13 of itself (the mean and the drift as the columns they
    come from); every matrix entry by at most 1e-13 of the largest |entry|, and
    every eigenvalue by at most 1e-12."""

    def test_simulate(self, tmp_path):
        args, _ = PINNED["simulate"]
        assert run_cli(args + ["--output-dir", str(tmp_path)]) == 0
        sup_r0 = 1e-3  # the seed 2:1e-3
        got = _csv_columns(tmp_path / "simulate_trajectory.csv")
        want = _csv_columns(RECORDED / "simulate" / "simulate_trajectory.csv")
        assert list(got) == list(want)
        assert np.all(got["time"] == want["time"])
        for name, col in want.items():
            scale = sup_r0 if name == "mean" else np.max(np.abs(col))
            assert np.all(np.abs(got[name] - col) <= 1e-13 * scale), name
        got = _read_json(tmp_path, "simulate_summary.json")
        want = _read_json(RECORDED / "simulate", "simulate_summary.json")
        assert got.keys() == want.keys()
        scales = {"final_mean": sup_r0, "hamiltonian_drift": abs(want["initial_hamiltonian"])}
        for key, value in want.items():
            if isinstance(value, float):
                assert abs(got[key] - value) <= 1e-13 * scales.get(key, abs(value)), key
            else:
                assert got[key] == value, key

    @pytest.mark.parametrize("name,args", [
        ("linearize_deformed", ["linearize", "--b", "0.5", "--n", "16",
                                "--amplitudes", "2:1e-3,3:5e-4"]),
        ("linearize_equilibrium", PINNED["linearize"][0]),
    ], ids=["deformed", "equilibrium"])
    def test_linearize(self, tmp_path, name, args):
        assert run_cli(args + ["--output-dir", str(tmp_path)]) == 0
        got = _csv_columns(tmp_path / "linearize_matrix.csv")
        want = _csv_columns(RECORDED / name / "linearize_matrix.csv")
        assert np.all(got["j"] == want["j"]) and np.all(got["j0"] == want["j0"])
        entries = want["re"] + 1j * want["im"]
        assert np.all(np.abs(got["re"] + 1j * got["im"] - entries)
                      <= 1e-13 * np.max(np.abs(entries)))
        got = _csv_columns(tmp_path / "linearize_spectrum.csv")
        want = _csv_columns(RECORDED / name / "linearize_spectrum.csv")
        assert np.all(got["j"] == want["j"])
        assert np.all(np.abs(got["re_lambda"] + 1j * got["im_lambda"]
                             - want["re_lambda"] - 1j * want["im_lambda"]) <= 1e-12)
