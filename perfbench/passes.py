"""The operations of one workload pass and the checks on their results.

Each workload is a closed loop with one client: its operations run in order,
each starting when the previous one returns.  An operation is timed alone;
its checks run afterwards, outside the timed region and with tracing off.
The program is driven only through ``vortexpatch.cli.main`` (in process) and
public library functions.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

import numpy as np

# Result tolerances, calibrated at the commit that introduced the benchmark;
# the worst value seen over 60 contour seeds (both sizes) is in brackets.
H_REL_DRIFT_TOL = 1e-9      # relative Hamiltonian drift of an RK4 leg [9.5e-11]
MEAN_DRIFT_TOL = 1e-12      # drift of the mean of r [8.7e-18]
FREQ_TOL = 1e-3             # |extracted Omega_j - omega(b, j)| [1.3e-4]
# sup |F_b[r] - (1/2) d_theta grad E| by grid size M
# [5.9e-6 at M=32, 7.4e-7 at M=64, 1.1e-8 at M=256]
ORACLE_TOL = {32: 5e-5, 64: 1e-5, 256: 1e-7}
DIAG_TOL = 1e-9             # equilibrium matrix vs diag(-i Omega_j)
# Absolute tolerance on Cantor excluded totals.  It admits the ~6e-9 shift a
# resolution-aware sublevel measurement is expected to cause.
CANTOR_TOTAL_TOL = 1e-7
V_INFTY_TOL = 1e-8


class Op:
    """One timed operation: ``run(ctx)`` does the work, ``check(ctx)`` returns
    a list of failed-check messages (empty when every check passes)."""

    def __init__(self, name, run, check, outdir=None):
        self.name = name
        self.run = run
        self.check = check
        self.outdir = outdir


def run_cli(args) -> int:
    """``vpatch <args>`` in process; returns the exit code."""
    from vortexpatch import cli
    try:
        cli.main(list(args))
    except SystemExit as exc:
        return 0 if exc.code is None else exc.code
    return 0


def artifact_digests(outdir: str) -> tuple:
    """({file: sha256} of the CLI artifacts except the manifest, total bytes)."""
    digests, size = {}, 0
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        size += len(data)
        if not name.endswith("_manifest.json"):
            digests[name] = hashlib.sha256(data).hexdigest()
    return digests, size


def _read_json(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _cli_op(name, outdir, args, check):
    def run(ctx):
        ctx[name] = run_cli(list(args) + ["--output-dir", outdir])

    def checked(ctx):
        if ctx[name] != 0:
            return [f"exit code {ctx[name]}"]
        return check(ctx)

    return Op(name, run, checked, outdir)


def _fmt_amplitudes(amps: dict) -> str:
    return ",".join(f"{j}:{a!r}" for j, a in amps.items())


# ---------------------------------------------------------------------------
# contour
# ---------------------------------------------------------------------------

def _leg_checks(traj):
    out = []
    if traj.aborted:
        return [f"simulate aborted: {traj.abort_reason}"]
    if abs(traj.times[-1] - traj.config.T) > 1e-9 * traj.config.T:
        out.append("simulate stopped before the final time")
    mean_drift = abs(traj.means[-1] - traj.means[0])
    if not mean_drift <= MEAN_DRIFT_TOL:
        out.append(f"mean drift {mean_drift:.3e} > {MEAN_DRIFT_TOL}")
    H = traj.hamiltonians
    rel = abs(H[-1] - H[0]) / abs(H[0])
    if not rel <= H_REL_DRIFT_TOL:
        out.append(f"relative H drift {rel:.3e} > {H_REL_DRIFT_TOL}")
    return out


def _fields_op(name, leg):
    """energy, grad E and F_b at the final state of an RK4 leg."""
    from vortexpatch import dynamics
    from vortexpatch.geometry import PatchState
    from vortexpatch.spectral import PeriodicField, spectral_derivative

    def run(ctx):
        traj = ctx[leg]
        state = PatchState(traj.b, PeriodicField(traj.snapshots[-1]))
        ctx[name] = (state.M, dynamics.energy(state),
                     dynamics.stream_gradient(state).values,
                     dynamics.velocity_functional(state).values)

    def check(ctx):
        M, E, grad, F = ctx[name]
        out = []
        err = float(np.max(np.abs(F - 0.5 * spectral_derivative(grad))))
        if not err <= ORACLE_TOL[M]:
            out.append(f"F_b vs (1/2) d_theta grad E: {err:.3e} > {ORACLE_TOL[M]}")
        if -0.5 * E != ctx[leg].hamiltonians[-1]:
            out.append("energy disagrees with the recorded Hamiltonian")
        return out

    return Op(name, run, check)


def contour_ops(inputs: dict, outdir: str) -> list:
    from vortexpatch import dynamics
    from vortexpatch.spectrum import omega

    sz = inputs["sizes"]
    b, track = inputs["b"], inputs["track"]
    amps = {int(j): a for j, a in inputs["amplitudes"].items()}

    def leg(name, M, steps, dt, stride, modes):
        def run(ctx):
            state = dynamics.quasi_periodic_seed(b, amps, M=M)
            cfg = dynamics.EvolutionConfig(dt=dt, T=steps * dt,
                                           record_stride=stride,
                                           track_modes=modes)
            ctx[name] = dynamics.simulate(state, cfg)
        return Op(name, run, lambda ctx: _leg_checks(ctx[name]))

    def extract(ctx):
        ctx["extract_frequency"] = dynamics.extract_frequencies(ctx["simulate_m64"], track)

    def extract_check(ctx):
        err = abs(ctx["extract_frequency"] - float(omega(b, track)))
        return [] if err <= FREQ_TOL else [f"Omega_{track} error {err:.3e} > {FREQ_TOL}"]

    def equilibrium_check(ctx):
        d = os.path.join(outdir, "linearize_equilibrium")
        off, diag = 0.0, 0.0
        with open(os.path.join(d, "linearize_matrix.csv")) as fh:
            for row in csv.DictReader(fh):
                j, j0 = int(row["j"]), int(row["j0"])
                v = complex(float(row["re"]), float(row["im"]))
                if j == j0:
                    diag = max(diag, abs(v + 1j * float(omega(b, j))))
                else:
                    off = max(off, abs(v))
        out = []
        if not diag <= DIAG_TOL:
            out.append(f"diagonal vs -i Omega_j: {diag:.3e} > {DIAG_TOL}")
        if not off <= DIAG_TOL:
            out.append(f"off-diagonal {off:.3e} > {DIAG_TOL}")
        return out

    def deformed_check(ctx):
        d = os.path.join(outdir, "linearize_deformed")
        with open(os.path.join(d, "linearize_spectrum.csv")) as fh:
            rows = list(csv.DictReader(fh))
        ok = len(rows) == 2 * sz["lin_n"] and all(
            math.isfinite(float(r["re_lambda"])) and math.isfinite(float(r["im_lambda"]))
            for r in rows)
        return [] if ok else ["deformed spectrum incomplete or not finite"]

    lin = ["linearize", "--b", repr(b), "--grid", str(sz["lin_grid"]),
           "--n", str(sz["lin_n"])]
    return [
        leg("simulate_m64", sz["M1"], sz["steps1"], sz["dt1"], sz["stride1"], (track,)),
        Op("extract_frequency", extract, extract_check),
        _fields_op("fields_m64", "simulate_m64"),
        leg("simulate_m256", sz["M2"], sz["steps2"], sz["dt2"], sz["steps2"], ()),
        _fields_op("fields_m256", "simulate_m256"),
        _cli_op("linearize_equilibrium", os.path.join(outdir, "linearize_equilibrium"),
                lin, equilibrium_check),
        _cli_op("linearize_deformed", os.path.join(outdir, "linearize_deformed"),
                lin + ["--amplitudes", _fmt_amplitudes(amps)], deformed_check),
    ]


# ---------------------------------------------------------------------------
# resonance
# ---------------------------------------------------------------------------

def scan_essentials(report: dict) -> dict:
    """The scan result proper: rho0_hat, case and witness, overall and per case."""
    return {"rho0_hat": report["rho0_hat"], "case": report["case"],
            "witness": report["witness"],
            "per_case": {c: {"rho0_hat": v["rho0_hat"], "witness": v["witness"]}
                         for c, v in report["per_case"].items()}}


def resonance_ops(inputs: dict, outdir: str, reference: dict) -> list:
    from vortexpatch import spectrum

    sz = inputs["sizes"]
    ops = []

    def scan_check(ctx):
        d = os.path.join(outdir, "scan")
        got = _read_json(d, "spectrum_scan.json")
        out = []
        cases = got.get("per_case", {})
        if set(cases) != {"i", "ii", "iii", "iv"}:
            out.append(f"scan cases {sorted(cases)}")
        for case, data in cases.items():
            if not data["rho0_hat"] > 0:
                out.append(f"case {case}: rho0_hat {data['rho0_hat']} not positive")
        if scan_essentials(got) != reference["scan"]:
            out.append("rho0_hat/case/witness differ from the recorded reference")
        return out

    ops.append(_cli_op(
        "scan", os.path.join(outdir, "scan"),
        ["spectrum", "--b", "0.5", "--scan", "--sites", "1,2",
         "--b0", repr(inputs["scan_b0"]), "--b1", repr(inputs["scan_b1"]),
         "--lmax", str(sz["scan_lmax"]), "--grid", str(sz["scan_grid"])],
        scan_check))

    for kind in sz["lmax"]:
        d = os.path.join(outdir, f"cantor_{kind}")

        def cantor_check(ctx, d=d, kind=kind):
            got = _read_json(d, "cantor_summary.json")
            out = []
            if got["russmann_violations"] != 0:
                out.append(f"{got['russmann_violations']} Russmann violations")
            diff = abs(got["total_excluded"] - reference["cantor"][kind])
            if not diff <= CANTOR_TOTAL_TOL:
                out.append(f"{kind} total off the recorded reference by {diff:.3e}")
            return out

        ops.append(_cli_op(
            f"cantor_{kind}", d,
            ["cantor", "--gamma", repr(inputs["gamma"]), "--tau2", repr(inputs["tau2"]),
             "--sites", "1,2", "--b0", "0.1", "--b1", "0.9",
             "--lmax", str(sz["lmax"][kind]), "--kind", kind],
            cantor_check))

    def nondeg(ctx):
        sysf = spectrum.FrequencySystem((1, 2), inputs["scan_b0"], inputs["scan_b1"])
        ctx["nondegeneracy"] = spectrum.nondegeneracy_test(sysf)

    ops.append(Op("nondegeneracy", nondeg,
                  lambda ctx: [] if ctx["nondegeneracy"] is True
                  else ["frequencies reported degenerate"]))
    return ops


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def reduction_ops(inputs: dict, outdir: str) -> list:
    sz = inputs["sizes"]
    amp, V0 = inputs["amp"], inputs["V0"]
    d_transport = os.path.join(outdir, "kam_transport")
    d_remainder = os.path.join(outdir, "kam_remainder")

    def transport_check(ctx):
        got = _read_json(d_transport, "kam_transport_result.json")
        err = abs(got["V_infty"] - math.sqrt(V0 * V0 - amp * amp))
        out = [] if got["reducible"] else ["transport not reducible"]
        if not err <= V_INFTY_TOL:
            out.append(f"V_infty error {err:.3e} > {V_INFTY_TOL}")
        return out

    def remainder_check(ctx):
        # exit code 0 means every kam_step passed its exact (tol = 0)
        # realness/reversibility/oddness assertions; the artifacts are
        # checked for exact oddness of mu and a decreasing delta.
        mu = _read_json(d_remainder, "kam_remainder_spectrum.json")["mu"]
        out = []
        if any(mu[str(j)]["mu"] != -mu[str(-j)]["mu"]
               for j in range(1, sz["N"] + 1)):
            out.append("mu is not exactly odd in j")
        with open(os.path.join(d_remainder, "kam_remainder_history.csv")) as fh:
            deltas = [float(r["delta_s0"]) for r in csv.DictReader(fh)]
        if len(deltas) != sz["steps"] + 1:
            out.append(f"{len(deltas)} history rows")
        if not all(b < a for a, b in zip(deltas, deltas[1:])):
            out.append(f"delta does not decrease: {deltas}")
        return out

    return [
        _cli_op("kam_transport", d_transport,
                ["kam-transport", "--amp", repr(amp), "--v0", repr(V0),
                 "--k", str(sz["K"]), "--grid", str(sz["grid"])],
                transport_check),
        _cli_op("kam_remainder", d_remainder,
                ["kam-remainder", "--n", str(sz["N"]), "--l", str(sz["L"]),
                 "--seed", str(inputs["remainder_seed"]),
                 "--delta0", repr(inputs["delta0"]), "--steps", str(sz["steps"]),
                 "--b", "0.5"],
                remainder_check),
    ]


def build_ops(inputs: dict, outdir: str, reference: dict | None = None) -> list:
    workload = inputs["workload"]
    if workload == "contour":
        return contour_ops(inputs, outdir)
    if workload == "resonance":
        return resonance_ops(inputs, outdir,
                             reference["resonance"][inputs["size"]][inputs["variant"]]["expected"])
    if workload == "reduction":
        return reduction_ops(inputs, outdir)
    raise ValueError(f"unknown workload {workload!r}")
