"""Command-line front end: subcommand dispatch, JSON configuration with flag
overrides, deterministic CSV/JSON artifacts, and a run manifest.

Exit codes: 0 success, 1 invalid configuration, 2 numerical invariant
violation (the message names the violated invariant).  All numeric CSV output
uses 17-significant-digit scientific notation; JSON is emitted with sorted
keys, so identical configuration and seed reproduce byte-identical artifacts
(the manifest additionally records the wall time and the OpenBLAS thread
setting, and is excluded from byte-level comparisons).

Each subcommand is declared by one parameter table; every value resolves as
flag > config file > default and is checked before any work starts (a float
must also be finite).
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time
from dataclasses import replace

# One OpenBLAS thread unless the caller chose otherwise.  OpenBLAS reads the
# variable once, when numpy loads, so it is set only where this module loads
# numpy first.  On a shared 2-core host its second thread added up to 50-70 ms
# to numpy's import (100 -> 51 ms, 167 -> 97 ms), the more the busier the
# host, and after a BLAS call it spins on the second CPU: a pure-Python loop
# then ran 1.7-1.8x slower.  No product in the package (the largest is
# 256 x 256 @ 256 x 32) is big enough to gain from it.  The --curve worker
# processes are forked from this one and inherit the setting.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
#: the OPENBLAS_NUM_THREADS value numpy loaded with (None: OpenBLAS's own
#: default, one thread per CPU); each manifest records it as ``blas_threads``
BLAS_THREADS = os.environ.get("OPENBLAS_NUM_THREADS")

import click
import numpy as np

from . import __version__
from .cantor import (
    KINDS,
    DiophantineSpec,
    excluded_measure,
    excluded_summary_json,
    excluded_to_csv,
)
from .dynamics import (
    EvolutionConfig,
    quasi_periodic_seed,
    simulate as run_simulation,
    trajectory_summary,
    trajectory_to_csv,
)
from .geometry import BoundaryContactError, DegeneratePatchError
from .kam import (
    _STRAIGHTENED,
    NonReducibleError,
    ReductionState,
    SymmetryError,
    TransportProblem,
    golden_frequency,
    remainder_history_csv,
    run_remainder_kam,
    spectrum_table_json,
    straighten_transport,
    synthetic_reversible_remainder,
    transport_history_csv,
)
from .linearized import assemble, matrix_to_csv, spectrum_to_csv
from .spectral import PeriodicField, _csv, theta_grid
from .spectrum import (
    FrequencySystem,
    omega,
    perturbed_transversality,
    scan_report_csv,
    scan_report_json,
    transversality_scan,
)

#: environment variable holding the default output directory
OUTPUT_DIR_ENV = "VPATCH_OUTPUT_DIR"


class InvariantViolation(RuntimeError):
    """A numerical invariant failed during a run (exit code 2)."""


# ---------------------------------------------------------------------------
# value types of the parameter tables: each converts a flag string or a
# config-file value and raises on bad input
# ---------------------------------------------------------------------------

_UNIT = click.FloatRange(0.0, 1.0, min_open=True, max_open=True)
_POSITIVE = click.IntRange(min=1)
_POSITIVE_FLOAT = click.FloatRange(min=0.0, min_open=True)


def _list_of(kind):
    """Converter of a comma list: '1,2' -> (1, 2); '' -> ()."""
    def convert(value):
        try:
            return tuple(kind(x) for x in str(value).split(",")) if value != "" else ()
        except ValueError:
            raise click.ClickException(
                f"bad {kind.__name__} list {value!r}; expected e.g. 1,2")
    return convert


def _amplitudes(value) -> dict:
    """'2:1e-3,5:2e-4' or {"2": 1e-3, "5": 2e-4} -> {2: 1e-3, 5: 2e-4}; '' -> {}.
    A mode given twice is refused."""
    if isinstance(value, dict):
        pairs = value.items()
    else:
        pairs = [part.split(":") for part in str(value).split(",")] if value != "" else []
    try:
        out = {int(j): float(a) for j, a in pairs}
    except (TypeError, ValueError):
        raise click.ClickException(f"bad amplitudes {value!r}; expected mode:value pairs")
    if len(out) != len(pairs):
        raise click.ClickException(f"amplitudes {value!r} give a mode twice")
    return out


# ---------------------------------------------------------------------------
# parameter tables: (flag, config key, type, default, help); the config key
# also names the resolved value in the manifest
# ---------------------------------------------------------------------------

SIMULATE = [
    ("--b", "b", _UNIT, 0.5, "patch radius parameter"),
    ("--amplitudes", "amplitudes", _amplitudes, "",
     "initial deformation, e.g. '2:1e-3,5:2e-4' (empty = flat)"),
    ("--grid", "grid", click.INT, 64, "theta grid size"),
    ("--dt", "dt", click.FLOAT, 1e-3, None),
    ("--t", "T", click.FLOAT, 1.0, "final time"),
    ("--stride", "stride", click.INT, 100, "record stride"),
    ("--track", "track", _list_of(int), "", "comma list of modes to track"),
]

LINEARIZE = [
    ("--b", "b", _UNIT, 0.5, None),
    ("--amplitudes", "amplitudes", _amplitudes, "",
     "deformation at which to linearize (empty = equilibrium)"),
    ("--grid", "grid", click.INT, 256, None),
    ("--n", "N", click.INT, 16, "matrix truncation"),
]

SPECTRUM = [
    ("--b", "b", _UNIT, 0.5, None),
    ("--jmax", "jmax", _POSITIVE, 10, None),
    ("--scan/--no-scan", "scan", click.BOOL, False,
     "also run the transversality scan over [b0, b1]"),
    ("--sites", "sites", _list_of(int), "1,2", "tangential set, e.g. 1,2"),
    ("--b0", "b0", _UNIT, 0.1, None),
    ("--b1", "b1", _UNIT, 0.9, None),
    ("--lmax", "lmax", _POSITIVE, 5, None),
    ("--grid", "grid", click.IntRange(min=2), 2000, None),
    ("--eps-hat", "eps_hat", click.FloatRange(min=0.0), None,
     "also run the perturbed scan at this offset size (needs --scan)"),
    ("--seed", "seed", click.INT, None, "seed for the perturbed scan samples"),
]

CANTOR = [
    ("--gamma", "gamma", click.FLOAT, 1e-3, None),
    ("--tau1", "tau1", click.FLOAT, 3.0, None),
    ("--tau2", "tau2", click.FLOAT, 13.0, None),
    ("--upsilon", "upsilon", click.FLOAT, 0.5, None),
    ("--lmax", "lmax", click.INT, 5, None),
    ("--sites", "sites", _list_of(int), "1,2", "tangential set, e.g. 1,2"),
    ("--kind", "kind", click.Choice(KINDS), "first-order-Melnikov", None),
    ("--b0", "b0", _UNIT, 0.1, None),
    ("--b1", "b1", _UNIT, 0.9, None),
    ("--curve", "curve", _list_of(float), "", "comma list of gammas for a measure curve"),
]

KAM_TRANSPORT = [
    ("--amp", "amp", click.FLOAT, 0.1, "f0 = amp cos(theta) perturbation of V0 = 1/2"),
    ("--v0", "V0", click.FLOAT, 0.5, None),
    ("--k", "K", click.INT, 16, "phi grid size"),
    ("--grid", "grid", click.INT, 64, "theta grid size"),
    ("--steps", "steps", _POSITIVE, 8, None),
    ("--gamma", "gamma", _UNIT, 1e-3, None),
    ("--upsilon", "upsilon", click.FloatRange(0.0, 1.0, min_open=True), 0.5, None),
    ("--tau1", "tau1", _POSITIVE_FLOAT, 3.0, None),
]

KAM_REMAINDER = [
    ("--n", "N", _POSITIVE, 8, "mode truncation"),
    ("--l", "L", click.IntRange(min=0), 8, "band truncation"),
    ("--delta0", "delta0", _POSITIVE_FLOAT, 1e-3, None),
    ("--seed", "seed", click.INT, None, "seed for the synthetic remainder (required)"),
    ("--steps", "steps", click.IntRange(min=0), 3, None),
    ("--b", "b", _UNIT, 0.5, "equilibrium parameter for the diagonal frequencies"),
    ("--gamma", "gamma", _UNIT, 1e-2, None),
    ("--tau2", "tau2", _POSITIVE_FLOAT, 2.5, None),
]


# ---------------------------------------------------------------------------
# resolution, artifacts and the manifest
# ---------------------------------------------------------------------------

def _unique_keys(pairs) -> dict:
    """JSON object hook: a key given twice is refused, not overwritten."""
    out = dict(pairs)
    if len(out) != len(pairs):
        raise click.ClickException(f"config file gives a key twice in {[k for k, _ in pairs]}")
    return out


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.ClickException(f"cannot read config file: {exc}")
    if not isinstance(cfg, dict):
        raise click.ClickException("config file must hold a JSON object")
    return cfg


def _resolve(cfg: dict, key: str, flag, default):
    """Flag value if given, else config-file value, else default."""
    return flag if flag is not None else cfg.get(key, default)


def _convert(flag: str, key: str, kind, value):
    """``value`` converted by ``kind``; raises on bad input or a non-finite float."""
    # click.INT would truncate 3.7 to 3 and read true as 1
    if isinstance(kind, click.types.IntParamType) and isinstance(value, (bool, float)):
        raise click.ClickException(f"{key} must be an integer, got {value!r}")
    value = None if value is None else kind(value)
    if isinstance(value, float) and not math.isfinite(value):
        raise click.ClickException(f"{flag} must be a finite number")
    return value


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _versions():
    return {"python": platform.python_version(), "numpy": np.__version__,
            "vortexpatch": __version__}


@click.group()
def cli():
    """Vortex-patch boundary dynamics, linearized spectra, Diophantine
    measure estimates, and finite-truncation reduction engines."""


def _command(name: str, table: list):
    """Register ``fn(p, emit)`` as subcommand ``name``: one option per table
    row plus --config and --output-dir.

    ``p`` maps each config key to its resolved, converted value before ``fn``
    runs, and is what the manifest records.  ``emit(artifacts, profile)``
    writes {file name: CSV text or JSON object} and the manifest, with the
    ``profile`` block unless it is None, into the output directory and returns
    its path.
    """
    def register(fn):
        def run(config_path, output_dir, **flags):
            t0 = time.time()
            cfg = _load_config(config_path)
            unknown = sorted(set(cfg) - {row[1] for row in table} - {"output_dir"})
            if unknown:
                raise click.ClickException(f"unknown config key(s) {', '.join(unknown)}")
            p = {}
            for flag, key, kind, default, _ in table:
                if key in cfg:  # checked also where a flag overrides it
                    _convert(flag, key, kind, cfg[key])
                p[key] = _convert(flag, key, kind, _resolve(cfg, key, flags[key], default))
            if not isinstance(cfg.get("output_dir", ""), (str, type(None))):
                raise click.ClickException(
                    f"output_dir must be a string, got {cfg['output_dir']!r}")
            outdir = _resolve(cfg, "output_dir", output_dir, None)
            if outdir is None:
                outdir = os.environ.get(OUTPUT_DIR_ENV, ".")
            try:
                os.makedirs(outdir, exist_ok=True)
            except OSError as exc:
                raise click.ClickException(f"cannot create the output directory: {exc}")

            def emit(artifacts: dict, profile: dict | None) -> str:
                manifest = {"subcommand": name, "config": p, "versions": _versions(),
                            "blas_threads": BLAS_THREADS,
                            "wall_time_s": time.time() - t0}
                if profile is not None:
                    manifest["profile"] = profile
                for fname, data in {**artifacts, f"{name}_manifest.json": manifest}.items():
                    with open(os.path.join(outdir, fname), "w") as fh:
                        fh.write(data if isinstance(data, str) else _json(data))
                return outdir

            fn(p, emit)

        run.__doc__ = fn.__doc__
        run = click.option("--output-dir", "output_dir", default=None)(run)
        for flag, key, kind, _, help_ in reversed(table):
            ctype = kind if isinstance(kind, click.ParamType) else click.STRING
            run = click.option(flag, key, type=ctype, default=None, help=help_)(run)
        run = click.option("--config", "config_path", type=click.Path(), default=None,
                           help="JSON config file; flags override its values.")(run)
        return cli.command(name)(run)
    return register


def _seed_state(p: dict):
    """The seed of ``simulate`` and ``linearize``; one that the ``PatchState``
    constructor refuses is a config error."""
    try:
        return quasi_periodic_seed(p["b"], p["amplitudes"], M=p["grid"])
    except (DegeneratePatchError, BoundaryContactError) as exc:
        raise click.ClickException(str(exc))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

@_command("simulate", SIMULATE)
def simulate(p, emit):
    """Nonlinear contour-dynamics run; writes trajectory CSV and summary."""
    config = EvolutionConfig(dt=p["dt"], T=p["T"], record_stride=p["stride"],
                             track_modes=p["track"])
    config.check_grid(p["grid"])
    state = _seed_state(p)
    traj = run_simulation(state, config)
    outdir = emit({"simulate_trajectory.csv": trajectory_to_csv(traj),
                   "simulate_summary.json": trajectory_summary(traj)}, traj.profile)
    if traj.aborted:
        raise InvariantViolation(f"simulation aborted: {traj.abort_reason}")
    click.echo(f"simulate: {len(traj.snapshots)} snapshots written to {outdir}")


@_command("linearize", LINEARIZE)
def linearize_cmd(p, emit):
    """Assemble the linearized generator; writes matrix and eigenvalue CSVs.

    The manifest's ``profile`` block holds the grid size M, the truncation N,
    and the seconds spent assembling and in the eigen-solve (eigenvalues,
    their mode labels and the spectrum rows).
    """
    state = _seed_state(p)
    t0 = time.perf_counter()
    op = assemble(state, p["N"])
    t1 = time.perf_counter()
    spectrum_csv = spectrum_to_csv(op)
    t2 = time.perf_counter()
    outdir = emit({"linearize_matrix.csv": matrix_to_csv(op),
                   "linearize_spectrum.csv": spectrum_csv},
                  {"M": state.M, "N": op.N, "assemble_s": t1 - t0, "eigen_solve_s": t2 - t1})
    click.echo(f"linearize: matrix and spectrum written to {outdir}")


@_command("spectrum", SPECTRUM)
def spectrum(p, emit):
    """Equilibrium frequency table; optional transversality scan.

    With --scan, the manifest's ``profile`` block is the unperturbed scan's
    profile: the seconds of the coarse and fine passes, the tuples, the order
    evaluations of each pass, the tuples dropped after each order, the
    candidates and the (tuple, cell) pairs rescored.
    """
    perturbed = p["eps_hat"] is not None
    if perturbed and not p["scan"]:
        raise click.ClickException("--eps-hat needs --scan")
    if perturbed and p["seed"] is None:
        raise click.ClickException("--seed is required for the perturbed scan")
    if not perturbed and p["seed"] is not None:
        raise click.ClickException("--seed needs --eps-hat")
    sysf = FrequencySystem(p["sites"], p["b0"], p["b1"]) if p["scan"] else None

    b = p["b"]
    table = [(j, float(omega(b, j))) for j in range(1, p["jmax"] + 1)]
    for j, val in table:
        click.echo(f"Omega_{j}({b}) = {val:.17g}")
    artifacts, profile = {"spectrum_omega.csv": _csv("j,omega", table)}, None
    if sysf is not None:
        rep = transversality_scan(sysf, Lmax=p["lmax"], grid_size=p["grid"])
        artifacts["spectrum_scan.json"] = scan_report_json(rep)
        artifacts["spectrum_scan.csv"] = scan_report_csv(rep)
        profile = rep.profile
        click.echo(f"transversality: rho0_hat = {rep.rho0_hat:.6g} "
                   f"(case {rep.case})")
        if perturbed:
            out = perturbed_transversality(sysf, eps_hat=p["eps_hat"], Lmax=p["lmax"],
                                           grid_size=p["grid"], seed=p["seed"],
                                           baseline=rep)
            artifacts["spectrum_scan_perturbed.json"] = out
            click.echo(f"perturbed: rho0_hat = {out['rho0_hat_perturbed']:.6g}, "
                       f"retains_half = {out['retains_half']}")
    emit(artifacts, profile)


def _curve_point(item):
    """Excluded measure for one (system, spec) pair (picklable pool work item)."""
    sysf, spec = item
    return excluded_measure(sysf, spec).total


@_command("cantor", CANTOR)
def cantor(p, emit):
    """Diophantine exclusion intervals, measure totals, Russmann checks.

    The manifest's ``profile`` block is the report's profile: the seconds of
    the screen, filter, bisection and Russmann stages, the (l, m) families the
    second-order family bound skips, the tuples screened, kept by the filter
    and with brackets bisected, and the window nodes the filter evaluates.
    With --curve it also holds ``curve_workers``, min(CPUs the process may run
    on, number of gammas): the curve's processes, or 1 when it runs in-process.
    The CPUs are the affinity set where ``os.sched_getaffinity`` exists (under
    ``taskset`` it is smaller than the host's count), else ``os.cpu_count()``.
    """
    sysf = FrequencySystem(p["sites"], p["b0"], p["b1"])
    spec = DiophantineSpec(gamma=p["gamma"], tau1=p["tau1"], tau2=p["tau2"],
                           upsilon=p["upsilon"], Lmax=p["lmax"], kind=p["kind"])
    curve = [replace(spec, gamma=g) for g in p["curve"]]

    rep = excluded_measure(sysf, spec)
    artifacts = {"cantor_intervals.csv": excluded_to_csv(rep),
                 "cantor_summary.json": excluded_summary_json(rep)}
    if rep.russmann_violations:
        emit(artifacts, rep.profile)
        raise InvariantViolation(
            f"Russmann interval bound violated on "
            f"{rep.russmann_violations} excluded intervals")
    click.echo(f"cantor: excluded measure {rep.total:.17g} "
               f"({len(rep.rows)} intervals, 0 Russmann violations)")

    profile = rep.profile
    if curve:
        items = [(sysf, s) for s in curve]
        cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
        workers = min(cpus, len(curve))
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing
            with ProcessPoolExecutor(max_workers=workers) as pool:
                totals = list(pool.map(_curve_point, items))
        else:
            totals = [_curve_point(it) for it in items]
        # canonical ordering: by input index, independent of worker order
        artifacts["cantor_curve.csv"] = _csv(
            "gamma,excluded_measure", [(s.gamma, m) for s, m in zip(curve, totals)])
        profile = {**profile, "curve_workers": workers}
    emit(artifacts, profile)


@_command("kam-transport", KAM_TRANSPORT)
def kam_transport(p, emit):
    """Straighten omega . d_phi + (V0 + amp cos theta) d_theta.

    The manifest's ``profile`` block holds the last ``delta_s0`` of the history
    and ``converged``: whether it passed the stop test of the iteration,
    delta_s0 <= ``kam._STRAIGHTENED``.  ``reducible`` only says that no step
    cut more than half of the modes.  Per change of variables it also lists
    the fixed-point iterations of the inverse shift and beta's Horner band,
    the theta modes per side that they sum.  The speed V0 + amp cos(theta)
    must keep one strict sign on the grid.  The stdout line ends with
    ``converged = False`` and the last ``delta_s0`` when the stop test failed.
    """
    th = theta_grid(p["grid"])
    f0 = PeriodicField(np.broadcast_to(p["amp"] * np.cos(th), (p["K"], p["grid"])).copy())
    prob = TransportProblem(golden_frequency(1), f0, V0=p["V0"], gamma=p["gamma"],
                            upsilon=p["upsilon"], tau1=p["tau1"])
    res = straighten_transport(prob, steps=p["steps"])
    last = res.history[-1][1]
    converged = last <= _STRAIGHTENED
    emit({"kam_transport_history.csv": transport_history_csv(res),
          "kam_transport_result.json": {"V_infty": res.V_infty,
                                        "reducible": res.reducible,
                                        "steps": len(res.history)}},
         {"converged": converged, "delta_s0": last,
          "inverse_shift_iterations": [k for k, _ in res.shifts],
          "horner_band": [band for _, band in res.shifts]})
    tail = "" if converged else f", converged = False (delta_s0 = {last:.2e})"
    click.echo(f"kam-transport: V_infty = {res.V_infty:.12f}, "
               f"reducible = {res.reducible}{tail}")


@_command("kam-remainder", KAM_REMAINDER)
def kam_remainder(p, emit):
    """Reduce a synthetic reversible remainder around diag(i Omega_j(b))."""
    if p["seed"] is None:
        raise click.ClickException("--seed is mandatory for randomized synthetic input")
    b = p["b"]
    R = synthetic_reversible_remainder(p["N"], p["L"], p["delta0"], seed=p["seed"])
    mu = np.array([float(omega(b, int(j))) for j in R.jmodes])
    state = ReductionState(omega=golden_frequency(1), mu=mu, R=R, step=0)
    res, history, aliasing = run_remainder_kam(state, steps=p["steps"], gamma=p["gamma"],
                                               tau2=p["tau2"])
    emit({"kam_remainder_history.csv": remainder_history_csv(history),
          "kam_remainder_spectrum.json": spectrum_table_json(res, b)},
         {"phi_grid": [{"step": m, "G": G, "shell_max": shell, "sup_R_next": sup}
                       for m, G, shell, sup in aliasing]})
    final = history[-1][1]
    click.echo(f"kam-remainder: delta after {p['steps']} steps = {final:.6e}")


def main(argv=None):
    """Console entry point with the documented exit-code contract."""
    try:
        cli.main(args=argv, prog_name="vpatch", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.ClickException as exc:
        click.echo(f"invalid config: {exc.format_message()}", err=True)
        sys.exit(1)
    except (InvariantViolation, NonReducibleError, SymmetryError, DegeneratePatchError,
            BoundaryContactError) as exc:
        click.echo(f"invariant violation: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        click.echo(f"invalid config: {exc}", err=True)
        sys.exit(1)
    sys.exit(0)


if __name__ == "__main__":
    main()
