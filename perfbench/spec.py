"""Workload definitions of the benchmark: sizes, seeded inputs, and the notes
that say why each workload exists and which metrics it should move.

Standard library only: ``run.py`` imports this module without loading numpy
or the package under test.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("contour", "resonance", "reduction")

# Problem sizes are fixed per workload so that the work does not depend on the
# seed.  "full" is what run.py measures; "tiny" is the smoke size of the
# benchmark's own tests.
SIZES = {
    "contour": {
        "full": {"M1": 64, "steps1": 320, "dt1": 0.05, "stride1": 40,
                 "M2": 256, "steps2": 8, "dt2": 0.01,
                 "lin_grid": 256, "lin_n": 16},
        "tiny": {"M1": 32, "steps1": 100, "dt1": 0.05, "stride1": 50,
                 "M2": 64, "steps2": 2, "dt2": 0.01,
                 "lin_grid": 64, "lin_n": 8},
    },
    "resonance": {
        "full": {"scan_lmax": 6, "scan_grid": 1000,
                 "lmax": {"transport": 6, "first-order-Melnikov": 7,
                          "second-order-Melnikov": 8}},
        "tiny": {"scan_lmax": 3, "scan_grid": 300,
                 "lmax": {"transport": 3, "first-order-Melnikov": 3,
                          "second-order-Melnikov": 4}},
    },
    "reduction": {
        "full": {"K": 32, "grid": 128, "N": 14, "L": 10, "steps": 3},
        "tiny": {"K": 8, "grid": 32, "N": 4, "L": 4, "steps": 2},
    },
}

# Operations of one pass, in order (passes.build_ops returns them so).
OPS = {
    "contour": ("simulate_m64", "extract_frequency", "fields_m64", "simulate_m256",
                "fields_m256", "linearize_equilibrium", "linearize_deformed"),
    "resonance": ("scan", "cantor_transport", "cantor_first-order-Melnikov",
                  "cantor_second-order-Melnikov", "nondegeneracy"),
    "reduction": ("kam_transport", "kam_remainder"),
}

# Why each workload was chosen, and which per-layer metrics should move its
# wall_s (and, by omission, which should leave it unchanged).  Performance
# claims cite these names for their bypass predictions.
NOTES = {
    "contour": {
        "why": ("Contour dynamics and linearized spectra: RK4 at M=64 and "
                "M=256, energy diagnostics, frequency extraction, and "
                "'vpatch linearize' at M=256, N=16. About 60% RHS/energy "
                "time and 40% assembly time, so both halves of the rank-2 "
                "velocity-functional work show above the noise."),
        "moves": ["dynamics.*", "geometry.*", "linearized.*",
                  "spectral.shifted_kernel_integral.*",
                  "spectral.spectral_derivative.self_s", "cli.*",
                  "setup.import.*"],
        "does_not_move": ["spectrum.transversality_scan.*", "cantor.*",
                          "kam.*", "spectral.LinearOperatorMatrix.*",
                          "spectral.offdiag_norm.*"],
    },
    "resonance": {
        "why": ("Transversality scan and Cantor measures: 'vpatch spectrum "
                "--scan' and 'vpatch cantor' for all three kinds, plus one "
                "non-degeneracy test. Uses Omega_j both as vectorised "
                "derivative tables and as ~1e5 scalar bisection calls; the "
                "second-order run keeps its tangency-suspect tuples. No "
                "dynamics work."),
        "moves": ["spectrum.*", "cantor.*", "cli.*", "setup.import.*"],
        "does_not_move": ["dynamics.*", "geometry.*", "linearized.*",
                          "kam.*", "spectral.*"],
    },
    "reduction": {
        "why": ("KAM reduction engines: 'vpatch kam-transport' and 'vpatch "
                "kam-remainder'. Uses spectral through band-Toeplitz operator "
                "algebra and off-diagonal norms, not FFT convolutions. Left "
                "out: '--curve --jobs 4' (4 workers on 2 cores) and the d=2 "
                "remainder path, an open defect: N=8, L=4, d=2 did not finish "
                "in ten minutes."),
        "moves": ["kam.*", "spectral.LinearOperatorMatrix.*",
                  "spectral.offdiag_norm.*", "cli.*", "setup.import.*"],
        "does_not_move": ["dynamics.*", "geometry.*", "linearized.*",
                          "spectrum.transversality_scan.*", "cantor.*"],
    },
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """Inputs of one workload, generated from the seed alone.

    The seed moves parameters only (b, amplitudes, the remainder seed, small
    jitters of b0/b1/gamma); problem sizes come from SIZES.
    """
    rng = random.Random(f"{workload}:{seed}")
    inputs = {"workload": workload, "seed": seed, "size": size,
              "sizes": SIZES[workload][size]}
    if workload == "contour":
        track = rng.choice([2, 3, 4, 5])
        amps = {j: rng.uniform(0.0, 1e-4) for j in (2, 3, 4, 5)}
        amps[track] = rng.uniform(0.8e-3, 1.2e-3)
        inputs.update(b=0.5 + rng.uniform(-0.02, 0.02), track=track,
                      amplitudes={str(j): a for j, a in sorted(amps.items())})
    elif workload == "resonance":
        # The scan and Cantor parameters are drawn from variants whose results
        # are recorded in reference.json, so every result has an exact reference.
        variants = load_reference()["resonance"][size]
        k = rng.randrange(len(variants))
        inputs.update(variant=k, **variants[k]["inputs"])
    elif workload == "reduction":
        inputs.update(amp=rng.uniform(0.095, 0.105), V0=0.5,
                      remainder_seed=rng.randrange(2 ** 31), delta0=1e-3)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


def _calls_self(fn: str) -> list:
    return [(f"{fn}.calls", "count"), (f"{fn}.self_s", "s")]


# Per-layer metrics of the traced run, in report order: the time-busy counts
# and outcome ratios an optimisation is most likely to move.
PER_LAYER = (
    _calls_self("dynamics.velocity_functional")
    + [("dynamics.dealias.self_s", "s"), ("dynamics.simulate.self_s", "s"),
       ("dynamics.extract_frequencies.self_s", "s")]
    + _calls_self("dynamics.energy") + _calls_self("dynamics.stream_gradient")
    + _calls_self("geometry.log_v1") + _calls_self("geometry.log_one_plus_P_half")
    + [("geometry.pair_trig.self_s", "s")]
    + _calls_self("spectral.shifted_kernel_integral")
    + [("spectral.shifted_kernel_integral.computed_bytes", "B"),
       ("spectral.spectral_derivative.self_s", "s")]
    + _calls_self("linearized.assemble")
    + [("linearized.linearize.self_s", "s"),
       ("linearized.operator_spectrum.self_s", "s")]
    + _calls_self("linearized.transport_coefficient")
    + [("linearized.transport_coefficient.per_assemble", "ratio")]
    + _calls_self("spectrum.transversality_scan")
    + [("spectrum.nondegeneracy_test.self_s", "s"), ("spectrum.omega.calls", "count")]
    + _calls_self("spectrum.omega_derivative")
    + _calls_self("cantor.excluded_measure") + _calls_self("cantor.sublevel_measure")
    + [("cantor.sublevel_measure.hit_ratio", "ratio")]
    + _calls_self("cantor.russmann_bound")
    + [("cantor.rows", "count"), ("cantor.flags", "count"),
       ("kam.straighten_transport.self_s", "s")]
    + _calls_self("kam.solve_transport_homological") + _calls_self("kam.evaluate_shifted")
    + _calls_self("kam.kam_step")
    + [("kam.solve_remainder_homological.self_s", "s")]
    + _calls_self("kam.neumann_inverse")
    + [("kam.neumann_inverse.matmuls", "count")]
    + _calls_self("spectral.LinearOperatorMatrix.__matmul__")
    + [("spectral.LinearOperatorMatrix.__matmul__.computed_flops", "flop"),
       ("spectral.LinearOperatorMatrix.__add__.self_s", "s")]
    + _calls_self("spectral.offdiag_norm")
    + _calls_self("cli.main")
    + [("cli.artifact_bytes", "B")]
    + [(f"setup.import.{m}_s", "s") for m in ("numpy", "sympy", "click", "vortexpatch")]
    + [(f"{m}.errors", "count") for m in ("spectral", "geometry", "dynamics", "linearized",
                                          "spectrum", "cantor", "kam", "cli")]
    + [("trace.overhead_s", "s")]
)
