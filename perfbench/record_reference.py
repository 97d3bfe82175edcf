"""Record the reference results of the resonance workload variants.

    PYTHONPATH=src python3 perfbench/record_reference.py

Run from the repository root at the commit whose results are the reference.
For each size and each of the VARIANTS parameter sets it stores the inputs,
the transversality-scan result (rho0_hat, case and witness, overall and per
case) and the excluded-measure total of each Cantor kind, computed through
the library, in perfbench/reference.json.
"""

from __future__ import annotations

import json
import random

import spec
from passes import scan_essentials
from vortexpatch.cantor import DiophantineSpec, excluded_measure
from vortexpatch.spectrum import FrequencySystem, scan_report_json, transversality_scan

VARIANTS = 8


def variant_inputs(k: int) -> dict:
    """The k-th recorded resonance variant: b0/b1 jitter of the scan and a
    gamma jitter of the Cantor measures.  Cantor keeps b0 = 0.1, b1 = 0.9, so
    grid nodes such as b = 0.5 stay exact and the second-order run keeps its
    tangency-suspect tuples."""
    rng = random.Random(f"resonance-variant:{k}")
    return {"scan_b0": 0.1 + rng.uniform(-0.005, 0.005),
            "scan_b1": 0.9 + rng.uniform(-0.005, 0.005),
            "gamma": 1e-3 * rng.uniform(0.9, 1.1),
            "tau2": 13.0}


def record(size: str, k: int) -> dict:
    sz = spec.SIZES["resonance"][size]
    inputs = variant_inputs(k)
    sysf = FrequencySystem((1, 2), inputs["scan_b0"], inputs["scan_b1"])
    rep = transversality_scan(sysf, Lmax=sz["scan_lmax"], grid_size=sz["scan_grid"])
    # round-trip through JSON, as the CLI artifact does
    scan = scan_essentials(json.loads(json.dumps(scan_report_json(rep))))
    cantor = {}
    for kind, lmax in sz["lmax"].items():
        r = excluded_measure(FrequencySystem((1, 2), 0.1, 0.9),
                             DiophantineSpec(gamma=inputs["gamma"], tau2=inputs["tau2"],
                                             Lmax=lmax, kind=kind))
        cantor[kind] = r.total
    return {"inputs": inputs, "expected": {"scan": scan, "cantor": cantor}}


def main():
    out = {"resonance": {size: [record(size, k) for k in range(VARIANTS)]
                         for size in ("full", "tiny")}}
    with open(spec.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
