"""One benchmark sample in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --inputs INPUTS.json --out RESULT.json
                                --outdir DIR [--trace 0|1] [--spans SPANS.csv]
                                [--run-id K]

Times ``import vortexpatch.cli`` (setup), runs every operation of the
workload once (timed one by one), checks each result outside the timed
region, and writes a JSON result.  With ``--trace 1`` the public functions
of the eight modules are wrapped and the per-layer metrics are added.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def layer_metrics(tracer, ops_out: list, names: list) -> dict:
    """Per-layer metric values of one traced pass (see spec.PER_LAYER)."""
    summary = tracer.summary()

    def stat(fn, key):
        return summary.get(fn, {}).get(key, 0)

    assembles = stat("linearized.assemble", "calls")
    sublevel = stat("cantor.sublevel_measure", "calls")
    special = {
        "spectral.shifted_kernel_integral.computed_bytes":
            tracer.counters.get("spectral.shifted_kernel_integral.computed_bytes", 0),
        "spectral.LinearOperatorMatrix.__matmul__.computed_flops":
            tracer.counters.get("spectral.LinearOperatorMatrix.__matmul__.computed_flops", 0),
        "cantor.sublevel_measure.hit_ratio":
            tracer.counters.get("cantor.sublevel_measure.hits", 0) / sublevel
            if sublevel else 0.0,
        "linearized.transport_coefficient.per_assemble":
            tracer.child_counts("linearized.assemble",
                                "linearized.transport_coefficient") / assembles
            if assembles else 0.0,
        "kam.neumann_inverse.matmuls":
            tracer.child_counts("kam.neumann_inverse",
                                "spectral.LinearOperatorMatrix.__matmul__"),
        "cantor.rows": sum(o.get("cantor_rows", 0) for o in ops_out),
        "cantor.flags": sum(o.get("cantor_flags", 0) for o in ops_out),
        "cli.artifact_bytes": sum(o.get("artifact_bytes", 0) for o in ops_out),
    }
    special.update({f"{m}.errors": n for m, n in tracer.errors.items()})
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.endswith(".calls"):
            out[name] = stat(name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            out[name] = stat(name[: -len(".self_s")], "self_s")
    return out


def run_pass(inputs: dict, outdir: str, tracer=None, reference=None) -> dict:
    """Run and check every operation of one workload pass."""
    import passes

    ops = passes.build_ops(inputs, outdir, reference)
    ctx, out = {}, []
    broken = None
    for op in ops:
        entry = {"op": op.name, "seconds": None, "failures": []}
        out.append(entry)
        if broken is not None:
            entry["failures"].append(f"not run: {broken} failed")
            continue
        if op.outdir:
            os.makedirs(op.outdir, exist_ok=True)
        if tracer is not None:
            tracer.enabled = True
        start = time.perf_counter()
        try:
            op.run(ctx)
        except Exception:
            entry["failures"].append(traceback.format_exc(limit=3))
            broken = op.name
        finally:
            entry["seconds"] = time.perf_counter() - start
            if tracer is not None:
                tracer.enabled = False
        if broken is not None:
            continue
        try:
            entry["failures"].extend(op.check(ctx))
            if op.outdir:
                entry["digests"], entry["artifact_bytes"] = passes.artifact_digests(op.outdir)
                summary = os.path.join(op.outdir, "cantor_summary.json")
                if os.path.exists(summary):
                    with open(summary) as fh:
                        s = json.load(fh)
                    entry["cantor_rows"] = s["interval_count"]
                    entry["cantor_flags"] = len(s["flags"])
        except Exception:
            entry["failures"].append(traceback.format_exc(limit=3))
    return {"ops": out, "wall_s": sum(e["seconds"] or 0.0 for e in out)}


def _numpy_info() -> dict:
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        info["blas"] = None
    return info


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True)
    p.add_argument("--inputs", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--run-id", type=int, default=0)
    args = p.parse_args(argv)

    start = time.perf_counter()
    import vortexpatch.cli  # noqa: F401  (the set-up every vpatch run pays)
    setup_s = time.perf_counter() - start

    src = os.path.realpath(os.path.join(args.root, "src"))
    import vortexpatch
    if not os.path.realpath(vortexpatch.__file__).startswith(src + os.sep):
        print(f"vortexpatch imported from {vortexpatch.__file__}, not {src}",
              file=sys.stderr)
        return 2

    with open(args.inputs) as fh:
        inputs = json.load(fh)
    import spec
    reference = spec.load_reference() if inputs["workload"] == "resonance" else None
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.run_id = args.run_id
        tracer.install()
    result = run_pass(inputs, args.outdir, tracer, reference)
    result.update(setup_s=setup_s, traced=bool(args.trace),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  python=sys.version.split()[0], **_numpy_info())
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, result["ops"],
                                         [n for n, _ in spec.PER_LAYER])
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
