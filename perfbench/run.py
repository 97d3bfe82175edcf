"""Benchmark of the vortexpatch library and its `vpatch` CLI.

    python3 perfbench/run.py --workload {contour,resonance,reduction} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload is a closed loop with one
client in one process: a pass runs a fixed sequence of operations, each
starting when the previous one returns.  Every sample is one pass in a fresh
interpreter (so no cache carries over, as between `vpatch` runs); samples
repeat while the next one is expected to end within S seconds (at least 3).
Every operation's result is checked.

With --trace 0 the end-to-end metrics are reported (medians over the
samples): wall_s (one pass, after import), setup_s (`import vortexpatch.cli`
in a fresh interpreter) and peak_rss_mb.  With --trace 1 samples alternate
between untraced and traced passes, and the per-layer metrics of the traced
passes are reported, with the tracing overhead.  The last line of stdout is
one JSON object: correct, attempted, failed, metrics.  Details (run
metadata, every sample, the spans of the last traced pass) go to
perfbench/_runs/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
MIN_SAMPLES = 3          # untraced samples per run, and traced ones with --trace 1
HARD_LIMIT_S = 165.0     # stop starting samples after this, whatever --seconds says
SAMPLE_TIMEOUT_S = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def metadata(root: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "vortexpatch", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(),
            "thread_env": {v: os.environ.get(v) for v in THREAD_VARS}}


def import_times(stderr: str) -> dict:
    """setup.import.* seconds from `python -X importtime` output: cumulative
    time of the numpy, sympy and click packages, and the summed self time of
    the vortexpatch modules."""
    out = {"numpy": 0.0, "sympy": 0.0, "click": 0.0, "vortexpatch": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|(\s+)(\S+)", line)
        if not m:
            continue
        self_us, cum_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name in ("numpy", "sympy", "click"):
            out[name] = cum_us / 1e6
        elif name == "vortexpatch" or name.startswith("vortexpatch."):
            out["vortexpatch"] += self_us / 1e6
    return {f"setup.import.{k}_s": v for k, v in out.items()}


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_sample(root, rundir, env, k, traced, deadline) -> dict:
    sample_dir = os.path.join(rundir, f"sample{k}")
    os.makedirs(sample_dir)
    out = os.path.join(sample_dir, "result.json")
    cmd = [sys.executable] + (["-X", "importtime"] if traced else []) + [
        WORKER, "--root", root, "--inputs", os.path.join(rundir, "inputs.json"),
        "--out", out, "--outdir", os.path.join(sample_dir, "artifacts"),
        "--trace", str(int(traced)), "--run-id", str(k)]
    if traced:
        cmd += ["--spans", os.path.join(rundir, "spans.csv")]
    timeout = max(1.0, min(SAMPLE_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        stderr, code = str(exc), None
    result = None
    if code == 0 and os.path.exists(out):
        with open(out) as fh:
            result = json.load(fh)
        if traced:
            result["layers"].update(import_times(stderr))
    shutil.rmtree(sample_dir)
    return {"index": k, "traced": traced, "exit": code, "result": result,
            "stderr": None if result else stderr[-4000:]}


def count_failures(samples: list, n_ops: int) -> tuple:
    """(attempted, failed, messages): every operation of every sample, plus
    byte-identity of each CLI operation's artifacts with the first sample."""
    attempted = failed = 0
    messages = []
    first = {}
    for s in samples:
        attempted += n_ops
        if s["result"] is None:
            failed += n_ops
            messages.append(f"sample {s['index']}: worker exit {s['exit']}: {s['stderr']}")
            continue
        for op in s["result"]["ops"]:
            bad = list(op["failures"])
            if "digests" in op:
                ref = first.setdefault(op["op"], op["digests"])
                if op["digests"] != ref:
                    bad.append("artifacts differ from the first sample's")
            if bad:
                failed += 1
                messages.append(f"sample {s['index']} {op['op']}: {'; '.join(bad)}")
    return attempted, failed, messages


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_begin = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "vortexpatch", "cli.py")):
        print(f"run.py: no vortexpatch sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2

    inputs = spec.make_inputs(args.workload, args.seed)
    rundir = os.path.join(HERE, "_runs", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(os.path.join(rundir, "tmp"))
    with open(os.path.join(rundir, "inputs.json"), "w") as fh:
        json.dump(inputs, fh)
    env = dict(os.environ, TMPDIR=os.path.join(rundir, "tmp"),
               PYTHONPATH=os.pathsep.join(
                   [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    n_ops = len(spec.OPS[args.workload])

    # warm-up: compile bytecode and fill the page cache; not measured
    subprocess.run([sys.executable, "-c", "import vortexpatch.cli"], cwd=root,
                   env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=SAMPLE_TIMEOUT_S)

    # Samples run back to back; a new one starts only if it is expected to end
    # within --seconds, unless fewer than MIN_SAMPLES of each kind succeeded.
    samples = []
    deadline = t_begin + HARD_LIMIT_S
    start = time.monotonic()
    while time.monotonic() < deadline:
        traced = bool(args.trace) and len(samples) % 2 == 1
        t0 = time.monotonic()
        samples.append(run_sample(root, rundir, env, len(samples), traced, deadline))
        samples[-1]["duration_s"] = time.monotonic() - t0
        done = [s for s in samples if s["result"] is not None]
        enough = all(sum(1 for s in done if s["traced"] == t) >= MIN_SAMPLES
                     for t in ({False, True} if args.trace else {False}))
        next_s = statistics.median(s["duration_s"] for s in samples)
        if (enough or len(samples) >= 4 * MIN_SAMPLES) and \
                time.monotonic() + next_s - start > args.seconds:
            break

    attempted, failed, messages = count_failures(samples, n_ops)
    plain = [s["result"] for s in samples if s["result"] and not s["traced"]]
    traced = [s["result"] for s in samples if s["result"] and s["traced"]]
    stats = {}
    for name, unit in E2E:
        values = [r[name] for r in plain]
        if values:
            stats[name] = (unit, values)
    if args.trace:
        for name, unit in spec.PER_LAYER:
            if name == "trace.overhead_s":
                if traced and plain:
                    values = [statistics.median(r["wall_s"] for r in traced)
                              - statistics.median(r["wall_s"] for r in plain)]
                    stats[name] = (unit, values)
            elif traced:
                stats[name] = (unit, [r["layers"][name] for r in traced])
    wanted = [n for n, _ in (spec.PER_LAYER if args.trace else E2E)]
    correct = failed == 0 and all(n in stats for n in wanted)

    meta = metadata(root, args.seed)
    if plain:
        meta.update(numpy=plain[0]["numpy"], blas=plain[0]["blas"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(plain)} untraced / {len(traced)} traced  "
          f"nproc {meta['nproc']}  cpu {meta['cpu_model']}")
    print(f"  why: {spec.NOTES[args.workload]['why']}")
    print(f"  metadata: {json.dumps(meta, sort_keys=True)}")
    for name, (unit, values) in stats.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:58s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    print(f"  {'error_rate':58s} {failed / attempted if attempted else 0.0:14.6g} "
          f"{'ratio':6s} {failed}/{attempted} operations failed")
    for msg in messages[:20]:
        print(f"  FAILED {msg}")

    summary = {name: {"value": quartiles(values)[1], "unit": unit}
               for name, (unit, values) in stats.items() if name in wanted}
    with open(os.path.join(rundir, "result.json"), "w") as fh:
        json.dump({"metadata": meta, "inputs": inputs, "notes": spec.NOTES[args.workload],
                   "samples": samples, "failures": messages,
                   "metrics": {n: {"unit": u, "values": v, "quartiles": quartiles(v)}
                               for n, (u, v) in stats.items()}},
                  fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
