"""Self-checks of the benchmark: tracer counts, smoke passes, bookkeeping.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os

import pytest

import passes
import run
import spec
import worker
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def tiny_pass(workload, tmp_path, tracer):
    inputs = json.loads(json.dumps(spec.make_inputs(workload, seed=7, size="tiny")))
    result = worker.run_pass(inputs, str(tmp_path), tracer, spec.load_reference())
    return inputs, result


def descendants(tracer, ancestor_name, name):
    """Per span of ``ancestor_name``: the number of ``name`` spans below it."""
    ids = {n: i for i, n in enumerate(tracer.names)}
    counts = {i: 0 for i, s in enumerate(tracer.spans) if s[0] == ids[ancestor_name]}
    for span in tracer.spans:
        if span[0] != ids[name]:
            continue
        parent = span[3]
        while parent >= 0:
            if parent in counts:
                counts[parent] += 1
                break
            parent = tracer.spans[parent][3]
    return list(counts.values())


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_smoke_pass_has_no_failures(workload, tmp_path, tracer):
    _, result = tiny_pass(workload, tmp_path, tracer)
    assert [op["op"] for op in result["ops"]] == list(spec.OPS[workload])
    failures = [(op["op"], op["failures"]) for op in result["ops"] if op["failures"]]
    assert failures == []
    assert all(n == 0 for n in tracer.errors.values())
    # summed self times never exceed the traced wall time
    total_self = sum(v["self_s"] for v in tracer.summary().values())
    assert 0.0 < total_self <= result["wall_s"]
    layers = worker.layer_metrics(tracer, result["ops"], [n for n, _ in spec.PER_LAYER])
    parent_side = {"trace.overhead_s"} | {n for n, _ in spec.PER_LAYER
                                          if n.startswith("setup.import.")}
    assert set(layers) == {n for n, _ in spec.PER_LAYER} - parent_side


def test_contour_trace_counts(tmp_path, tracer):
    inputs, result = tiny_pass("contour", tmp_path, tracer)
    sz = inputs["sizes"]
    summary = tracer.summary()
    # four RHS evaluations per RK4 step, plus one F_b per fields operation
    steps = sz["steps1"] + sz["steps2"]
    assert summary["dynamics.velocity_functional"]["calls"] == 4 * steps + 2
    # linearize computes V_r once and assemble once per column (2N columns)
    assert descendants(tracer, "linearized.linearize",
                       "linearized.transport_coefficient") == [2 * sz["lin_n"] + 1] * 2
    layers = worker.layer_metrics(tracer, result["ops"], [n for n, _ in spec.PER_LAYER])
    assert layers["linearized.transport_coefficient.per_assemble"] == 2 * sz["lin_n"]
    assert layers["cli.main.calls"] == 2


def test_reduction_trace_counts(tmp_path, tracer):
    inputs, result = tiny_pass("reduction", tmp_path, tracer)
    layers = worker.layer_metrics(tracer, result["ops"], [n for n, _ in spec.PER_LAYER])
    assert layers["kam.kam_step.calls"] == inputs["sizes"]["steps"]
    assert layers["kam.neumann_inverse.calls"] == inputs["sizes"]["steps"]
    assert 0 < layers["kam.neumann_inverse.matmuls"] \
        <= layers["spectral.LinearOperatorMatrix.__matmul__.calls"]
    assert layers["dynamics.velocity_functional.calls"] == 0


def test_uninstall_restores_the_package():
    from vortexpatch import cantor, dynamics, spectral, spectrum
    originals = (dynamics.velocity_functional, cantor.omega, spectrum.omega,
                 spectral.LinearOperatorMatrix.__matmul__)
    t = Tracer()
    t.install()
    try:
        assert dynamics.velocity_functional is not originals[0]
        # names imported into other modules are rebound to the same wrapper
        assert cantor.omega is spectrum.omega is not originals[1]
    finally:
        t.uninstall()
    assert (dynamics.velocity_functional, cantor.omega, spectrum.omega,
            spectral.LinearOperatorMatrix.__matmul__) == originals


def test_import_times_parser():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:      2000 |     150000 |   numpy",
        "import time:       500 |        600 |   vortexpatch.spectral",
        "import time:       300 |      90000 | sympy",
        "import time:        40 |       2000 | click",
        "import time:        70 |     250000 | vortexpatch.cli",
    ])
    got = run.import_times(stderr)
    assert got == pytest.approx({"setup.import.numpy_s": 0.15, "setup.import.sympy_s": 0.09,
                                 "setup.import.click_s": 0.002,
                                 "setup.import.vortexpatch_s": 0.00057})


def test_artifact_differences_count_as_failures():
    def sample(k, digest):
        return {"index": k, "exit": 0, "stderr": None, "result": {"ops": [
            {"op": "scan", "failures": [], "digests": {"a.csv": digest}},
            {"op": "nondegeneracy", "failures": []}]}}

    attempted, failed, _ = run.count_failures([sample(0, "x"), sample(1, "x")], 2)
    assert (attempted, failed) == (4, 0)
    attempted, failed, msgs = run.count_failures([sample(0, "x"), sample(1, "y")], 2)
    assert (attempted, failed) == (4, 1) and "differ" in msgs[0]


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spec.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E)


def test_inputs_depend_on_the_seed_only():
    for workload in spec.WORKLOADS:
        a, b = spec.make_inputs(workload, 3), spec.make_inputs(workload, 3)
        assert a == b
        assert a["sizes"] == spec.make_inputs(workload, 4)["sizes"]
    assert spec.make_inputs("contour", 3) != spec.make_inputs("contour", 4)
