"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that a wrong expected value makes the error rate positive, that the span
tree's self times add up to each operation's time, and that tracing neither
changes outputs nor stays installed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_CELLS = [("osp", 1, 1, 1, 0), ("osp", 1, 1, 2, 0),
              ("gl", 1, 1, 2, 0), ("gl", 2, 1, 1, 1)]


def tiny_fft(expected=workloads.EXPECTED):
    return workloads.FftWorkload(TINY_CELLS, expected)


def tiny_links():
    return workloads.LinksWorkload(algebras=[(1, 1, 2, None)], lengths=(2, 3),
                                   triples=4)


def run_tiny(workload, trace):
    state = workload.setup()
    metrics, fails, _ = run.run(workload, state, seed=3, seconds=0,
                                trace=trace, setup_samples=[0.01])
    return metrics, fails


def printed_metrics(metrics, fails):
    line = run.result_json(metrics, fails)
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_names_agree_with_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}


def test_every_metric_prints_with_its_unit():
    want_e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload in (tiny_fft(), tiny_links()):
        metrics, fails = run_tiny(workload, trace=0)
        assert printed_metrics(metrics, fails) == want_e2e
        assert fails.failed == 0 and fails.attempted >= len(workload.inputs(3))
        assert all(value > 0 for value, _ in metrics.values())
        metrics, fails = run_tiny(workload, trace=1)
        assert printed_metrics(metrics, fails) == want_layer
        assert fails.failed == 0  # traced outputs equal the untraced ones


def test_wrong_expected_value_raises_error_rate():
    expected = dict(workloads.EXPECTED)
    expected[("osp", 1, 1, 2, 0)] = (4, 3, "equal")
    metrics, fails = run_tiny(tiny_fft(expected), trace=0)
    assert fails.failed > 0 and fails.failed / fails.attempted > 0
    assert json.loads(run.result_json(metrics, fails))["correct"] is False


def test_skein_check_catches_a_wrong_invariant():
    links = tiny_links()
    state = links.setup()
    inputs = links.inputs(5)
    outputs = [links.call(state, inp) for inp in inputs]
    assert links.check(inputs, outputs) == {}
    outputs[4] = outputs[4] + 1
    assert set(links.check(inputs, outputs)) == {3, 4, 5}


def test_span_self_times_sum_to_op_time():
    workload = tiny_fft()
    state = workload.setup()
    inputs = workload.inputs(3)
    tracer = tracing.Tracer()
    restore, missing = tracing.install(tracer)
    try:
        p = run.Pass(workload, state, inputs, tracer)
    finally:
        restore()
    assert missing == [] and p.errors == {}
    own = tracer.self_times()
    assert min(own) > -1e-9  # every child lies inside its parent
    roots = {s.op: s for s in tracer.spans if s.name == tracing.OP}
    assert sorted(roots) == list(range(len(inputs)))
    for op, root in roots.items():
        total = sum(t for s, t in zip(tracer.spans, own) if s.op == op)
        assert abs(total - (root.end - root.start)) < 1e-6
    # the op spans sit inside the pass; the rest is calibration and overhead
    assert sum(r.end - r.start for r in roots.values()) <= p.raw_wall
    assert tracer.counts["kernels.eliminate.calls"] > 0
    assert tracer.counts["functor.walled.kept"] > 0


def test_tracing_is_removed_after_the_traced_pass():
    from qschur import superspace
    before = dict(vars(superspace.SparseMat))
    run_tiny(tiny_links(), trace=1)
    assert dict(vars(superspace.SparseMat)) == before


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "links", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
