#!/usr/bin/env python3
"""The qschur benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload fft-osp --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each is there):

- ``fft-osp``: ``fft_report("osp", ...)`` on the 15 criterion-08 cells;
- ``fft-glq``: ``fft_report("gl", ...)`` on gl(2|1) r=4, the walled
  gl(1|1) r=3 s=2, the six criterion-05 cells and the criterion-06 cell;
- ``links``: ``invariant`` on 48 seeded skein triples of braid closures.

The seed makes the inputs (cell order, braid words); the program receives
only those.  Everything runs in one process and one thread.

``--trace 0`` (the end-to-end run) sets up, then repeats the workload's pass
while another pass still fits in ``--seconds``; at least one pass runs.  It
reports

- ``wall_s``: median over the passes of the seconds one pass takes;
- ``op_p50_ms`` / ``op_p90_ms``: the median and p90 latency of one
  operation.  On links an operation is one ``invariant`` call, and each
  call's latency is its median over the passes.  The fft workloads have
  too few cells, and too unequal ones, for quantiles over cells (the median
  lands on a 20 ms cell whose time swings by 40% between runs), so there
  the operation is the whole pass of cells;
- ``setup_s``: median over fresh interpreters (this process, and
  SETUP_PROBES child probes before and again after the passes) of the time
  to import qschur and build the workload's contexts;
- ``peak_rss_mb``: peak resident memory of this process.

All times are scaled to a reference machine speed (see CAL_REF_S); the
clock times of the passes are in the detail line.

``--trace 1`` runs one untraced pass, then one traced pass with every layer
wrapped (see tracing.py), and reports the per-layer metrics of the traced
pass; ``trace.overhead_s`` is traced minus untraced wall time.  The two
passes must give identical outputs.

Every call's output is checked; a call that raises, gives a wrong answer,
or differs from the first pass counts as failed.  The last line of stdout
is the JSON result; the lines before it give the metrics in text, the error
rate and run metadata (git SHA, Python, nproc, seed, kernel backend, src/
line counts, per-cell seconds).  Exit code 2 means the benchmark could not
run: no src/qschur beside perfbench/, or a bad argument.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import warnings
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 4  # fresh interpreters timed before and again after the passes

# The speed of the shared machine swings by up to a third within and between
# runs (a fixed loop took 0.17-0.25 s from one second to the next).  So a
# fixed piece of pure-Python sparse arithmetic, the kind of dict-and-int work
# qschur does, is timed every CAL_PERIOD_S seconds from a timer signal, also
# while a long operation runs, and each operation's time is scaled by
# CAL_REF_S over the median calibration time within CAL_WINDOW_S of it.
# qschur never runs inside the calibration, so a change to qschur moves the
# scaled times fully; the time spent calibrating is taken out of them.  On a
# 2-vCPU VM, over ten seeds per workload, this cut the spread (IQR/median) of
# the times from 0.12-0.28 to 0.04-0.09.  It tracks dict-and-int work (links)
# more closely than the memory-heavy eliminations of the fft cells.
CAL_ROUNDS = 16
CAL_REF_S = 0.0005
CAL_PERIOD_S = 0.05
CAL_WINDOW_S = 1.0
_CAL_A = {i: (i * 37) % 101 - 50 for i in range(12)}
_CAL_B = {i: (i * 53) % 97 - 48 for i in range(-5, 7)}

WORKLOAD_NAMES = ("fft-osp", "fft-glq", "links")

END_TO_END = {"wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

# A fresh interpreter that times its own setup: argv is src, perfbench, name.
_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
          "print(run.timed_setup(sys.argv[3])[0])")


def timed_setup(name: str):
    """(scaled seconds to import qschur and build the contexts, workload, state)."""
    before = [calibrate() for _ in range(9)]
    t0 = perf_counter()
    from workloads import WORKLOADS
    workload = WORKLOADS[name]
    state = workload.setup()
    seconds = perf_counter() - t0
    cals = before + [calibrate() for _ in range(9)]
    return seconds * CAL_REF_S / statistics.median(cals), workload, state


def probe_setup(name: str) -> float:
    out = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(HERE), name],
                         cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python sparse polynomial arithmetic."""
    t0 = perf_counter()
    for _ in range(CAL_ROUNDS):
        out = {}
        for i, a in _CAL_A.items():
            for j, b in _CAL_B.items():
                out[i + j] = out.get(i + j, 0) + a * b
    return perf_counter() - t0


class Speed:
    """Calibration timings taken every CAL_PERIOD_S seconds while active."""

    def __init__(self):
        self.at: list[float] = []     # when each calibration started
        self.cal: list[float] = []    # how long it took
        self.stolen = 0.0             # seconds spent calibrating so far

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.cal.append(calibrate())
        self.at.append(t0)
        self.stolen += perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float, seconds: float) -> float:
        """Seconds of work done between start and end, at the reference speed."""
        lo = bisect.bisect_left(self.at, start - CAL_WINDOW_S / 2)
        hi = bisect.bisect_right(self.at, end + CAL_WINDOW_S / 2)
        near = self.cal[lo:hi] or self.cal[max(lo - 1, 0):lo + 1]
        return seconds * CAL_REF_S / statistics.median(near)


class Pass:
    """One call of every input, in order, with timings and failures.

    With a running ``Speed``, ``times`` and ``wall`` are scaled to the
    reference speed; ``raw_wall`` is always the pass's clock time.
    """

    def __init__(self, workload, state, inputs, tracer=None, speed=None):
        self.outputs, self.times, self.errors = [], [], {}
        self.retries = 0
        spans = []
        t_start = perf_counter()
        for i, inp in enumerate(inputs):
            stolen = speed.stolen if speed else 0.0
            t0 = perf_counter()
            out, dt, err, retries = call_once(workload, state, inp, tracer, i)
            spans.append((t0, t0 + dt))
            self.times.append(dt - (speed.stolen - stolen if speed else 0.0))
            self.outputs.append(out)
            self.retries += retries
            if err:
                self.errors[i] = err
        self.raw_wall = perf_counter() - t_start
        if speed:
            self.times = [speed.scale(a, b, t) for (a, b), t in zip(spans, self.times)]
        self.wall = sum(self.times)
        self.errors.update(workload.check(inputs, self.outputs))


def call_once(workload, state, inp, tracer=None, op_id=0):
    """(output or None, seconds, error message or None, disagreement warnings)."""
    err = out = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            with tracer.op(op_id) if tracer else nullcontext():
                out = workload.call(state, inp)
        except Exception as exc:  # one failing operation must not end the run
            err = f"{workload.label(inp)}: {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    retries = sum("disagree" in str(w.message) for w in caught)
    return out, dt, err, retries


class Failures:
    def __init__(self):
        self.attempted = self.failed = 0
        self.messages: list[str] = []

    def add_pass(self, p: Pass, reference: Pass | None, workload, inputs):
        self.attempted += len(inputs)
        bad = dict(p.errors)
        if reference is not None:
            for i, (a, b) in enumerate(zip(p.outputs, reference.outputs)):
                if a != b and i not in bad:
                    bad[i] = f"{workload.label(inputs[i])}: output differs between passes"
        self.failed += len(bad)
        self.messages.extend(list(bad.values())[:10 - len(self.messages)])


def end_to_end(workload, state, inputs, seconds, setup_samples, probe):
    fails = Failures()
    passes: list[Pass] = []
    setup_samples = setup_samples + probe()
    t_start = perf_counter()
    with Speed() as speed:
        while True:
            passes.append(Pass(workload, state, inputs, speed=speed))
            fails.add_pass(passes[-1], passes[0] if len(passes) > 1 else None,
                           workload, inputs)
            if perf_counter() - t_start + statistics.median(
                    p.raw_wall for p in passes) > seconds:
                break
    setup_samples += probe()  # at both ends of the run, as the machine drifts
    per_op = [statistics.median(t) for t in zip(*(p.times for p in passes))]
    latencies = [p.wall for p in passes] if workload.latency_of == "pass" else per_op
    metrics = {
        "wall_s": statistics.median(p.wall for p in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                             if len(latencies) > 1 else latencies[0]),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_clock_s": [p.raw_wall for p in passes],
        "op_latency": {"of": workload.latency_of, "samples": len(latencies)},
        "setup_samples_s": setup_samples,
        "point_retries": sum(p.retries for p in passes),
    }
    if len(inputs) <= 32:
        detail["per_op_s"] = {workload.label(inp): t for inp, t in zip(inputs, per_op)}
    return {name: (metrics[name], unit) for name, unit in END_TO_END.items()}, \
        fails, detail


def traced(workload, state, inputs):
    from tracing import LAYER_METRICS, Tracer, install, layer_values

    fails = Failures()
    plain = Pass(workload, state, inputs)
    fails.add_pass(plain, None, workload, inputs)
    tracer = Tracer()
    restore, missing = install(tracer)
    try:
        spanned = Pass(workload, state, inputs, tracer)
    finally:
        restore()
    fails.add_pass(spanned, plain, workload, inputs)
    values = layer_values(tracer, spanned.retries,
                          spanned.raw_wall - plain.raw_wall)
    detail = {"untraced_wall_s": plain.raw_wall, "traced_wall_s": spanned.raw_wall,
              "ops": len(inputs), "spans": len(tracer.spans),
              "unwrapped_names": missing}
    return {name: (values[name], unit) for name, (unit, _) in LAYER_METRICS.items()}, \
        fails, detail


def run(workload, state, seed, seconds, trace, setup_samples, probe=list):
    """(metrics {name: (value, unit)}, Failures, detail) for one run.

    ``probe()`` returns more setup timings from fresh interpreters.
    """
    inputs = workload.inputs(seed)
    if trace:
        return traced(workload, state, inputs)
    return end_to_end(workload, state, inputs, seconds, setup_samples, probe)


def metadata(seed):
    import qschur.kernels

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    lines: dict[str, int] = {}
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            suffix = path.suffix.lstrip(".") or path.name
            with open(path, "rb") as fh:
                lines[suffix] = lines.get(suffix, 0) + sum(1 for _ in fh)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed,
            "backend": qschur.kernels.BACKEND, "src_lines": lines}


def result_json(metrics, fails: Failures) -> str:
    return json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qschur" / "__init__.py").is_file():
        print(f"perfbench: no qschur sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    own_setup, workload, state = timed_setup(args.workload)
    metrics, fails, detail = run(
        workload, state, args.seed, args.seconds, args.trace, [own_setup],
        lambda: [probe_setup(args.workload) for _ in range(SETUP_PROBES)])
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6g} {unit}")
    print(f"{'error_rate':<34} {fails.failed / fails.attempted:>16.6g} "
          f"({fails.failed} of {fails.attempted} calls)")
    for msg in fails.messages:
        print(f"FAILED {msg}")
    detail.update(metadata(args.seed), workload=args.workload, trace=args.trace)
    print("detail " + json.dumps(detail, sort_keys=True))
    print(result_json(metrics, fails))
    return 0


if __name__ == "__main__":
    sys.exit(main())
