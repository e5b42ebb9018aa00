"""The toolchain's benchmark: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload design-checks --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring):

* ``design-checks`` (:mod:`design`) -- paper, scaling and random
  refinement/property checks, cold, then replayed from the result cache;
* ``fleet-rv`` (:mod:`fleet`) -- a seeded fleet's CAN logs to verdicts,
  inline and over the batch worker pool;
* ``learn-corpus`` (:mod:`learncorpus`) -- L* learning of the golden
  CAPL corpus;
* ``cli-cold`` (:mod:`clicold`) -- the five CLIs, one fresh interpreter
  each.

A run builds its inputs from ``--seed`` (set-up, repeated and timed), runs
one untimed warm-up iteration, then iterates in a closed loop -- one
client, each call waiting for the one before -- for ``--seconds``.  Every
answer is checked against a known one; a wrong or failed answer counts in
``failed`` and makes ``correct`` false.

Times are reported at a reference machine speed.  The machine's speed
drifts by tens of percent within minutes when other tenants load it, so
before each set-up and each iteration the run times a fixed calibration
task (:func:`common.calibrate`) and multiplies the times that follow by
``CALIBRATION_REF_S`` over that time.  Work done in child processes (the
``cli-cold`` tools) is left unscaled.  The unscaled values are written
next to the scaled ones under ``.perfbench/out/``.

``--trace 0`` reports the end-to-end metrics, which every workload defines
the same way:

* ``setup_s`` -- median set-up time;
* ``peak_rss_mb`` -- peak resident memory of the workload's process (of
  the largest CLI process for ``cli-cold``);
* ``ops_per_s``, ``op_ms_p50``, ``op_ms_p90`` -- throughput and latency of
  the workload's operation: a cold check, an inline trace from log to
  verdict, a program learned, a CLI process;
* ``focus_ops_per_s`` -- throughput of the workload's second path: checks
  replayed from the warm result cache, traces through the worker pool,
  reference-teacher programs learned, cold ``cspcheck`` runs.

``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics: self time per layer from ``repro.obs`` spans (the
engine's own through ``obs=``, the benchmark's around each public call),
counts, and the tracing overhead.  The trace is written in the
``repro.obs`` JSONL schema and validated; the self times of the layer
stages must cover the traced wall time to within 10 %.

Outputs go to ``.perfbench/out/``; the last line of stdout is the result
as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
import tempfile
import time

from common import (
    CALIBRATION_REF_S,
    SRC,
    WORK,
    PinnedClock,
    calibrate,
    graft,
    Tally,
    median,
    p90,
    peak_rss_mb,
    ratio,
    result_line,
    self_times,
    sum_of,
)

WORKLOADS = {
    "design-checks": ("design", "DesignChecks"),
    "fleet-rv": ("fleet", "FleetRv"),
    "learn-corpus": ("learncorpus", "LearnCorpus"),
    "cli-cold": ("clicold", "CliCold"),
}

#: set-ups per run, fewest and most; between them, set-up repeats until it
#: has taken SETUP_SECONDS.  The median is reported.
SETUPS = (5, 25)
SETUP_SECONDS = 0.5

#: the greatest share of traced wall time the layer stages may leave uncovered
COVERAGE_TOLERANCE = 0.10

ENGINE_LAYERS = {
    "engine.plan_ms": ("plan",),
    "engine.compile_ms": ("compile",),
    "passes.compress_ms": ("compress",),
    "fdr.normalise_ms": ("normalise",),
    "fdr.refine_ms": ("refine",),
    "engine.other_ms": ("check", "api.check"),
}

#: every per-layer metric with its unit; a layer a workload never enters
#: reports 0
PER_LAYER = [
    ("import.repro_ms", "ms"), ("cli.run_ms", "ms"), ("cspm.load_ms", "ms"),
    ("translator.extract_ms", "ms"),
    ("engine.plan_ms", "ms"), ("engine.compile_ms", "ms"), ("passes.compress_ms", "ms"),
    ("fdr.normalise_ms", "ms"), ("fdr.refine_ms", "ms"), ("engine.other_ms", "ms"),
    ("refine.states_explored", "count"), ("compile.states", "count"),
    ("compress.states_in", "count"), ("compress.states_out", "count"),
    ("cache.hit_ratio", "ratio"),
    ("interleave8.plan_ms", "ms"), ("interleave8.compile_ms", "ms"),
    ("interleave8.refine_ms", "ms"), ("interleave8.product_views", "count"),
    ("msgspace32.plan_ms", "ms"), ("msgspace32.compile_ms", "ms"),
    ("msgspace32.refine_ms", "ms"), ("msgspace32.product_views", "count"),
    ("design.paper.plan_ms", "ms"), ("design.paper.compress_ms", "ms"),
    ("design.paper.engine_ms", "ms"), ("design.scaling.plan_ms", "ms"),
    ("design.scaling.compress_ms", "ms"), ("design.scaling.engine_ms", "ms"),
    ("design.checks_per_pass", "count"),
    ("exec.spec_encode_ms", "ms"), ("exec.result_get_ms", "ms"),
    ("exec.result_put_ms", "ms"), ("exec.result_hit_ratio", "ratio"),
    ("batch.pool_overhead_ms", "ms"), ("batch.worker_processes", "count"),
    ("batch.job_ms_p50", "ms"),
    ("rv.traces_per_pass", "count"), ("rv.ingest_lines_per_s", "1/s"),
    ("rv.map_ms", "ms"), ("rv.check_ms", "ms"),
    ("learn.sul_runs", "count"), ("learn.membership_queries", "count"),
    ("learn.cache_leverage", "ratio"), ("learn.sul_ms", "ms"),
    ("learn.sul_ms_per_run", "ms"), ("learn.close_ms", "ms"),
    ("learn.equivalence_ms", "ms"),
    ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%"),
    ("trace.stage_coverage", "ratio"), ("trace.passes", "count"),
    ("machine.calibration_ms", "ms"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def at_reference_speed(workload, run):
    """An iteration's times scaled by the calibration taken just before it.

    Only work done in this process is scaled: the calibration tracks how
    fast this interpreter runs, and follows the speed of separate
    processes -- the ``cli-cold`` tools -- less well than their raw wall
    time does.
    """
    if not getattr(workload, "in_process", True):
        return run
    factor = CALIBRATION_REF_S / run["calibration_s"]
    return dict(run, primary_s=run["primary_s"] * factor, focus_s=run["focus_s"] * factor,
                ops_ms=[ms * factor for ms in run["ops_ms"]])


def end_to_end(workload, setups, runs):
    ops = [ms for run in runs for ms in run["ops_ms"]]
    rss = workload.peak_rss() if hasattr(workload, "peak_rss") else peak_rss_mb()
    return {
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ops_per_s": (len(ops) / sum(run["primary_s"] for run in runs), "1/s"),
        "op_ms_p50": (median(ops), "ms"),
        "op_ms_p90": (p90(ops), "ms"),
        "focus_ops_per_s": (
            sum(run["focus_ops"] for run in runs) / sum(run["focus_s"] for run in runs), "1/s"),
    }


def per_layer(workload, tracer, traced, untraced_walls, traced_walls, import_ms,
              calibration_ms):
    spans = tracer.spans
    times = self_times(spans)
    passes = len(traced)
    counters = tracer.metrics.snapshot()
    hits = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith("_hits"))
    misses = sum(v for k, v in counters.items() if k.startswith("cache.") and k.endswith("_misses"))
    layers = {name: (0.0, unit) for name, unit in PER_LAYER}
    layers.update({
        "import.repro_ms": (import_ms, "ms"),
        "cspm.load_ms": (times.get("cspm.load", 0.0) / passes, "ms"),
        "translator.extract_ms": (times.get("translator.extract", 0.0) / passes, "ms"),
        "cache.hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "exec.spec_encode_ms": (times.get("exec.spec_encode", 0.0) / passes, "ms"),
        "exec.result_get_ms": (times.get("exec.result_get", 0.0) / passes, "ms"),
        "exec.result_put_ms": (times.get("exec.result_put", 0.0) / passes, "ms"),
    })
    for name, stages in ENGINE_LAYERS.items():
        layers[name] = (sum_of(times, stages) / passes, "ms")
    for name in ("refine.states_explored", "compile.states", "compress.states_in",
                 "compress.states_out"):
        layers[name] = (counters.get(name, 0) / passes, "count")
    layers.update(workload.layers(spans, times, traced))
    layers["machine.calibration_ms"] = (calibration_ms, "ms")
    # the layer stages must account for the traced wall time: what no span
    # below a pass root covers is the root's own self time
    wall_ms = sum(traced_walls) * 1000.0
    covered = wall_ms - times.get("pass", 0.0) - sum(
        (wall - root.duration_ms / 1000.0) * 1000.0
        for wall, root in zip(traced_walls, [s for s in spans if s.name == "pass"])
    )
    overhead_s = median(traced_walls) - median(untraced_walls)
    layers.update({
        "trace.overhead_ms": (overhead_s * 1000.0, "ms"),
        "trace.overhead_pct": (100.0 * overhead_s / median(untraced_walls), "%"),
        "trace.stage_coverage": (covered / wall_ms, "ratio"),
        "trace.passes": (passes, "count"),
    })
    return layers


def export_trace(tracer, path):
    """Write the trace as ``repro.obs`` JSONL and validate it; None or an error."""
    from repro.obs import SchemaError, export_jsonl, validate_file

    export_jsonl(tracer, path)
    try:
        validate_file(path)
    except SchemaError as error:
        return "trace export invalid: {}".format(error)
    return None


def measure(args, workload, workdir, import_ms):
    from repro.obs import Tracer

    clock = PinnedClock()
    workload.clock = clock
    setups, scaled_setups = [], []
    while len(setups) < SETUPS[1] and (len(setups) < SETUPS[0] or sum(setups) < SETUP_SECONDS):
        directory = os.path.join(workdir, "setup-{}".format(len(setups)))
        os.makedirs(directory)
        calibration_s = calibrate()
        started = time.perf_counter()
        workload.setup(args.seed, directory)
        setups.append(time.perf_counter() - started)
        scaled_setups.append(setups[-1] * CALIBRATION_REF_S / calibration_s)

    tally = Tally()
    workload.iteration(None, tally)  # warm-up, untimed
    gc.collect()
    tracer = Tracer(clock=clock)
    runs, traced, untraced_walls, traced_walls = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        calibration_s = calibrate()
        started = time.perf_counter()
        if args.trace and len(traced) < len(runs):
            pass_tracer = Tracer(clock=clock)
            with pass_tracer.span("pass", workload=workload.name):
                traced.append(workload.iteration(pass_tracer, tally))
            traced_walls.append(time.perf_counter() - started)
            graft(tracer, clock, pass_tracer)
        else:
            runs.append(workload.iteration(None, tally))
            untraced_walls.append(time.perf_counter() - started)
            runs[-1]["calibration_s"] = calibration_s
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    problems = list(tally.reasons)
    scaled = [at_reference_speed(workload, run) for run in runs]
    e2e = end_to_end(workload, scaled_setups, scaled)
    report = {
        "end_to_end": e2e,
        "measured": end_to_end(workload, setups, runs),
        "calibration_ms": median([run["calibration_s"] for run in runs]) * 1000.0,
        "named": workload.named(scaled, {k: v for k, (v, _u) in e2e.items()}),
    }
    if args.trace:
        layers = per_layer(workload, tracer, traced, untraced_walls, traced_walls, import_ms,
                           report["calibration_ms"])
        report["per_layer"] = layers
        coverage = layers["trace.stage_coverage"][0]
        if abs(1.0 - coverage) > COVERAGE_TOLERANCE:
            problems.append("layer stages cover {:.1%} of traced wall time".format(coverage))
        base = os.path.join(WORK, "out", "{}-seed{}".format(workload.name, args.seed))
        error = export_trace(tracer, base + ".trace.jsonl")
        if error:
            problems.append(error)
    return tally, problems, report


def print_report(workload, tally, problems, report, metrics):
    def row(name, value, unit):
        print("{:<28} {:>16.6g} {}".format(name, value, unit))

    print("workload {}: {} iterations checked, {} failed".format(
        workload.name, tally.attempted, tally.failed))
    for problem in problems:
        print("  problem: {}".format(problem))
    row("error_rate", ratio(tally.failed, tally.attempted), "ratio")
    row("calibration_ms", report["calibration_ms"], "ms")
    for name, value, unit in report["named"]:
        row(name, value, unit)
    for name, (value, unit) in metrics.items():
        row(name, value, unit)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        sys.stderr.write(
            "perfbench: no source tree at {}; run from the root of a checkout\n".format(SRC))
        return 2
    sys.path.insert(0, SRC)
    module_name, class_name = WORKLOADS[args.workload]
    started = time.perf_counter()
    module = importlib.import_module(module_name)
    import_ms = (time.perf_counter() - started) * 1000.0
    workload = getattr(module, class_name)()

    os.makedirs(os.path.join(WORK, "out"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK)
    try:
        tally, problems, report = measure(args, workload, workdir, import_ms)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    correct = not problems
    print_report(workload, tally, problems, report, metrics)
    summary = os.path.join(WORK, "out", "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(summary, "w", encoding="utf-8") as handle:
        json.dump({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                   "problems": problems, "named": report["named"],
                   "calibration_ms": report["calibration_ms"],
                   "measured": {k: {"value": v, "unit": u}
                                for k, (v, u) in report["measured"].items()},
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
                  handle, indent=2, sort_keys=True)
    print(result_line(correct, tally, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
