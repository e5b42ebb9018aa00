"""``fleet-rv``: offline runtime verification of a seeded vehicle fleet.

Set-up generates the fleet with ``repro.rv.fleetgen`` (one canbus
simulation per vehicle, a seeded minority carrying a drop, replay or
inject fault) and writes it as tracelog JSONL files plus an rv manifest.
One iteration then takes the manifest to verdicts twice -- ingest every
log (``rv.ingest.read_log``), map frames to CSP events
(``EventMapping.stream``), build one ``kind: "trace"`` check per log and
run the batch -- once inline and once over the ``cspbatch`` worker pool
at ``--jobs`` = the machine's processor count.
"""

from __future__ import annotations

import json
import os
import time

from repro import api
from repro.batch.executor import run_batch
from repro.batch.spec import CheckSpec
from repro.obs import NULL_TRACER
from repro.rv.cli import load_rv_manifest
from repro.rv.fleetgen import generate_fleet
from repro.rv.ingest import read_log
from repro.rv.mapping import EventMapping
from repro.rv.specs import OTA_MAPPING_DOC, builtin_spec, ota_database

from common import median, ratio, self_times, sum_of, within

#: vehicles per fleet
VEHICLES = 120
#: fraction of vehicles carrying an injected fault
FAULT_RATE = 0.2


def write_fleet(directory, vehicles, seed):
    """Generate and write a fleet; returns (manifest path, {log: fault}).

    ``repro.rv.fleetgen.write_fleet`` writes the same files but drops each
    vehicle's fault, which the known answers need.
    """
    os.makedirs(directory, exist_ok=True)
    faults, logs = {}, []
    for vehicle in generate_fleet(vehicles, seed=seed, fault_rate=FAULT_RATE):
        filename = vehicle.name + ".jsonl"
        vehicle.log.write_jsonl(os.path.join(directory, filename))
        logs.append(filename)
        faults[filename] = vehicle.fault
    manifest = {
        "format": 1,
        "dbc": "builtin:ota",
        "mapping": dict(OTA_MAPPING_DOC),
        "spec": "ota-session",
        "logs": logs,
    }
    path = os.path.join(directory, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path, faults


class FleetRv:
    name = "fleet-rv"

    def __init__(self):
        self.jobs = os.cpu_count() or 1

    def setup(self, seed, workdir):
        self.manifest, self.faults = write_fleet(os.path.join(workdir, "fleet"), VEHICLES, seed)
        # the library's own manifest-to-verdicts path, the reference every
        # pass must reproduce byte for byte
        self.expected = [v.to_json() for v in api.verify_traces(self.manifest)]

    def _specs(self, tracer, lines_read, prepare_ms):
        """The manifest to one trace check per log, stage by stage."""
        base = os.path.dirname(self.manifest)
        doc = load_rv_manifest(self.manifest)
        mapping = EventMapping.from_doc(ota_database(), doc["mapping"])
        term, bindings = builtin_spec(doc["spec"])
        specs = []
        for log in doc["logs"]:
            started = time.perf_counter()
            with tracer.span("rv.ingest"):
                records = list(read_log(os.path.join(base, log)))
            with tracer.span("rv.map"):
                pairs = list(mapping.stream(records))
            lines_read.append(len(records))
            specs.append(CheckSpec.trace_check(
                term,
                [event for event, _line in pairs],
                check_id=log,
                trace_lines=[line for _event, line in pairs],
                bindings=bindings,
                name="trace membership of {}".format(log),
            ))
            prepare_ms.append((time.perf_counter() - started) * 1000.0)
        return specs

    def _pass(self, tracer, jobs):
        lines_read, prepare_ms = [], []
        started = time.perf_counter()
        with tracer.span("rv.pass", mode="pool" if jobs else "inline"):
            specs = self._specs(tracer, lines_read, prepare_ms)
            with tracer.span("rv.check" if not jobs else "batch.pool"):
                report = run_batch(
                    specs, jobs=jobs, inline=not jobs,
                    obs=tracer if tracer.enabled else None,
                )
        wall_s = time.perf_counter() - started
        # per trace: its ingest and mapping, then its check
        ops_ms = [ms + job.duration_ms for ms, job in zip(prepare_ms, report.results)]
        return report, wall_s, sum(lines_read), ops_ms

    def iteration(self, obs, tally):
        tracer = obs if obs is not None else NULL_TRACER
        inline, inline_s, lines, ops_ms = self._pass(tracer, 0)
        pooled, pooled_s, _, _ = self._pass(tracer, self.jobs)
        with tracer.span("bench.verify"):
            inline_lines = [job.canonical_line() for job in inline.results]
            pooled_lines = [job.canonical_line() for job in pooled.results]
            for index, job in enumerate(inline.results):
                faulty = self.faults[job.check_id] is not None
                tally.check(
                    (job.verdict == "FAIL") == faulty and job.verdict in ("PASS", "FAIL"),
                    "{}: fault {} but verdict {}".format(
                        job.check_id, self.faults[job.check_id], job.verdict),
                )
                tally.check(inline_lines[index] == self.expected[index],
                            "{}: inline verdict differs from verify_traces".format(job.check_id))
                tally.check(pooled_lines[index] == inline_lines[index],
                            "{}: pooled verdict differs from inline".format(job.check_id))
        durations = [job.duration_ms for job in pooled.results]
        # with a tracer the batch merges each inline job's engine profile
        stages = inline.profile.stages if inline.profile is not None else {}
        return {
            "engine_stages": stages,
            "ops_ms": ops_ms,
            "primary_s": inline_s,
            "focus_ops": len(pooled.results),
            "focus_s": pooled_s,
            "traces": len(inline.results),
            "lines": lines,
            "pool_overhead_ms": pooled.wall_ms - sum(durations) / self.jobs,
            "workers": len({job.worker_pid for job in pooled.results}),
            "job_ms_p50": median(durations),
        }

    def named(self, runs, e2e):
        return [
            ("rv_traces_per_s", e2e["ops_per_s"], "1/s"),
            ("rv_pool_traces_per_s", e2e["focus_ops_per_s"], "1/s"),
        ]

    def layers(self, spans, times, runs):
        passes = len(runs)
        inline = self_times(spans, within("mode", "inline"))
        engine = {}
        for name, stage in (("engine.plan_ms", "plan"), ("engine.compile_ms", "compile"),
                            ("passes.compress_ms", "compress"),
                            ("fdr.normalise_ms", "normalise"), ("fdr.refine_ms", "refine"),
                            ("engine.other_ms", "other")):
            engine[name] = (sum(r["engine_stages"].get(stage, 0.0) for r in runs) / passes, "ms")
        return dict(engine, **{
            "rv.traces_per_pass": (runs[0]["traces"], "count"),
            "rv.ingest_lines_per_s": (
                ratio(2 * sum(r["lines"] for r in runs), times.get("rv.ingest", 0.0) / 1000.0),
                "1/s"),
            "rv.map_ms": (times.get("rv.map", 0.0) / passes, "ms"),
            "rv.check_ms": (sum_of(inline, ("rv.check", "batch")) / passes, "ms"),
            "batch.pool_overhead_ms": (median([r["pool_overhead_ms"] for r in runs]), "ms"),
            "batch.worker_processes": (median([r["workers"] for r in runs]), "count"),
            "batch.job_ms_p50": (median([r["job_ms_p50"] for r in runs]), "ms"),
        })
