"""``cli-cold``: the five command-line tools, each in a fresh interpreter.

One round starts, for each tool, a new ``python3`` process and times it
from start to exit with stdout captured:

* ``cspcheck examples/sp02.csp`` -- the paper's headline check;
* ``capl2cspm src/repro/ota/data/ecu.can --check``;
* ``cspbatch`` on a manifest of the Table III requirements R01-R05;
* ``csprv`` on a small seeded fleet;
* ``csplearn tests/learn/corpus/ping.can``.

This is the only workload whose timings include ``import``.  Every
tool's stdout and exit code must match its known answer: pinned files
under ``expected/`` for the fixed inputs, and for ``csprv`` the verdicts
``repro.api.verify_traces`` computes for the fleet during set-up.

In the traced run each tool starts through ``timed_cli.py``, which
times the import of the package and of the tool's module, then its
``main(argv)``; the parent replays those times as spans.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

from repro import api
from repro.obs import NULL_TRACER

from common import EXPECTED, ROOT, SRC, median, peak_rss_mb, replay_span
from fleet import write_fleet

#: vehicles in the fleet ``csprv`` checks
VEHICLES = 10

TIMED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "timed_cli.py")

REQUIREMENTS = {
    "format": 1,
    "checks": [{"kind": "requirement", "req": "R0{}".format(i)} for i in range(1, 6)],
}


def _pinned(name):
    with open(os.path.join(EXPECTED, name), encoding="utf-8") as handle:
        return handle.read()


class CliCold:
    name = "cli-cold"
    #: the measured work runs in child processes
    in_process = False

    def setup(self, seed, workdir):
        requirements = os.path.join(workdir, "requirements.json")
        with open(requirements, "w", encoding="utf-8") as handle:
            json.dump(REQUIREMENTS, handle)
        manifest, faults = write_fleet(os.path.join(workdir, "fleet"), VEHICLES, seed)
        verdicts = api.verify_traces(manifest)
        rv_stdout = "".join(v.to_json() + "\n" for v in verdicts)
        self.rv_faults_match = all(
            (v.verdict == "FAIL") == (faults[v.check_id] is not None) for v in verdicts
        )
        self.tools = [
            ("cspcheck", "repro.fdr.cli", ["examples/sp02.csp"],
             _pinned("cspcheck-sp02.txt"), 0),
            ("capl2cspm", "repro.translator.cli", ["src/repro/ota/data/ecu.can", "--check"],
             _pinned("capl2cspm-ecu.txt"), 0),
            ("cspbatch", "repro.batch.cli", [requirements],
             _pinned("cspbatch-requirements.jsonl"), 0),
            ("csprv", "repro.rv.cli", [manifest],
             rv_stdout, 0 if all(v.passed for v in verdicts) else 1),
            ("csplearn", "repro.learn.cli", ["tests/learn/corpus/ping.can"],
             _pinned("csplearn-ping.txt"), 0),
        ]
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.timings = os.path.join(workdir, "cli-timings.json")

    def _run(self, module, argv, traced):
        if traced:
            command = [sys.executable, TIMED_CLI, self.timings, module] + argv
        else:
            command = [sys.executable, "-m", module] + argv
        started = time.perf_counter()
        completed = subprocess.run(
            command, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        return completed, started, time.perf_counter()

    def iteration(self, obs, tally):
        traced = obs is not None and obs.enabled
        ops_ms, outcomes = [], []
        round_started = time.perf_counter()
        for tool, module, argv, _stdout, _code in self.tools:
            completed, started, ended = self._run(module, argv, traced)
            ops_ms.append((ended - started) * 1000.0)
            outcomes.append(completed)
            if traced:
                self._replay(obs, tool, started, ended)
        round_s = time.perf_counter() - round_started
        with (obs if traced else NULL_TRACER).span("bench.verify"):
            for (tool, _m, _a, stdout, code), completed in zip(self.tools, outcomes):
                tally.check(
                    completed.returncode == code and completed.stdout == stdout,
                    "{}: exit {} (want {}), stdout {!r}, stderr {!r}".format(
                        tool, completed.returncode, code, completed.stdout[-200:],
                        completed.stderr[-300:]),
                )
            tally.check(self.rv_faults_match, "csprv fleet: fault and verdict disagree")
        return {
            "ops_ms": ops_ms,
            "primary_s": round_s,
            "focus_ops": 1,
            "focus_s": ops_ms[0] / 1000.0,
        }

    def _replay(self, tracer, tool, started, ended):
        """Record the child-measured import and run stages as spans."""
        with open(self.timings, encoding="utf-8") as handle:
            t = json.load(handle)
        run_children = [("cspm.load", a, b, ()) for a, b in t["load"]]
        children = [
            ("import", t["start"], t["imported"], ()),
            ("cli.run", t["imported"], t["ran"], run_children),
        ]
        replay_span(tracer, self.clock, "cli.process", started, ended, children, tool=tool)
        self.clock.pinned = None

    def named(self, runs, e2e):
        return [
            ("cli_round_ms", median([r["primary_s"] for r in runs]) * 1000.0, "ms"),
            ("cspcheck_ms", median([r["ops_ms"][0] for r in runs]), "ms"),
        ]

    def peak_rss(self):
        return peak_rss_mb(children=True)

    def layers(self, spans, times, runs):
        passes = len(runs)
        return {
            "import.repro_ms": (times.get("import", 0.0) / passes, "ms"),
            "cli.run_ms": (times.get("cli.run", 0.0) / passes, "ms"),
            "cspm.load_ms": (times.get("cspm.load", 0.0) / passes, "ms"),
        }
