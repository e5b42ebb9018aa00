"""``learn-corpus``: active automata learning of the golden CAPL corpus.

Set-up loads the corpus: it reads every program of ``tests/learn/corpus``
and puts it behind a ``CaplSimulatorSUL`` (the CAPL program on the canbus
simulator).  One iteration learns every program with the teacher its
manifest names, the way ``csplearn`` does: a ``reference``
entry extracts a CSPm model from the same source (``api.extract_model``)
and answers equivalence queries with the refinement engine, a ``bounded``
entry conformance-tests inside ``learn()``.  Each learned automaton must
reproduce the fingerprint pinned in ``corpus.json``.

The order of the programs is shuffled by the seed; the programs
themselves are fixed.

In the traced run the SUL and the reference teacher handed to ``learn()``
are timing proxies that open a span around every ``membership`` and
``counterexample`` call; the learner's own ``learn.close`` and
``learn.equivalence`` spans come through its ``obs`` parameter.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro import api
from repro.csp.lts import compile_lts
from repro.learn import CaplSimulatorSUL, ReferenceTeacher, derive_message_specs, learn
from repro.obs import NULL_TRACER

from common import ROOT, median, ratio, sum_of

CORPUS = os.path.join(ROOT, "tests", "learn", "corpus")


class TimedSUL:
    """A system under learning that opens a span around each run."""

    def __init__(self, sul, tracer):
        self.alphabet = sul.alphabet
        self._membership = sul.membership
        self._tracer = tracer

    def membership(self, word):
        with self._tracer.span("learn.sul"):
            return self._membership(word)


class TimedTeacher:
    """An equivalence oracle that opens a span around each query."""

    def __init__(self, teacher, tracer):
        self._counterexample = teacher.counterexample
        self._tracer = tracer

    def counterexample(self, hypothesis):
        with self._tracer.span("learn.teacher"):
            return self._counterexample(hypothesis)


class LearnCorpus:
    name = "learn-corpus"

    def setup(self, seed, workdir):
        with open(os.path.join(CORPUS, "corpus.json"), encoding="utf-8") as handle:
            entries = json.load(handle)["entries"]
        random.Random(seed).shuffle(entries)
        # loading the corpus: read each program and put it behind a SUL
        self.entries = []
        for entry in entries:
            with open(os.path.join(CORPUS, entry["file"]), encoding="utf-8") as handle:
                source = handle.read()
            sul = CaplSimulatorSUL(source, derive_message_specs(source), node=entry["node"])
            self.entries.append((entry, source, sul))

    def _learn(self, entry, source, sul, tracer):
        node = entry["node"]
        teacher = None
        if entry["teacher"] == "reference":
            with tracer.span("translator.extract"):
                extraction = api.extract_model(source, node=node)
            with tracer.span("cspm.load"):
                model = extraction.load()
            with tracer.span("learn.reference"):
                reference = compile_lts(model.process(node), model.env, max_states=100_000)
                teacher = ReferenceTeacher(reference, name="extracted:" + node)
        if tracer.enabled:
            sul = TimedSUL(sul, tracer)
            teacher = None if teacher is None else TimedTeacher(teacher, tracer)
            return learn(sul, teacher=teacher, depth=entry["depth"], max_rounds=64, obs=tracer)
        return learn(sul, teacher=teacher, depth=entry["depth"], max_rounds=64)

    def iteration(self, obs, tally):
        tracer = obs if obs is not None else NULL_TRACER
        ops_ms, reference_ms, results = [], [], []
        started = time.perf_counter()
        for entry, source, sul in self.entries:
            op_started = time.perf_counter()
            with tracer.span("learn.program", file=entry["file"], teacher=entry["teacher"]):
                results.append(self._learn(entry, source, sul, tracer))
            ops_ms.append((time.perf_counter() - op_started) * 1000.0)
            if entry["teacher"] == "reference":
                reference_ms.append(ops_ms[-1])
        pass_s = time.perf_counter() - started
        with tracer.span("bench.verify"):
            for (entry, _source, _sul), result in zip(self.entries, results):
                tally.check(
                    result.fingerprint() == entry["fingerprint"]
                    and result.state_count == entry["states"]
                    and result.transition_count == entry["transitions"],
                    "{}: learned {} ({} states)".format(
                        entry["file"], result.fingerprint(), result.state_count),
                )
        return {
            "ops_ms": ops_ms,
            "primary_s": pass_s,
            "focus_ops": len(reference_ms),
            "focus_s": sum(reference_ms) / 1000.0,
            "sul_runs": sum(r.stats.sul_runs for r in results),
            "queries": sum(r.stats.membership_queries for r in results),
        }

    def named(self, runs, e2e):
        return [("learn_s", median([r["primary_s"] for r in runs]), "s")]

    def layers(self, spans, times, runs):
        passes = len(runs)
        runs_per_pass = sum(r["sul_runs"] for r in runs) / passes
        sul_ms = times.get("learn.sul", 0.0) / passes
        return {
            "learn.sul_runs": (runs_per_pass, "count"),
            "learn.membership_queries": (sum(r["queries"] for r in runs) / passes, "count"),
            "learn.cache_leverage": (
                ratio(sum(r["queries"] for r in runs), sum(r["sul_runs"] for r in runs)), "ratio"),
            "learn.sul_ms": (sul_ms, "ms"),
            "learn.sul_ms_per_run": (ratio(sul_ms, runs_per_pass), "ms"),
            "learn.close_ms": (times.get("learn.close", 0.0) / passes, "ms"),
            "learn.equivalence_ms": (
                sum_of(times, ("learn.equivalence", "learn.teacher")) / passes, "ms"),
        }
