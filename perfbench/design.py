"""``design-checks``: the designer's loop of the paper's Fig. 1.

One iteration runs a list of self-contained refinement and property
:class:`~repro.batch.spec.CheckSpec` documents inline, each with a fresh
compilation cache, writing every verdict to a fresh
:class:`~repro.exec.resultcache.ResultCache` (the cold pass), then replays
the same list against that now-warm store (the memo pass).

The list mixes three groups so a change that helps one kind of model and
not another shows up as such:

* ``paper`` -- the paper's own models: the Fig. 2 demo (SP02) sound and
  flawed, the update session, the Table III rows R01-R05 rebuilt from the
  public model constructors as self-contained refinements, the intruder
  compositions, and three property checks;
* ``scaling`` -- the Sec. VII-A models: redundant interleavings x2..x4, the
  8-component interleave and the 32-message space;
* ``random`` -- a seeded draw of process-term pairs from the
  ``repro.quickcheck`` generators, each with its verdict computed during
  set-up by the independent ``repro.quickcheck.reference`` semantics.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
import time

from repro import api
from repro.batch.spec import CheckSpec, JobResult, reachable_bindings
from repro.csp import (
    Alphabet,
    Channel,
    Environment,
    ExternalChoice,
    Hiding,
    Prefix,
    ProcessRef,
    event,
    input_choice,
    interleave_all,
    ref,
)
from repro.csp.events import AlphabetTable
from repro.engine.cache import CompilationCache
from repro.exec.resultcache import ResultCache
from repro.obs import NULL_TRACER
from repro.ota.models import (
    build_paper_system,
    build_secured_system,
    build_session_system,
)
from repro.quickcheck import gen
from repro.quickcheck.reference import reference_compile, reference_refinement
from repro.security.properties import (
    alternates,
    never_occurs,
    precedes,
    request_response,
    run_process,
)

from common import EXPECTED, ratio, self_times, sum_of, within

#: random refinement pairs drawn per seed
RANDOM_CHECKS = 120

#: the two scaling cases whose plan / compile / refine times are kept apart
SPLIT_CASES = {"interleave-8": "interleave8", "message-space-32": "msgspace32"}

ENGINE_STAGES = ("plan", "compile", "compress", "normalise", "refine")


def _refinement(name, env, spec, impl, model="T"):
    return CheckSpec.refinement(
        spec, impl, model, check_id=name, name=name,
        bindings=reachable_bindings(env, spec, impl),
    )


def _property(name, env, term, property_name):
    return CheckSpec.property_check(
        term, property_name, check_id=name, name=name,
        bindings=reachable_bindings(env, term),
    )


def _requirements():
    """Table III rows as self-contained refinements (not ``kind:
    requirement``, whose in-process compilation cache would make every
    repetition after the first a cache replay)."""
    specs = []
    session = build_session_system()
    env, send, rec = session.env, session.send, session.rec
    everything = run_process(session.sync, env, "R01_RUN")
    env.bind("R01_SPEC", Prefix(send("reqSw"), everything))
    specs.append(_refinement("R01", env, ProcessRef("R01_SPEC"), session.system))

    session = build_session_system()
    env, send, rec = session.env, session.send, session.rec
    keep = Alphabet.of(send("reqSw"), rec("rptSw"))
    spec = request_response(send("reqSw"), rec("rptSw"), env, "R02_SPEC")
    specs.append(_refinement("R02", env, spec, Hiding(session.system, session.sync - keep)))

    session = build_session_system()
    env, send, rec = session.env, session.send, session.rec
    spec = precedes(send("reqApp"), rec("rptUpd"), session.sync, env, "R03_SPEC")
    specs.append(_refinement("R03", env, spec, session.system))

    session = build_session_system()
    env, send, rec = session.env, session.send, session.rec
    keep = Alphabet.of(send("reqApp"), rec("rptUpd"))
    spec = alternates(send("reqApp"), rec("rptUpd"), keep, env, "R04_SPEC")
    specs.append(_refinement("R04", env, spec, Hiding(session.system, session.sync - keep)))

    secured = build_secured_system("mac")
    spec = never_occurs(secured.forbidden_applies, secured.alphabet, secured.env, "R05_SPEC")
    specs.append(_refinement("R05", secured.env, spec, secured.attacked_system))
    return specs


def paper_specs():
    specs = []
    for flawed in (False, True):
        system = build_paper_system(flawed=flawed)
        name = "fig2-demo-flawed" if flawed else "fig2-demo"
        specs.append(_refinement(name, system.env, system.sp02, system.system))
    session = build_session_system()
    specs.append(_refinement("update-session", session.env, session.spec, session.system))
    specs.extend(_requirements())
    for protection, name in (("none", "intruder-unprotected"), ("mac", "intruder-mac")):
        secured = build_secured_system(protection)
        spec = never_occurs(secured.forbidden_applies, secured.alphabet, secured.env, "SPEC")
        specs.append(_refinement(name, secured.env, spec, secured.attacked_system))
    system = build_paper_system()
    specs.append(_property("fig2-demo:deadlock", system.env, system.system, "deadlock free"))
    session = build_session_system()
    specs.append(_property("update-session:divergence", session.env, session.system,
                           "divergence free"))
    flawed = build_paper_system(flawed=True)
    specs.append(_property("fig2-demo-flawed:determinism", flawed.env, flawed.ecu,
                           "deterministic"))
    return specs


def _redundant(count):
    env = Environment()
    alphabet = Alphabet()
    parts = []
    for index in range(count):
        a, b = event("a", index), event("b", index)
        name = "RED{}".format(index)
        env.bind(name, ExternalChoice(
            Prefix(a, Prefix(b, ref(name))),
            Prefix(a, Prefix(b, ExternalChoice(ref(name), ref(name)))),
        ))
        parts.append(ref(name))
        alphabet = alphabet | Alphabet.of(a, b)
    spec = run_process(alphabet, env, "RUNRED")
    return _refinement("redundant-x{}".format(count), env, spec, interleave_all(*parts))


def _interleave(count):
    payloads = [("req", i) for i in range(count)] + [("rsp", i) for i in range(count)]
    channel = Channel("bus", payloads)
    env = Environment()
    for i in range(count):
        name = "COMP{}".format(i)
        env.bind(name, Prefix(channel(("req", i)), Prefix(channel(("rsp", i)), ref(name))))
    system = interleave_all(*(ref("COMP{}".format(i)) for i in range(count)))
    spec = run_process(channel.alphabet(), env, "RUNALL")
    return _refinement("interleave-{}".format(count), env, spec, system)


def _message_space(size):
    channel = Channel("bus", list(range(size)))
    env = Environment()
    env.bind("SRV", input_choice(channel, lambda _v: input_choice(channel, lambda _w: ref("SRV"))))
    spec = run_process(channel.alphabet(), env, "RUNALL")
    return _refinement("message-space-{}".format(size), env, spec, ref("SRV"))


def scaling_specs():
    return [_redundant(2), _redundant(3), _redundant(4), _interleave(8), _message_space(32)]


def random_specs(seed):
    """Seeded random refinements with their reference-semantics verdicts."""
    rng = random.Random(seed)
    terms = gen.process_terms()
    specs, verdicts = [], {}
    for index in range(RANDOM_CHECKS):
        spec, impl = terms(rng), terms(rng)
        model = "T" if rng.random() < 0.5 else "F"
        name = "random-{:03d}".format(index)
        table = AlphabetTable()
        reference = reference_refinement(
            reference_compile(spec, table=table), reference_compile(impl, table=table), model
        )
        verdicts[name] = "PASS" if reference.passed else "FAIL"
        specs.append(CheckSpec.refinement(spec, impl, model, check_id=name, name=name))
    return specs, verdicts


def run_check(spec, obs):
    """One check as the sequential runtime runs it, with a fresh cache."""
    env = spec.environment()
    cache = CompilationCache()
    if spec.kind == "refinement":
        result = api.check_refinement(
            spec.spec, spec.impl, spec.model, env=env, name=spec.name, cache=cache, obs=obs
        )
    else:
        result = api.check_property(
            spec.term, spec.property_name, env=env, name=spec.name, cache=cache, obs=obs
        )
    return JobResult.of_check_result(0, spec.check_id, result)


class DesignChecks:
    name = "design-checks"

    def setup(self, seed, workdir):
        self.workdir = workdir
        with open(os.path.join(EXPECTED, "design.json"), encoding="utf-8") as handle:
            pinned = json.load(handle)
        random_list, reference = random_specs(seed)
        self.cases = (
            [("paper", spec) for spec in paper_specs()]
            + [("scaling", spec) for spec in scaling_specs()]
            + [("random", spec) for spec in random_list]
        )
        self.expected = {}
        for group, spec in self.cases:
            if group == "random":
                self.expected[spec.check_id] = {"verdict": reference[spec.check_id]}
            else:
                self.expected[spec.check_id] = pinned[spec.check_id]

    def _answer_ok(self, job):
        want = self.expected[job.check_id]
        if job.verdict != want["verdict"]:
            return False
        return "counterexample" not in want or job.counterexample == want["counterexample"]

    def iteration(self, obs, tally):
        tracer = obs if obs is not None else NULL_TRACER
        store = tempfile.mkdtemp(prefix="results-", dir=self.workdir)
        try:
            return self._passes(tracer, ResultCache(store), tally)
        finally:
            shutil.rmtree(store, ignore_errors=True)

    def _passes(self, tracer, store, tally):
        ops_ms, cold_lines, split = [], [], {}
        counter = tracer.metrics.counter("plan.product_views")
        started = time.perf_counter()
        for group, spec in self.cases:
            op_started = time.perf_counter()
            views = counter.value
            with tracer.span("exec.spec_encode"):
                doc = spec.to_doc()
            with tracer.span("exec.result_get"):
                hit = store.get(doc)
            with tracer.span("api.check", case=spec.check_id, group=group):
                job = run_check(spec, tracer if tracer.enabled else None)
            with tracer.span("exec.result_put"):
                store.put(doc, job)
            ops_ms.append((time.perf_counter() - op_started) * 1000.0)
            cold_lines.append((job, hit))
            if spec.check_id in SPLIT_CASES:
                split[spec.check_id] = counter.value - views
        cold_s = time.perf_counter() - started

        warm_lines = []
        started = time.perf_counter()
        for _group, spec in self.cases:
            with tracer.span("exec.spec_encode"):
                doc = spec.to_doc()
            with tracer.span("exec.result_get"):
                warm_lines.append(store.get(doc))
        warm_s = time.perf_counter() - started

        with tracer.span("bench.verify"):
            for (job, hit), warm in zip(cold_lines, warm_lines):
                tally.check(hit is None, "{}: cold store answered".format(job.check_id))
                tally.check(self._answer_ok(job), "{}: wrong answer {}".format(
                    job.check_id, job.canonical_line()))
                tally.check(
                    warm is not None and warm.canonical_line() == job.canonical_line(),
                    "{}: warm replay differs from the cold pass".format(job.check_id),
                )
        return {
            "ops_ms": ops_ms,
            "primary_s": cold_s,
            "focus_ops": len(warm_lines),
            "focus_s": warm_s,
            "product_views": split,
            "result_hits": sum(1 for _job, hit in cold_lines if hit is not None)
            + sum(1 for warm in warm_lines if warm is not None),
            "result_gets": len(cold_lines) + len(warm_lines),
        }

    def named(self, runs, e2e):
        return [
            ("checks_per_s", e2e["ops_per_s"], "1/s"),
            ("check_ms_p50", e2e["op_ms_p50"], "ms"),
            ("check_ms_p90", e2e["op_ms_p90"], "ms"),
            ("memo_checks_per_s", e2e["focus_ops_per_s"], "1/s"),
        ]

    def layers(self, spans, times, runs):
        passes = len(runs)
        out = {
            "design.checks_per_pass": (len(self.cases), "count"),
            "exec.result_hit_ratio": (
                ratio(sum(r["result_hits"] for r in runs), sum(r["result_gets"] for r in runs)),
                "ratio"),
        }
        for case, label in SPLIT_CASES.items():
            inside = self_times(spans, within("case", case))
            out[label + ".plan_ms"] = (inside.get("plan", 0.0) / passes, "ms")
            out[label + ".compile_ms"] = (inside.get("compile", 0.0) / passes, "ms")
            out[label + ".refine_ms"] = (inside.get("refine", 0.0) / passes, "ms")
            out[label + ".product_views"] = (
                sum(run["product_views"][case] for run in runs) / passes, "count")
        for group in ("paper", "scaling"):
            inside = self_times(spans, within("group", group))
            out["design.{}.plan_ms".format(group)] = (inside.get("plan", 0.0) / passes, "ms")
            out["design.{}.compress_ms".format(group)] = (
                inside.get("compress", 0.0) / passes, "ms")
            out["design.{}.engine_ms".format(group)] = (
                sum_of(inside, ENGINE_STAGES + ("check", "api.check")) / passes, "ms")
        return out
