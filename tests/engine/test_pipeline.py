"""The shared verification pipeline: interning, caching, on-the-fly search.

Four claims are pinned here:

* the alphabet table is a faithful bijection (Event -> id -> Event),
* the compilation cache hits on structurally equal terms and misses when a
  reachable binding differs,
* the on-the-fly product search is *observably identical* to the eager
  reference (the implementation compiled in full, then searched): same
  verdicts and the same counterexample traces, on the case-study models
  (including the seeded-defect ECU from ``ota/data/ecu_flawed.can``),
* ``[FD=`` normalises its spec through the cache like ``[T=``/``[F=``.
"""

import pathlib

import pytest

from repro.csp.events import Alphabet, AlphabetTable, Event, TAU, TAU_ID, TICK, TICK_ID
from repro.csp.process import (
    Environment,
    GenParallel,
    InternalChoice,
    Prefix,
    ProcessRef,
    Stop,
    external_choice,
)
from repro.engine.cache import CompilationCache, structural_key
from repro.engine.pipeline import VerificationPipeline
from repro.fdr.refine import check_failures_refinement_from, check_trace_refinement_from
from repro.ota.capl_sources import ECU_FLAWED_SOURCE, ECU_SOURCE
from repro.ota.scenario import extract_system

DATA_DIR = pathlib.Path(__file__).parents[2] / "src" / "repro" / "ota" / "data"


# -- alphabet table ------------------------------------------------------------------


def test_table_round_trips_events():
    table = AlphabetTable()
    events = [Event("send", ("reqSw",)), Event("rec", ("rptSw", 7))]
    ids = [table.intern(event) for event in events]
    assert [table.event_of(i) for i in ids] == events
    # interning is idempotent: same event, same id
    assert [table.intern(event) for event in events] == ids


def test_table_reserves_tau_and_tick():
    table = AlphabetTable()
    assert table.id_of(TAU) == TAU_ID
    assert table.id_of(TICK) == TICK_ID
    assert table.event_of(TAU_ID) == TAU
    assert table.event_of(TICK_ID) == TICK


def test_table_bitset_round_trip():
    table = AlphabetTable()
    events = frozenset(Event("c", (i,)) for i in range(5))
    bits = table.encode_set(events)
    assert set(table.decode_bits(bits)) == events


# -- compilation cache ---------------------------------------------------------------


def _server(env, name="P"):
    a, b = Event("c", ("a",)), Event("c", ("b",))
    env.bind(name, external_choice(Prefix(a, ProcessRef(name)), Prefix(b, Stop())))
    return ProcessRef(name)


def test_cache_hits_on_structurally_equal_terms():
    pipeline = VerificationPipeline(Environment())
    process = _server(pipeline.env)
    first = pipeline.compile(process)
    second = pipeline.compile(ProcessRef("P"))
    assert second is first
    stats = pipeline.stats()
    assert stats["lts_hits"] == 1 and stats["lts_misses"] == 1


def test_cache_is_shared_across_rebuilt_environments():
    # two sessions, each building its own env with the same definitions,
    # share compiles because keys are structural, not identity-based
    cache = CompilationCache()
    for expected_hits in (0, 1):
        env = Environment()
        pipeline = VerificationPipeline(env, cache=cache)
        pipeline.compile(_server(env))
        assert cache.lts_hits == expected_hits


def test_cache_misses_when_a_reachable_binding_differs():
    env_a, env_b = Environment(), Environment()
    key_a = structural_key(_server(env_a), env_a)
    ref_b = _server(env_b)
    env_b.bind("P", Prefix(Event("c", ("a",)), ProcessRef("P")))
    assert structural_key(ref_b, env_b) != key_a


def test_cached_lts_respects_smaller_budgets():
    from repro.csp.lts import StateSpaceLimitExceeded

    pipeline = VerificationPipeline(Environment())
    chain = Prefix(Event("c", (0,)), Prefix(Event("c", (1,)), Prefix(Event("c", (2,)), Stop())))
    pipeline.compile(chain)
    with pytest.raises(StateSpaceLimitExceeded):
        pipeline.compile(chain, max_states=2)


# -- lazy vs eager equivalence -------------------------------------------------------


def _eager_reference(model, decl, pipeline):
    """The materialised reference for one ``[T=``/``[F=`` assert line: the
    implementation compiled in full, searched against the normalised spec."""
    check = {
        "T": check_trace_refinement_from,
        "F": check_failures_refinement_from,
    }[decl.kind]
    spec = model.eval_process(decl.left, {})
    impl = model.eval_process(decl.right, {})
    return check(pipeline.normalised(spec), pipeline.compile(impl))


def _check_both_ways(ecu_source):
    """Run every composed assertion through the pipeline's route and
    through the eager reference; return paired results."""
    model = extract_system(ecu_source).load()
    lazy = model.check_assertions()
    reference = extract_system(ecu_source).load()
    pipeline = VerificationPipeline(reference.env)
    eager = [
        _eager_reference(reference, decl, pipeline)
        for decl in reference.assertions
    ]
    return list(zip(lazy, eager))


def _assert_observably_identical(lazy_result, eager_result):
    assert lazy_result.passed == eager_result.passed
    lazy_cx, eager_cx = lazy_result.counterexample, eager_result.counterexample
    if eager_cx is None:
        assert lazy_cx is None
        return
    assert lazy_cx.trace == eager_cx.trace
    assert getattr(lazy_cx, "forbidden", None) == getattr(eager_cx, "forbidden", None)


def test_lazy_equals_eager_on_correct_ecu():
    results = _check_both_ways(ECU_SOURCE)
    assert results, "no assertions were checked"
    for lazy_result, eager_result in results:
        assert lazy_result.passed
        _assert_observably_identical(lazy_result, eager_result)


def test_lazy_equals_eager_on_flawed_ecu():
    results = _check_both_ways(ECU_FLAWED_SOURCE)
    failing = [pair for pair in results if not pair[1].passed]
    assert failing, "the seeded defect must fail at least one assertion"
    for lazy_result, eager_result in results:
        _assert_observably_identical(lazy_result, eager_result)


def test_lazy_equals_eager_on_flawed_ecu_data_file():
    source = (DATA_DIR / "ecu_flawed.can").read_text(encoding="utf-8")
    results = _check_both_ways(source)
    assert any(not eager.passed for _lazy, eager in results)
    for lazy_result, eager_result in results:
        _assert_observably_identical(lazy_result, eager_result)


def test_on_the_fly_stops_before_full_state_space():
    # a violation near the root: the lazy search must not expand the long tail
    env = Environment()
    bad = Event("c", ("bad",))
    tail = Stop()
    for step in range(60):
        tail = Prefix(Event("c", ("step", step)), tail)
    env.bind("IMPL", external_choice(Prefix(bad, Stop()), Prefix(Event("c", ("step", 59)), tail)))
    env.bind("SPEC", Prefix(Event("c", ("step", 59)), ProcessRef("SPEC")))
    pipeline = VerificationPipeline(env)
    impl = pipeline.lazy(ProcessRef("IMPL"))
    result = check_trace_refinement_from(pipeline.normalised(ProcessRef("SPEC")), impl)
    assert not result.passed
    assert impl.state_count < 30


def test_fd_checks_normalise_a_shared_spec_once():
    env = Environment()
    a, b = Event("a"), Event("b")
    env.bind("SPEC", Prefix(a, Prefix(b, ProcessRef("SPEC"))))
    env.bind("P", Prefix(a, Prefix(b, ProcessRef("P"))))
    env.bind("Q", Prefix(a, InternalChoice(Prefix(b, ProcessRef("Q")), Stop())))
    sync = Alphabet([a, b])
    env.bind("GOOD", GenParallel(ProcessRef("P"), ProcessRef("P"), sync))
    env.bind("BAD", GenParallel(ProcessRef("P"), ProcessRef("Q"), sync))
    pipeline = VerificationPipeline(env)
    good = pipeline.refinement(ProcessRef("SPEC"), ProcessRef("GOOD"), "FD")
    assert pipeline.stats()["normalised_misses"] == 1
    bad = pipeline.refinement(ProcessRef("SPEC"), ProcessRef("BAD"), "FD")
    stats = pipeline.stats()
    assert stats["normalised_misses"] == 1
    assert stats["normalised_hits"] == 1
    # the search itself is unchanged: verdicts, counterexample, explored counts
    assert good.passed and good.states_explored == 2
    assert not bad.passed and bad.states_explored == 4
    assert bad.counterexample.describe() == (
        "failure violation: after <a> the implementation stably offers only "
        "{nothing}, refusing events the specification requires"
    )
