"""The on-the-fly product view: parity with the term-level path.

The :class:`~repro.engine.product.ProductLTS` replaces the SOS replay of
compiled component leaves with direct kernel-span synthesis.  The claims
pinned here:

* the product explores state-for-state and edge-for-edge exactly what the
  term-level :class:`~repro.fdr.refine.LazyImplementation` explores (same
  numbering, same event order, same terms behind the states),
* pipeline verdicts, counterexamples and explored-state counts are
  unchanged whether the product view or the lazy SOS path runs the check,
* terms the product cannot synthesise fall back cleanly.
"""

import pytest

from repro.csp.events import Alphabet, event
from repro.csp.lts import StateSpaceLimitExceeded
from repro.csp.process import (
    CompiledProcess,
    Environment,
    GenParallel,
    Hiding,
    Interleave,
    Renaming,
    Stop,
    prefix,
    ref,
)
from repro.engine.pipeline import VerificationPipeline
from repro.engine.product import ProductLTS
from repro.fdr.refine import check_failures_refinement_from, check_trace_refinement_from

A, B, C, D = event("a"), event("b"), event("c"), event("d")


def _composed_env():
    env = Environment()
    env.bind("P", prefix(A, prefix(B, ref("P"))))
    env.bind("Q", prefix(A, prefix(B, ref("Q"))))
    env.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B])))
    return env


def _product_for(pipeline, term, model="T"):
    prepared = pipeline.plan.prepare(term, model)
    return prepared, pipeline.plan.product_view(prepared, 10_000)


def _explore_all(impl):
    """Expand every discovered state; edges as (event name, target)."""
    edges = {}
    state = 0
    while state < impl.state_count:
        edges[state] = [
            (str(evt), target) for evt, target in impl.successors(state)
        ]
        state += 1
    return edges


class TestQualification:
    def test_composed_term_gets_a_product_view(self):
        pipeline = VerificationPipeline(_composed_env())
        _prepared, view = _product_for(pipeline, ref("SYS"))
        assert isinstance(view, ProductLTS)

    def test_uncompressed_term_has_no_view(self):
        env = Environment()
        env.bind("P", prefix(A, ref("P")))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("P"), "T")
        assert pipeline.plan.product_view(prepared, 10_000) is None

    def test_bare_compiled_leaf_has_no_view(self):
        pipeline = VerificationPipeline(_composed_env())
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        leaf = prepared.term.left
        assert isinstance(leaf, CompiledProcess)
        assert ProductLTS.for_term(leaf, pipeline.table, 10_000) is None

    def test_degraded_leaf_has_no_view(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        # splice a raw SOS term in place of a compiled leaf
        degraded = GenParallel(
            prepared.term.left, prefix(A, Stop()), Alphabet([A, B])
        )
        assert ProductLTS.for_term(degraded, pipeline.table, 10_000) is None


class TestLazyParity:
    def test_exploration_is_state_for_state_identical(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)
        assert view.state_count == lazy.state_count

    def test_terms_behind_states_match(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        lazy = pipeline.lazy(prepared.term)
        _explore_all(view), _explore_all(lazy)
        for state in range(view.state_count):
            assert repr(view.term_of(state)) == repr(lazy.term_of(state))

    def test_hiding_and_renaming_on_the_spine(self):
        env = _composed_env()
        env.bind(
            "WRAPPED",
            Renaming(Hiding(ref("SYS"), Alphabet([B])), {A: C}),
        )
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("WRAPPED"))
        assert isinstance(view, ProductLTS)
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)

    def test_interleave_on_the_spine(self):
        env = Environment()
        env.bind("L", prefix(A, prefix(B, Stop())))
        env.bind("R", prefix(C, prefix(D, Stop())))
        env.bind("SYS", Interleave(ref("L"), ref("R")))
        pipeline = VerificationPipeline(env)
        prepared, view = _product_for(pipeline, ref("SYS"))
        assert isinstance(view, ProductLTS)
        lazy = pipeline.lazy(prepared.term)
        assert _explore_all(view) == _explore_all(lazy)

    def test_max_states_budget_trips_identically(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        view = pipeline.plan.product_view(prepared, 1)
        lazy = pipeline.lazy(prepared.term, 1)
        with pytest.raises(StateSpaceLimitExceeded):
            _explore_all(view)
        with pytest.raises(StateSpaceLimitExceeded):
            _explore_all(lazy)

    def test_pipeline_verdicts_match_the_sos_paths(self):
        flawed = Environment()
        flawed.bind("P", prefix(A, prefix(B, ref("P"))))
        flawed.bind("Q", prefix(A, prefix(C, prefix(B, ref("Q")))))
        flawed.bind(
            "SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B]))
        )
        for model in ("T", "F"):
            product_run = VerificationPipeline(flawed).refinement(
                ref("P"), ref("SYS"), model
            )
            lazy_run = VerificationPipeline(flawed, passes="none").refinement(
                ref("P"), ref("SYS"), model
            )
            reference = VerificationPipeline(flawed)
            check = (
                check_trace_refinement_from
                if model == "T"
                else check_failures_refinement_from
            )
            eager_run = check(
                reference.normalised(ref("P")), reference.compile(ref("SYS"))
            )
            assert product_run.passed == lazy_run.passed == eager_run.passed
            if not product_run.passed:
                assert [str(e) for e in product_run.counterexample.trace] == [
                    str(e) for e in lazy_run.counterexample.trace
                ]
                assert (
                    product_run.counterexample.describe()
                    == eager_run.counterexample.describe()
                )

