"""The compilation plan: decomposition, caching, gating, degradation."""

from repro.csp.events import Alphabet, event
from repro.csp.process import (
    CompiledProcess,
    Environment,
    GenParallel,
    Hiding,
    Prefix,
    STOP,
    prefix,
    ref,
)
from repro.engine.cache import CompilationCache
from repro.engine.pipeline import VerificationPipeline

A, B = event("a"), event("b")


def _composed_env():
    env = Environment()
    env.bind("P", prefix(A, prefix(B, ref("P"))))
    env.bind("Q", prefix(A, prefix(B, ref("Q"))))
    env.bind("SYS", GenParallel(ref("P"), ref("Q"), Alphabet([A, B])))
    return env


class TestPrepare:
    def test_non_composed_terms_pass_through_untouched(self):
        env = Environment()
        env.bind("P", prefix(A, ref("P")))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("P"), "T")
        assert not prepared.compressed
        assert prepared.term is ref("P")
        assert prepared.pass_stats == ()

    def test_composition_gets_compiled_leaves(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        assert prepared.compressed
        assert isinstance(prepared.term, GenParallel)
        assert isinstance(prepared.term.left, CompiledProcess)
        assert isinstance(prepared.term.right, CompiledProcess)
        assert len(prepared.components) == 2
        assert {c.label for c in prepared.components} == {"P", "Q"}

    def test_prepared_term_checks_like_the_original(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        result = pipeline.refinement(ref("P"), ref("SYS"), "T")
        baseline = VerificationPipeline(
            _composed_env(), passes="none"
        ).refinement(ref("P"), ref("SYS"), "T")
        assert result.passed == baseline.passed

    def test_no_passes_means_no_plan_rewriting(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env, passes="none")
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        assert not prepared.compressed
        assert prepared.term is ref("SYS")


class TestModelGating:
    def test_trace_only_pass_skipped_outside_t(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env, passes="normal")
        assert pipeline.plan.prepare(ref("SYS"), "T").compressed
        assert not pipeline.plan.prepare(ref("SYS"), "F").compressed
        assert not pipeline.plan.prepare(ref("SYS"), "FD").compressed

    def test_default_passes_apply_in_every_model(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env)
        for model in ("T", "F", "FD"):
            assert pipeline.plan.prepare(ref("SYS"), model).compressed


class TestCaching:
    def test_components_cached_per_pass_config(self):
        cache = CompilationCache()
        pipeline = VerificationPipeline(_composed_env(), cache=cache)
        pipeline.plan.prepare(ref("SYS"), "T")
        misses = cache.compressed_misses
        assert misses == 2
        pipeline.plan.prepare(ref("SYS"), "T")
        assert cache.compressed_misses == misses
        assert cache.compressed_hits == 2

    def test_cache_shared_across_pipelines(self):
        cache = CompilationCache()
        VerificationPipeline(_composed_env(), cache=cache).plan.prepare(
            ref("SYS"), "T"
        )
        VerificationPipeline(_composed_env(), cache=cache).plan.prepare(
            ref("SYS"), "T"
        )
        assert cache.compressed_hits == 2

    def test_equal_components_share_one_automaton(self):
        # P and a structurally identical sibling intern to one cache entry
        env = Environment()
        env.bind("P", prefix(A, ref("P")))
        system = GenParallel(ref("P"), ref("P"), Alphabet([A]))
        cache = CompilationCache()
        pipeline = VerificationPipeline(env, cache=cache)
        prepared = pipeline.plan.prepare(system, "T")
        assert cache.compressed_misses == 1
        tokens = {c.token for c in prepared.components}
        assert len(tokens) == 1


class TestDegradation:
    def test_unbound_component_stays_an_sos_leaf(self):
        env = Environment()
        term = GenParallel(ref("MISSING"), Prefix(A, STOP), Alphabet([A]))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(term, "T")
        # the unbound side could not compile in isolation and stays an SOS
        # leaf; the compilable sibling still compresses
        assert prepared.term.left is ref("MISSING")
        assert isinstance(prepared.term.right, CompiledProcess)

    def test_component_over_budget_degrades(self):
        env = _composed_env()
        pipeline = VerificationPipeline(env, max_states=1)
        prepared = pipeline.plan.prepare(ref("SYS"), "T")
        assert not prepared.compressed

    def test_hiding_spine_decomposes(self):
        env = Environment()
        env.bind("P", prefix(A, prefix(B, ref("P"))))
        term = Hiding(ref("P"), Alphabet([A]))
        pipeline = VerificationPipeline(env)
        prepared = pipeline.plan.prepare(term, "T")
        assert prepared.compressed
        assert isinstance(prepared.term, Hiding)
        assert isinstance(prepared.term.process, CompiledProcess)
