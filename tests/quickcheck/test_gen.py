"""The generators: seeded determinism, diversity, and structural validity."""

import random

from repro.csp.events import Alphabet, event
from repro.csp.process import Hiding, Interrupt, Process
from repro.quickcheck.gen import (
    CAPL_REQUESTS,
    CaplProgram,
    DEFAULT_EVENTS,
    Gen,
    capl_cases,
    capl_programs,
    frequency,
    integers,
    lists,
    one_of,
    process_terms,
    sampled_from,
    stimuli_for,
    sub_alphabets,
    subsets,
    tuples,
)


def draws(gen, seed, count=50):
    rng = random.Random(seed)
    return [gen(rng) for _ in range(count)]


def contains_operator(term, cls):
    if isinstance(term, cls):
        return True
    from repro.quickcheck.shrink import process_children

    return any(contains_operator(child, cls) for child in process_children(term))


# -- determinism ---------------------------------------------------------------------


def test_same_seed_reproduces_process_terms():
    assert draws(process_terms(), 1234) == draws(process_terms(), 1234)


def test_same_seed_reproduces_capl_cases():
    assert draws(capl_cases(), 1234) == draws(capl_cases(), 1234)


def test_different_seeds_diverge():
    assert draws(process_terms(), 1) != draws(process_terms(), 2)


# -- diversity -----------------------------------------------------------------------


def test_process_terms_are_diverse():
    seen = {repr(p) for p in draws(process_terms(), 99, count=200)}
    assert len(seen) > 50


def test_process_terms_reach_every_operator():
    from repro.csp.process import (
        ExternalChoice,
        GenParallel,
        Interleave,
        InternalChoice,
        Prefix,
        SeqComp,
    )

    terms = draws(process_terms(max_depth=4), 7, count=300)
    for cls in (
        Prefix,
        ExternalChoice,
        InternalChoice,
        SeqComp,
        Interleave,
        Interrupt,
        GenParallel,
        Hiding,
    ):
        assert any(contains_operator(t, cls) for t in terms), cls.__name__


def test_operator_toggles_exclude_interrupt_and_hiding():
    for term in draws(process_terms(with_interrupt=False), 5, count=200):
        assert not contains_operator(term, Interrupt)
    for term in draws(process_terms(with_hiding=False), 5, count=200):
        assert not contains_operator(term, Hiding)


# -- structural validity -------------------------------------------------------------


def test_sub_alphabets_draw_from_the_pool():
    for alphabet in draws(sub_alphabets(), 3, count=100):
        assert isinstance(alphabet, Alphabet)
        assert set(alphabet) <= set(DEFAULT_EVENTS)


def test_capl_programs_have_valid_handlers():
    for program in draws(capl_programs(), 11, count=100):
        assert isinstance(program, CaplProgram)
        assert program.handlers  # never empty
        assert set(program.handled()) <= set(CAPL_REQUESTS)
        assert len(set(program.handled())) == len(program.handled())
        source = program.render()
        assert source.startswith("variables {")
        for selector in program.handled():
            assert "on message {} {{".format(selector) in source


def test_capl_cases_stimuli_target_declared_handlers():
    for program, stimuli in draws(capl_cases(), 21, count=100):
        assert isinstance(stimuli, list)  # lists shrink by dropping elements
        assert stimuli  # min_size=1
        assert set(stimuli) <= set(program.handled())


def test_capl_statement_trees_render_without_error():
    # deep nesting must stay bounded and every tag renderable
    for program in draws(capl_programs(max_statements=6), 31, count=100):
        text = program.render()
        assert text.count("{") == text.count("}")


# -- generic combinators -------------------------------------------------------------


def test_integers_stay_in_bounds():
    assert all(2 <= n <= 5 for n in draws(integers(2, 5), 1, count=100))


def test_sampled_from_covers_the_options():
    assert set(draws(sampled_from("xyz"), 1, count=100)) == {"x", "y", "z"}


def test_lists_respect_size_bounds():
    for value in draws(lists(integers(0, 9), 1, 3), 1, count=100):
        assert 1 <= len(value) <= 3


def test_tuples_fix_the_arity():
    for value in draws(tuples(integers(0, 1), sampled_from("ab")), 1, count=50):
        assert len(value) == 2 and value[0] in (0, 1) and value[1] in "ab"


def test_subsets_preserve_order():
    options = [3, 1, 4, 5, 9]
    for value in draws(subsets(options), 1, count=50):
        positions = [options.index(v) for v in value]
        assert positions == sorted(positions)


def test_one_of_and_frequency_pick_among_generators():
    gen = one_of(Gen.constant("left"), Gen.constant("right"))
    assert set(draws(gen, 1, count=100)) == {"left", "right"}
    skewed = frequency([(99, Gen.constant("likely")), (1, Gen.constant("rare"))])
    values = draws(skewed, 1, count=200)
    assert values.count("likely") > values.count("rare")


def test_map_and_bind_compose():
    doubled = integers(1, 3).map(lambda n: n * 2)
    assert set(draws(doubled, 1, count=100)) == {2, 4, 6}
    dependent = integers(1, 3).bind(lambda n: Gen.constant(("n", n)))
    assert all(v[0] == "n" and 1 <= v[1] <= 3 for v in draws(dependent, 1, count=50))


def test_stimuli_for_only_uses_the_programs_handlers():
    program = CaplProgram([("reqB", (("noop",),))])
    for stimuli in draws(stimuli_for(program), 1, count=50):
        assert set(stimuli) == {"reqB"}


def test_process_terms_produce_processes():
    assert all(isinstance(p, Process) for p in draws(process_terms(), 17, count=100))
