"""Property-based soundness of the model extractor.

The Fig. 1 workflow is only meaningful if the extracted CSP model
*over-approximates* the program: every behaviour the CAPL program can show
on the bus must be a trace of its model (otherwise the checker could pass a
property the real ECU violates).  Random reactive programs and stimulus
sequences come from the shared :mod:`repro.quickcheck` generators -- the
same ones the ``cspfuzz`` extractor oracle fuzzes with -- and the observed
exchange must be admitted by the extracted model.  Failures print the
session seed and a shrunk program (replay via ``REPRO_SEED``).
"""

from repro.quickcheck.gen import capl_cases, capl_programs
from repro.quickcheck.oracles import check_extractor, simulate_capl
from repro.quickcheck.testing import for_all
from repro.translator.extractor import ModelExtractor


def test_simulated_behaviour_is_admitted_by_extracted_model(repro_seed):
    """Delegates to the cspfuzz extractor oracle: interpreter-replay vs model."""
    for_all(
        capl_cases(),
        check_extractor,
        seed=repro_seed,
        name="extraction-soundness",
        cases=60,
    )


def test_extracted_scripts_always_load_and_are_deadlock_free(repro_seed):
    """Extraction of arbitrary reactive programs yields loadable, live models."""
    from repro import api

    def check(program):
        result = ModelExtractor().extract(program.render(), "ECU")
        model = result.load()
        outcome = api.check_deadlock(model.process("ECU"), env=model.env, max_states=100_000)
        assert outcome.passed

    for_all(capl_programs(), check, seed=repro_seed, name="extraction-live", cases=40)


def test_simulate_capl_observes_handler_responses(repro_seed):
    """The replay harness itself sees both the stimulus and the responses."""

    def check(case):
        program, stimuli = case
        trace = simulate_capl(program.render(), stimuli)
        sends = [e for e in trace if e.channel == "send"]
        assert [e.fields[0] for e in sends] == list(stimuli)

    for_all(capl_cases(), check, seed=repro_seed, name="replay-harness", cases=20)
