"""Unit tests for the CSPm emitter and script builder."""

from repro.csp.events import Alphabet, Channel, event
from repro.csp.process import (
    Environment,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Prefix,
    ProcessRef,
    Renaming,
    SKIP,
    STOP,
    SeqComp,
)
from repro.cspm.emitter import (
    ScriptBuilder,
    emit_alphabet,
    emit_event,
    emit_process,
    emit_value,
    environment_to_script,
)
from repro.cspm.evaluator import load

A, B = event("a"), event("b")


class TestEmitBasics:
    def test_emit_value(self):
        assert emit_value(3) == "3"
        assert emit_value(True) == "true"
        assert emit_value("reqSw") == "reqSw"

    def test_emit_event(self):
        assert emit_event(event("send", "reqSw")) == "send.reqSw"
        assert emit_event(event("tock")) == "tock"
        assert emit_event(event("c", 1, "x")) == "c.1.x"

    def test_emit_alphabet_plain(self):
        assert emit_alphabet(Alphabet.of(A, B)) == "{a, b}"

    def test_emit_alphabet_compresses_channels(self):
        send = Channel("send", ["x", "y"])
        alphabet = send.alphabet()
        assert emit_alphabet(alphabet, {"send": send}) == "{| send |}"

    def test_emit_alphabet_mixed(self):
        send = Channel("send", ["x"])
        alphabet = send.alphabet() | Alphabet.of(A)
        text = emit_alphabet(alphabet, {"send": send})
        assert "union" in text and "send" in text and "a" in text


class TestEmitProcess:
    def test_table1_forms(self):
        """Each Table I operator emits its CSPm notation."""
        assert emit_process(STOP) == "STOP"
        assert emit_process(SKIP) == "SKIP"
        assert emit_process(Prefix(A, STOP)) == "a -> STOP"
        assert emit_process(SeqComp(SKIP, STOP)) == "SKIP ; STOP"
        assert emit_process(ExternalChoice(STOP, SKIP)) == "STOP [] SKIP"
        assert emit_process(InternalChoice(STOP, SKIP)) == "STOP |~| SKIP"
        assert emit_process(Interleave(STOP, SKIP)) == "STOP ||| SKIP"
        text = emit_process(GenParallel(STOP, SKIP, Alphabet.of(A)))
        assert text == "STOP [| {a} |] SKIP"

    def test_prefix_chain_unparenthesised(self):
        process = Prefix(A, Prefix(B, STOP))
        assert emit_process(process) == "a -> b -> STOP"

    def test_precedence_parentheses(self):
        # choice under prefix must be wrapped
        process = Prefix(A, ExternalChoice(STOP, SKIP))
        assert emit_process(process) == "a -> (STOP [] SKIP)"

    def test_hiding(self):
        process = Hiding(Prefix(A, STOP), Alphabet.of(A))
        assert emit_process(process) == "a -> STOP \\ {a}"

    def test_renaming(self):
        process = Renaming(STOP, {A: B})
        assert emit_process(process) == "STOP[[a <- b]]"

    def test_reference(self):
        assert emit_process(ProcessRef("SP02")) == "SP02"


class TestRoundTrip:
    def test_emitted_process_reparses_equal(self):
        send = Channel("send", ["reqSw", "rptSw"])
        process = Prefix(send("reqSw"), Prefix(send("rptSw"), STOP))
        script = (
            "datatype msgs = reqSw | rptSw\n"
            "channel send : msgs\n"
            "P = " + emit_process(process)
        )
        model = load(script)
        assert model.env.resolve("P") == process


class TestScriptBuilder:
    def test_full_script_assembles_and_loads(self):
        builder = ScriptBuilder("generated for test")
        builder.datatype("msgs", ["reqSw", "rptSw"])
        builder.channel(["send", "rec"], ["msgs"])
        builder.define_raw("SP02", "send!reqSw -> rec!rptSw -> SP02")
        builder.assert_refinement("SP02", "SP02")
        text = builder.render()
        assert text.startswith("-- generated for test")
        model = load(text)
        (result,) = model.check_assertions()
        assert result.passed

    def test_nametype_rendered(self):
        builder = ScriptBuilder()
        builder.nametype("Small", "{0..3}")
        assert "nametype Small = {0..3}" in builder.render()

    def test_define_uses_channel_registry(self):
        send = Channel("send", ["x"])
        builder = ScriptBuilder()
        builder.register_channel(send)
        builder.define("P", Hiding(STOP, send.alphabet()))
        assert "{| send |}" in builder.render()

    def test_comment_before_definition(self):
        builder = ScriptBuilder()
        builder.define_raw("P", "STOP")
        builder.comment_before_definition(0, "the deadlocked process")
        assert "-- the deadlocked process" in builder.render()

    def test_assert_property_line(self):
        builder = ScriptBuilder()
        builder.assert_property("P", "deadlock free")
        assert "assert P :[deadlock free]" in builder.render()


class TestEnvironmentToScript:
    def test_environment_dump_reloads(self):
        send = Channel("send", ["reqSw", "rptSw"])
        rec = Channel("rec", ["reqSw", "rptSw"])
        env = Environment()
        env.bind("SP02", Prefix(send("reqSw"), Prefix(rec("rptSw"), ProcessRef("SP02"))))
        text = environment_to_script(
            env,
            [send, rec],
            datatypes={"msgs": ["reqSw", "rptSw"]},
            header="round trip",
            assertions=["assert SP02 [T= SP02"],
        )
        model = load(text)
        assert model.env.resolve("SP02") == env.resolve("SP02")
        (result,) = model.check_assertions()
        assert result.passed
