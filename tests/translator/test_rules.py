"""Unit tests for behaviour summarisation and rendering rules."""

import pytest

from repro.capl.parser import parse
from repro.translator.rules import (
    Act,
    BehaviourBuilder,
    CancelTimer,
    ChannelConvention,
    Choice,
    Empty,
    Loop,
    Output,
    ProcessRenderer,
    Seq,
    SetTimer,
    TranslationError,
    selector_process_name,
)


def behaviour_of(body, variables="message rptSw m; message rptUpd u;", functions=""):
    source = "variables { " + variables + " }\n" + functions + "\nvoid f() { " + body + " }"
    program = parse(source)
    builder = BehaviourBuilder(
        {v.name: v.message_type for v in program.message_declarations()},
        {fn.name: fn for fn in program.functions},
        {"rptSw", "rptUpd"},
    )
    return builder.of_block(program.functions[-1].body)


class TestSummarisation:
    def test_output_becomes_action(self):
        behaviour = behaviour_of("output(m);")
        assert behaviour.actions() == [Output("rptSw")]

    def test_sequence_preserved(self):
        behaviour = behaviour_of("output(m); output(u);")
        assert behaviour.actions() == [Output("rptSw"), Output("rptUpd")]

    def test_non_communication_is_empty(self):
        behaviour = behaviour_of("int x; x = 1 + 2;")
        assert behaviour.is_empty()

    def test_if_becomes_choice(self):
        behaviour = behaviour_of("if (1) { output(m); } else { output(u); }")
        assert isinstance(behaviour, Seq)
        (choice,) = behaviour.items
        assert isinstance(choice, Choice)
        assert len(choice.branches) == 2

    def test_if_without_else_has_empty_branch(self):
        behaviour = behaviour_of("if (1) { output(m); }")
        (choice,) = behaviour.items
        assert any(branch.is_empty() for branch in choice.branches)

    def test_if_with_no_actions_collapses(self):
        behaviour = behaviour_of("if (1) { int x; } else { int y; }")
        assert behaviour.is_empty()

    def test_while_becomes_loop(self):
        behaviour = behaviour_of("while (1) { output(m); }")
        (loop,) = behaviour.items
        assert isinstance(loop, Loop)

    def test_do_while_runs_body_at_least_once(self):
        behaviour = behaviour_of("do { output(m); } while (0);")
        assert isinstance(behaviour.items[0], Act)
        assert isinstance(behaviour.items[1], Loop)

    def test_switch_becomes_choice_with_implicit_default(self):
        behaviour = behaviour_of(
            "switch (1) { case 1: output(m); break; case 2: output(u); break; }"
        )
        (choice,) = behaviour.items
        # two cases plus implicit no-match
        assert len(choice.branches) == 3

    def test_switch_with_default_no_implicit_branch(self):
        behaviour = behaviour_of(
            "switch (1) { case 1: output(m); break; default: output(u); }"
        )
        (choice,) = behaviour.items
        assert len(choice.branches) == 2

    def test_timer_calls(self):
        behaviour = behaviour_of(
            "setTimer(t, 5); cancelTimer(t);", variables="msTimer t;"
        )
        assert behaviour.actions() == [SetTimer("t"), CancelTimer("t")]

    def test_function_inlined(self):
        behaviour = behaviour_of(
            "helper();",
            functions="void helper() { output(m); }",
        )
        assert behaviour.actions() == [Output("rptSw")]

    def test_recursive_function_rejected(self):
        with pytest.raises(TranslationError, match="recursive"):
            behaviour_of("loop_fn();", functions="void loop_fn() { loop_fn(); }")

    def test_unknown_message_variable_rejected(self):
        with pytest.raises(TranslationError, match="undeclared"):
            behaviour_of("output(ghost);")

    def test_direct_message_name_accepted(self):
        behaviour = behaviour_of("output(rptSw);", variables="int dummy;")
        assert behaviour.actions() == [Output("rptSw")]

    def test_local_message_declaration_visible(self):
        behaviour = behaviour_of(
            "message rptUpd localMsg; output(localMsg);", variables="int dummy;"
        )
        assert behaviour.actions() == [Output("rptUpd")]


class TestRendering:
    def render(self, behaviour, include_timers=True):
        renderer = ProcessRenderer(
            ChannelConvention("send", "rec"), include_timers=include_timers
        )
        return renderer.render(behaviour, "MAIN", "T"), renderer

    def test_empty_renders_continuation(self):
        text, _ = self.render(Empty())
        assert text == "MAIN"

    def test_action_prefix(self):
        text, _ = self.render(Act(Output("rptSw")))
        assert text == "rec!rptSw -> MAIN"

    def test_sequence_chains(self):
        text, _ = self.render(Seq([Act(Output("rptSw")), Act(Output("rptUpd"))]))
        assert text == "rec!rptSw -> rec!rptUpd -> MAIN"

    def test_choice_renders_branches(self):
        text, _ = self.render(
            Choice([Act(Output("rptSw")), Act(Output("rptUpd"))])
        )
        assert text == "(rec!rptSw -> MAIN [] rec!rptUpd -> MAIN)"

    def test_duplicate_branches_merged(self):
        text, _ = self.render(Choice([Act(Output("rptSw")), Act(Output("rptSw"))]))
        assert text == "rec!rptSw -> MAIN"

    def test_empty_choice_branch_is_continuation(self):
        text, _ = self.render(Choice([Act(Output("rptSw")), Empty()]))
        assert text == "(rec!rptSw -> MAIN [] MAIN)"

    def test_loop_generates_auxiliary_process(self):
        text, renderer = self.render(Loop(Act(Output("rptSw"))))
        assert text == "T_LOOP1"
        (name, body) = renderer.auxiliary[0]
        assert name == "T_LOOP1"
        assert body == "(MAIN [] rec!rptSw -> T_LOOP1)"

    def test_timer_events_rendered(self):
        text, _ = self.render(Act(SetTimer("t")))
        assert text == "setTimer.t -> MAIN"

    def test_timer_events_suppressed_when_disabled(self):
        text, _ = self.render(Act(SetTimer("t")), include_timers=False)
        assert text == "MAIN"


class TestNames:
    def test_selector_process_names(self):
        assert selector_process_name("message", "reqSw") == "ONMSG_REQSW"
        assert selector_process_name("message", 0x1A) == "ONMSG_ID_0X1A"
        assert selector_process_name("message", "*") == "ONMSG_ANY"
        assert selector_process_name("timer", "cycle") == "ONTIMER_CYCLE"
        assert selector_process_name("key", "a") == "ONKEY_A"

    def test_convention_swap(self):
        convention = ChannelConvention("send", "rec")
        swapped = convention.swapped()
        assert swapped.in_channel == "rec" and swapped.out_channel == "send"
