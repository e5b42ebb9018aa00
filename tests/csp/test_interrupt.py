"""Tests for the interrupt operator ``P /\\ Q`` (attacker-takeover modelling)."""

import pytest

from repro.csp.events import TICK, event
from repro.csp.lts import compile_lts, reachable_visible_traces
from repro.csp.process import Environment, Interrupt, Prefix, SKIP, STOP, ref, sequence
from repro.csp.semantics import transitions
from repro.csp.traces import denotational_traces
from repro.cspm import ast_nodes as cspm_ast
from repro.cspm.emitter import emit_process
from repro.cspm.evaluator import load
from repro.cspm.parser import parse_expression

A, B, C = event("a"), event("b"), event("c")


class TestSemantics:
    def test_primary_runs_with_handler_pending(self):
        process = Interrupt(sequence(A, B), Prefix(C, STOP))
        lts = compile_lts(process)
        assert lts.walk([A, B]) is not None

    def test_handler_can_take_over_any_time(self):
        process = Interrupt(sequence(A, B), Prefix(C, STOP))
        lts = compile_lts(process)
        assert lts.walk([C]) is not None
        assert lts.walk([A, C]) is not None
        assert lts.walk([A, B, C]) is not None

    def test_takeover_is_final(self):
        process = Interrupt(sequence(A, B), Prefix(C, STOP))
        lts = compile_lts(process)
        # after the interrupt fires, the primary is gone
        assert lts.walk([C, A]) is None

    def test_primary_termination_ends_interrupt(self):
        process = Interrupt(Prefix(A, SKIP), Prefix(C, STOP))
        lts = compile_lts(process)
        assert lts.walk([A, TICK]) is not None
        assert lts.walk([A, TICK, C]) is None

    def test_traces_agree_with_denotational(self):
        for process in (
            Interrupt(sequence(A, B), Prefix(C, STOP)),
            Interrupt(SKIP, Prefix(C, STOP)),
            Interrupt(STOP, Prefix(C, SKIP)),
            Interrupt(Interrupt(Prefix(A, STOP), Prefix(B, STOP)), Prefix(C, STOP)),
        ):
            lts = compile_lts(process)
            assert reachable_visible_traces(lts, 4) == denotational_traces(
                process, None, 4
            )

    def test_denotational_definition(self):
        # traces(P /\ Q) = traces(P) u {s^t | s in traces(P) unterminated}
        process = Interrupt(Prefix(A, STOP), Prefix(B, STOP))
        assert denotational_traces(process, None, 3) == {
            (),
            (A,),
            (B,),
            (A, B),
        }

    def test_immutability_and_equality(self):
        interrupt = Interrupt(STOP, SKIP)
        with pytest.raises(AttributeError):
            interrupt.primary = SKIP
        assert Interrupt(STOP, SKIP) == Interrupt(STOP, SKIP)
        assert Interrupt(STOP, SKIP) != Interrupt(SKIP, STOP)


class TestCspmIntegration:
    def test_parse_interrupt(self):
        expr = parse_expression("P /\\ Q")
        assert isinstance(expr, cspm_ast.InterruptExpr)

    def test_precedence_tighter_than_seq(self):
        expr = parse_expression("P /\\ Q ; R")
        assert isinstance(expr, cspm_ast.SeqExpr)
        assert isinstance(expr.first, cspm_ast.InterruptExpr)

    def test_evaluate_and_emit_roundtrip(self):
        header = "datatype m = a | b | c\nchannel ch : m\n"
        model = load(header + "P = ch!a -> STOP /\\ ch!c -> STOP")
        process = model.env.resolve("P")
        assert isinstance(process, Interrupt)
        again = load(header + "P = " + emit_process(process))
        assert denotational_traces(again.env.resolve("P"), again.env, 3) == (
            denotational_traces(process, model.env, 3)
        )


class TestAttackTakeoverScenario:
    def test_attacker_interrupt_breaks_integrity(self):
        """The interrupt operator as an attacker model: a bus-off attack
        that silences the ECU mid-session."""
        from repro import api
        from repro.security.properties import request_response

        env = Environment()
        req, rsp, kill = event("req"), event("rsp"), event("busoff")
        env.bind("ECU", Prefix(req, Prefix(rsp, ref("ECU"))))
        attacked = Interrupt(ref("ECU"), Prefix(kill, STOP))
        env.bind("ATTACKED", attacked)
        # once busoff fires, the ECU deadlocks: availability is lost
        assert api.check_deadlock(ref("ECU"), env=env).passed
        assert not api.check_deadlock(ref("ATTACKED"), env=env).passed
        # the integrity spec over {req,rsp,busoff} also fails: the response
        # may never come after busoff interrupts mid-exchange
        spec = request_response(req, rsp, env, "RR")
        result = api.check_refinement(spec, ref("ATTACKED"), "T", env=env)
        assert not result.passed
