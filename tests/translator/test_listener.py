"""Unit tests for the ANTLR-style listener walk."""

from repro.capl import ast_nodes as ast
from repro.capl.parser import parse
from repro.translator.listener import CaplListener, walk

SOURCE = """
includes
{
  #include "util.cin"
}

variables
{
  message reqSw m;
  msTimer t;
  int counter = helperValue();
}

int helperValue() { return 5; }

void helper(int x)
{
  int local = 0;
  if (x > 0) { local = x; } else { local = -x; }
  while (local > 0) { local--; }
  do { counter++; } while (counter < 2);
  for (local = 0; local < 3; local++) { noopCall(); }
  switch (x) { case 1: counter = 1; break; default: counter = 0; }
  return;
}

on start { helper(1); }

on message reqSw { output(m); }
"""


class RecordingListener(CaplListener):
    def __init__(self):
        self.events = []

    def enter_program(self, node):
        self.events.append("program")

    def enter_include(self, node):
        self.events.append(("include", node.path))

    def enter_variable(self, node):
        self.events.append(("var", node.name))

    def enter_function(self, node):
        self.events.append(("function", node.name))

    def exit_function(self, node):
        self.events.append(("exit_function", node.name))

    def enter_event_procedure(self, node):
        self.events.append(("on", node.kind))

    def enter_if(self, node):
        self.events.append("if")

    def enter_while(self, node):
        self.events.append("while")

    def enter_do_while(self, node):
        self.events.append("do_while")

    def enter_for(self, node):
        self.events.append("for")

    def enter_switch(self, node):
        self.events.append("switch")

    def enter_return(self, node):
        self.events.append("return")

    def enter_call(self, node):
        if isinstance(node.function, ast.Identifier):
            self.events.append(("call", node.function.name))


class TestWalk:
    def walk_source(self):
        listener = RecordingListener()
        walk(listener, parse(SOURCE))
        return listener.events

    def test_program_structure_order(self):
        events = self.walk_source()
        assert events[0] == "program"
        assert ("include", "util.cin") in events
        # variables come before functions, functions before handlers
        assert events.index(("var", "m")) < events.index(("function", "helperValue"))
        assert events.index(("exit_function", "helper")) < events.index(("on", "start"))

    def test_all_statement_kinds_visited(self):
        events = self.walk_source()
        for marker in ("if", "while", "do_while", "for", "switch", "return"):
            assert marker in events, marker

    def test_calls_found_in_nested_positions(self):
        events = self.walk_source()
        assert ("call", "helperValue") in events  # inside a variable initialiser
        assert ("call", "noopCall") in events  # inside a for body
        assert ("call", "output") in events  # inside a handler

    def test_enter_exit_pairing(self):
        events = self.walk_source()
        assert events.count(("function", "helper")) == 1
        assert events.count(("exit_function", "helper")) == 1

    def test_default_listener_is_silent(self):
        # the skeletal listener must accept every node without overriding
        walk(CaplListener(), parse(SOURCE))

    def test_unknown_node_rejected(self):
        import pytest

        with pytest.raises(TypeError):
            walk(CaplListener(), object())
