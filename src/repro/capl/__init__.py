"""CAPL -- Vector's C-based, event-driven ECU programming language (Sec. IV-B1).

A hand-written lexer and recursive-descent parser produce the
:class:`Program` AST (includes / variables / event procedures / functions);
:class:`CaplNode` interprets a program on the simulated CAN bus so the same
source that the model extractor translates can also be executed.
"""
