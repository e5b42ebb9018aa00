"""Abstract syntax tree for CAPL programs.

A CAPL program (paper Sec. IV-B1) comprises four kinds of code block:
optional *includes* and *variables* sections, and one or more *event
procedures* or user-defined *functions*.  The AST mirrors that structure:
:class:`Program` holds the blocks; statements and expressions are the usual
C forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union


class Node:
    """Base class for all CAPL AST nodes."""


class Stmt(Node):
    """Base class for statements."""


class Expr(Node):
    """Base class for expressions."""


# -- expressions ---------------------------------------------------------------


@dataclass(frozen=True)
class Identifier(Expr):
    name: str


@dataclass(frozen=True)
class IntLiteral(Expr):
    value: int


@dataclass(frozen=True)
class FloatLiteral(Expr):
    value: float


@dataclass(frozen=True)
class StringLiteral(Expr):
    value: str


@dataclass(frozen=True)
class CharLiteral(Expr):
    value: str


@dataclass(frozen=True)
class ThisExpr(Expr):
    """``this`` -- the message that triggered the current event procedure."""


@dataclass(frozen=True)
class MemberAccess(Expr):
    """``msg.field`` -- a signal/attribute of a message object."""

    obj: Expr
    member: str


@dataclass(frozen=True)
class IndexExpr(Expr):
    """``buffer[i]``."""

    obj: Expr
    index: Expr


@dataclass(frozen=True)
class CallExpr(Expr):
    """``output(msg)``, ``setTimer(t, 100)``, ``msg.byte(0)`` and friends."""

    function: Expr
    args: Tuple[Expr, ...]


@dataclass(frozen=True)
class UnaryExpr(Expr):
    op: str  # '-', '!', '~', '++', '--' (prefix)
    operand: Expr


@dataclass(frozen=True)
class PostfixExpr(Expr):
    op: str  # '++' or '--'
    operand: Expr


@dataclass(frozen=True)
class BinaryExpr(Expr):
    op: str
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ConditionalExpr(Expr):
    """C's ternary ``cond ? a : b``."""

    condition: Expr
    then_value: Expr
    else_value: Expr


@dataclass(frozen=True)
class AssignExpr(Expr):
    """``target = value`` and the compound forms (+=, -=, ...)."""

    op: str  # '=', '+=', ...
    target: Expr
    value: Expr


# -- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class ExprStmt(Stmt):
    expr: Expr


@dataclass(frozen=True)
class VarDecl(Stmt):
    """A variable declaration, possibly with dimensions and an initialiser."""

    type_name: str
    name: str
    array_sizes: Tuple[int, ...] = ()
    initializer: Optional[Expr] = None
    #: for ``message <name-or-id> var`` declarations: the message type
    message_type: Optional[Union[str, int]] = None


@dataclass(frozen=True)
class Block(Stmt):
    statements: Tuple[Stmt, ...]


@dataclass(frozen=True)
class IfStmt(Stmt):
    condition: Expr
    then_branch: Stmt
    else_branch: Optional[Stmt] = None


@dataclass(frozen=True)
class WhileStmt(Stmt):
    condition: Expr
    body: Stmt


@dataclass(frozen=True)
class DoWhileStmt(Stmt):
    body: Stmt
    condition: Expr


@dataclass(frozen=True)
class ForStmt(Stmt):
    init: Optional[Stmt]
    condition: Optional[Expr]
    update: Optional[Expr]
    body: Stmt


@dataclass(frozen=True)
class SwitchCase(Node):
    """One ``case value:`` (value None for ``default:``) with its statements."""

    value: Optional[Expr]
    statements: Tuple[Stmt, ...]


@dataclass(frozen=True)
class SwitchStmt(Stmt):
    subject: Expr
    cases: Tuple[SwitchCase, ...]


@dataclass(frozen=True)
class ReturnStmt(Stmt):
    value: Optional[Expr] = None


@dataclass(frozen=True)
class BreakStmt(Stmt):
    pass


@dataclass(frozen=True)
class ContinueStmt(Stmt):
    pass


# -- top-level blocks -----------------------------------------------------------


@dataclass(frozen=True)
class IncludeDirective(Node):
    path: str


@dataclass(frozen=True)
class Parameter(Node):
    type_name: str
    name: str


@dataclass(frozen=True)
class FunctionDef(Node):
    """A user-defined CAPL function."""

    return_type: str
    name: str
    params: Tuple[Parameter, ...]
    body: Block


@dataclass(frozen=True)
class EventProcedure(Node):
    """An ``on <event>`` procedure.

    *kind* is one of ``start``, ``preStart``, ``stopMeasurement``,
    ``message``, ``timer``, ``key``, ``errorFrame``, ``busOff``.
    *selector* is the message name/id, timer name, or key character.
    ``on message *`` uses the selector ``"*"``.
    """

    kind: str
    selector: Optional[Union[str, int]]
    body: Block


@dataclass(frozen=True)
class Program(Node):
    """A complete CAPL source file.

    Immutable like every other node, so one parse can be shared by any
    number of interpreter instances: all run state lives on the
    :class:`~repro.capl.interpreter.CaplNode`, never on the tree.
    """

    includes: Tuple[IncludeDirective, ...] = ()
    variables: Tuple[VarDecl, ...] = ()
    functions: Tuple[FunctionDef, ...] = ()
    event_procedures: Tuple[EventProcedure, ...] = ()

    def message_handlers(self) -> List[EventProcedure]:
        return [p for p in self.event_procedures if p.kind == "message"]

    def timer_handlers(self) -> List[EventProcedure]:
        return [p for p in self.event_procedures if p.kind == "timer"]

    def start_handlers(self) -> List[EventProcedure]:
        return [p for p in self.event_procedures if p.kind in ("start", "preStart")]

    def handler_for_message(self, name: Union[str, int]) -> Optional[EventProcedure]:
        """The most specific handler for a message: exact match, else ``*``."""
        wildcard = None
        for procedure in self.message_handlers():
            if procedure.selector == name:
                return procedure
            if procedure.selector == "*":
                wildcard = procedure
        return wildcard

    def message_declarations(self) -> List[VarDecl]:
        return [v for v in self.variables if v.message_type is not None]

    def timer_declarations(self) -> List[VarDecl]:
        return [v for v in self.variables if v.type_name in ("msTimer", "sTimer")]
