"""Tree-walking interpreter executing CAPL programs on simulated nodes.

This replaces CANoe's bundled CAPL compiler/runtime: a :class:`CaplNode`
attaches to a :class:`repro.canbus.bus.CanBus`, declares its message and timer
variables, and reacts to bus and timer events by interpreting the matching
``on message`` / ``on timer`` / ``on start`` procedures.

Having a real interpreter matters for the reproduction: the very same CAPL
source that the model extractor translates to CSPm also *runs* here, so the
test-suite can check that simulation traces are traces of the extracted CSP
model (the soundness the paper's workflow relies on).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

from ..canbus.bus import CanBus
from ..canbus.frame import CanFrame
from ..canbus.node import CanNode
from ..canbus.timers import Timer
from . import ast_nodes as ast
from .builtins import CaplRuntimeError, MessageObject, make_builtins
from .parser import parse


class MessageSpec(NamedTuple):
    """Wire facts for a named message (normally from a CANdb database)."""

    can_id: int
    dlc: int = 8


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, value: Any) -> None:
        super().__init__()
        self.value = value


#: auto-assigned identifiers for messages not found in any database start here
_AUTO_ID_BASE = 0x500

#: statement budget per event-handler activation; CAPL handlers must run to
#: completion quickly, so hitting this means a runaway loop in the program
MAX_STEPS_PER_EVENT = 1_000_000


class CaplNode(CanNode):
    """A simulated ECU whose behaviour is an interpreted CAPL program."""

    def __init__(
        self,
        name: str,
        bus: CanBus,
        program: Union[str, ast.Program],
        message_specs: Optional[Mapping[str, MessageSpec]] = None,
        database=None,
    ) -> None:
        """*database* is an optional :class:`repro.candb.model.Database`; when
        given, message wire identities come from it and ``msg.<Signal>``
        accesses go through the CANdb signal codec (scaling, value tables),
        exactly as CAPL does with a linked CANdb file (paper Sec. IV-B2).
        """
        super().__init__(name, bus)
        self.program = parse(program) if isinstance(program, str) else program
        self.database = database
        if database is not None and message_specs is None:
            message_specs = database.message_specs()
        self.message_specs: Dict[str, MessageSpec] = dict(message_specs or {})
        self.globals: Dict[str, Any] = {}
        self.console: List[str] = []
        self.rng_state = 0x1234567
        self._steps_left = MAX_STEPS_PER_EVENT
        self._builtins = make_builtins(self)
        self._functions: Dict[str, ast.FunctionDef] = {
            f.name: f for f in self.program.functions
        }
        self._next_auto_id = _AUTO_ID_BASE
        self._declare_variables()

    # -- declarations ------------------------------------------------------------

    def _declare_variables(self) -> None:
        for decl in self.program.variables:
            self.globals[decl.name] = self._make_variable(decl)

    def _make_variable(self, decl: ast.VarDecl) -> Any:
        if decl.message_type is not None:
            return self._make_message_object(decl.message_type)
        if decl.type_name in ("msTimer", "sTimer"):
            unit = 1000 if decl.type_name == "msTimer" else 1_000_000
            return self.create_timer(decl.name, unit)
        if decl.array_sizes:
            size = 1
            for dimension in decl.array_sizes:
                size *= dimension
            return [0] * size
        if decl.initializer is not None:
            return self._eval(decl.initializer, [{}], None)
        if decl.type_name in ("float", "double"):
            return 0.0
        return 0

    def _make_message_object(self, message_type: Union[str, int]) -> MessageObject:
        if isinstance(message_type, int):
            return MessageObject(None, message_type)
        if message_type == "*":
            return MessageObject(None, 0)
        spec = self.message_specs.get(message_type)
        if spec is None:
            spec = MessageSpec(self._next_auto_id)
            self._next_auto_id += 1
            self.message_specs[message_type] = spec
        return MessageObject(message_type, spec.can_id, spec.dlc)

    # -- event dispatch -----------------------------------------------------------

    def on_start(self) -> None:
        for procedure in self.program.start_handlers():
            self._run_handler(procedure, None)

    def on_message(self, frame: CanFrame) -> None:
        selector: Union[str, int] = frame.name if frame.name else frame.can_id
        handler = self.program.handler_for_message(selector)
        if handler is None and frame.name:
            handler = self.program.handler_for_message(frame.can_id)
        if handler is None:
            return
        self._run_handler(handler, MessageObject.from_frame(frame))

    def on_timer(self, timer: Timer) -> None:
        for procedure in self.program.timer_handlers():
            if procedure.selector == timer.name:
                self._run_handler(procedure, None)
                return

    def on_error_frame(self) -> None:
        for procedure in self.program.event_procedures:
            if procedure.kind == "errorFrame":
                self._run_handler(procedure, None)
                return

    def on_bus_off(self) -> None:
        for procedure in self.program.event_procedures:
            if procedure.kind == "busOff":
                self._run_handler(procedure, None)
                return

    def on_key(self, key: str) -> None:
        """Simulate a CANoe panel key press."""
        for procedure in self.program.event_procedures:
            if procedure.kind == "key" and procedure.selector == key:
                self._run_handler(procedure, None)
                return

    def _run_handler(self, procedure: ast.EventProcedure, this: Optional[MessageObject]) -> None:
        self._steps_left = MAX_STEPS_PER_EVENT
        try:
            self._exec_block(procedure.body, [{}], this)
        except _ReturnSignal:
            pass

    def call_function(self, name: str, *args: Any) -> Any:
        """Invoke a user-defined CAPL function from Python (tests, scenarios)."""
        self._steps_left = MAX_STEPS_PER_EVENT
        return self._call_user_function(name, list(args), None)

    # -- statement execution -----------------------------------------------------------

    def _budget(self) -> None:
        self._steps_left -= 1
        if self._steps_left <= 0:
            raise CaplRuntimeError(
                "statement budget exhausted in node {!r}: runaway loop?".format(self.name)
            )

    def _exec_block(
        self, block: ast.Block, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> None:
        scopes.append({})
        try:
            for statement in block.statements:
                self._exec(statement, scopes, this)
        finally:
            scopes.pop()

    def _exec(
        self, stmt: ast.Stmt, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> None:
        self._budget()
        if isinstance(stmt, ast.Block):
            self._exec_block(stmt, scopes, this)
        elif isinstance(stmt, ast.VarDecl):
            scopes[-1][stmt.name] = self._make_local_variable(stmt, scopes, this)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr, scopes, this)
        elif isinstance(stmt, ast.IfStmt):
            if self._truthy(self._eval(stmt.condition, scopes, this)):
                self._exec(stmt.then_branch, scopes, this)
            elif stmt.else_branch is not None:
                self._exec(stmt.else_branch, scopes, this)
        elif isinstance(stmt, ast.WhileStmt):
            while self._truthy(self._eval(stmt.condition, scopes, this)):
                self._budget()
                try:
                    self._exec(stmt.body, scopes, this)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    continue
        elif isinstance(stmt, ast.DoWhileStmt):
            while True:
                self._budget()
                try:
                    self._exec(stmt.body, scopes, this)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if not self._truthy(self._eval(stmt.condition, scopes, this)):
                    break
        elif isinstance(stmt, ast.ForStmt):
            scopes.append({})
            try:
                if stmt.init is not None:
                    self._exec(stmt.init, scopes, this)
                while stmt.condition is None or self._truthy(
                    self._eval(stmt.condition, scopes, this)
                ):
                    self._budget()
                    try:
                        self._exec(stmt.body, scopes, this)
                    except _BreakSignal:
                        break
                    except _ContinueSignal:
                        pass
                    if stmt.update is not None:
                        self._eval(stmt.update, scopes, this)
            finally:
                scopes.pop()
        elif isinstance(stmt, ast.SwitchStmt):
            self._exec_switch(stmt, scopes, this)
        elif isinstance(stmt, ast.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = self._eval(stmt.value, scopes, this)
            raise _ReturnSignal(value)
        elif isinstance(stmt, ast.BreakStmt):
            raise _BreakSignal()
        elif isinstance(stmt, ast.ContinueStmt):
            raise _ContinueSignal()
        else:
            raise CaplRuntimeError("unknown statement {!r}".format(type(stmt).__name__))

    def _make_local_variable(
        self, decl: ast.VarDecl, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        if decl.message_type is not None:
            return self._make_message_object(decl.message_type)
        if decl.type_name in ("msTimer", "sTimer"):
            raise CaplRuntimeError("timers must be declared in the variables block")
        if decl.array_sizes:
            size = 1
            for dimension in decl.array_sizes:
                size *= dimension
            return [0] * size
        if decl.initializer is not None:
            return self._eval(decl.initializer, scopes, this)
        return 0.0 if decl.type_name in ("float", "double") else 0

    def _exec_switch(
        self, stmt: ast.SwitchStmt, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> None:
        subject = self._eval(stmt.subject, scopes, this)
        matched = False
        try:
            for case in stmt.cases:
                if not matched:
                    if case.value is None:
                        matched = True
                    else:
                        if self._eval(case.value, scopes, this) == subject:
                            matched = True
                if matched:
                    for statement in case.statements:
                        self._exec(statement, scopes, this)
        except _BreakSignal:
            pass

    # -- expression evaluation ------------------------------------------------------------

    @staticmethod
    def _truthy(value: Any) -> bool:
        if isinstance(value, (int, float)):
            return value != 0
        return bool(value)

    def _lookup(self, name: str, scopes: List[Dict[str, Any]]) -> Any:
        for scope in reversed(scopes):
            if name in scope:
                return scope[name]
        if name in self.globals:
            return self.globals[name]
        raise CaplRuntimeError("undefined variable {!r}".format(name))

    def _store(self, name: str, value: Any, scopes: List[Dict[str, Any]]) -> None:
        for scope in reversed(scopes):
            if name in scope:
                scope[name] = value
                return
        if name in self.globals:
            self.globals[name] = value
            return
        raise CaplRuntimeError("assignment to undefined variable {!r}".format(name))

    def _eval(
        self, expr: ast.Expr, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        self._budget()
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.FloatLiteral):
            return expr.value
        if isinstance(expr, ast.StringLiteral):
            return expr.value
        if isinstance(expr, ast.CharLiteral):
            return ord(expr.value) if len(expr.value) == 1 else expr.value
        if isinstance(expr, ast.ThisExpr):
            if this is None:
                raise CaplRuntimeError("'this' used outside an 'on message' handler")
            return this
        if isinstance(expr, ast.Identifier):
            return self._lookup(expr.name, scopes)
        if isinstance(expr, ast.MemberAccess):
            return self._eval_member(expr, scopes, this)
        if isinstance(expr, ast.IndexExpr):
            array = self._eval(expr.obj, scopes, this)
            index = int(self._eval(expr.index, scopes, this))
            try:
                return array[index]
            except (IndexError, TypeError):
                raise CaplRuntimeError("bad array access")
        if isinstance(expr, ast.CallExpr):
            return self._eval_call(expr, scopes, this)
        if isinstance(expr, ast.UnaryExpr):
            return self._eval_unary(expr, scopes, this)
        if isinstance(expr, ast.PostfixExpr):
            old = self._eval(expr.operand, scopes, this)
            delta = 1 if expr.op == "++" else -1
            self._assign_to(expr.operand, old + delta, scopes, this)
            return old
        if isinstance(expr, ast.BinaryExpr):
            return self._eval_binary(expr, scopes, this)
        if isinstance(expr, ast.ConditionalExpr):
            if self._truthy(self._eval(expr.condition, scopes, this)):
                return self._eval(expr.then_value, scopes, this)
            return self._eval(expr.else_value, scopes, this)
        if isinstance(expr, ast.AssignExpr):
            return self._eval_assign(expr, scopes, this)
        raise CaplRuntimeError("unknown expression {!r}".format(type(expr).__name__))

    def _eval_member(
        self, expr: ast.MemberAccess, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        obj = self._eval(expr.obj, scopes, this)
        if isinstance(obj, MessageObject):
            if expr.member in ("id", "ID"):
                return obj.can_id
            if expr.member in ("dlc", "DLC"):
                return obj.dlc
            if expr.member == "name":
                return obj.name or ""
            decoded = self._read_signal(obj, expr.member)
            if decoded is not None:
                return decoded
            return obj.signals.get(expr.member, 0)
        if isinstance(obj, Timer):
            if expr.member == "name":
                return obj.name
            raise CaplRuntimeError("unknown timer member {!r}".format(expr.member))
        raise CaplRuntimeError(
            "member access on non-message value ({!r})".format(expr.member)
        )

    def _eval_call(
        self, expr: ast.CallExpr, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        # message byte accessor:  msg.byte(i)  /  this.byte(i)
        if isinstance(expr.function, ast.MemberAccess):
            obj = self._eval(expr.function.obj, scopes, this)
            if isinstance(obj, MessageObject) and expr.function.member == "byte":
                index = int(self._eval(expr.args[0], scopes, this))
                return obj.byte(index)
            if isinstance(obj, Timer) and expr.function.member == "timeToElapse":
                return obj.time_to_elapse()
            raise CaplRuntimeError(
                "unknown method {!r}".format(expr.function.member)
            )
        if not isinstance(expr.function, ast.Identifier):
            raise CaplRuntimeError("call of a non-function value")
        name = expr.function.name
        args = [self._eval(arg, scopes, this) for arg in expr.args]
        if name in self._functions:
            return self._call_user_function(name, args, this)
        builtin = self._builtins.get(name)
        if builtin is not None:
            return builtin(*args)
        raise CaplRuntimeError("call to undefined function {!r}".format(name))

    def _call_user_function(
        self, name: str, args: List[Any], this: Optional[MessageObject]
    ) -> Any:
        function = self._functions.get(name)
        if function is None:
            raise CaplRuntimeError("undefined function {!r}".format(name))
        if len(args) != len(function.params):
            raise CaplRuntimeError(
                "function {!r} expects {} argument(s), got {}".format(
                    name, len(function.params), len(args)
                )
            )
        frame = {param.name: value for param, value in zip(function.params, args)}
        try:
            self._exec_block(function.body, [frame], this)
        except _ReturnSignal as signal:
            return signal.value
        return 0

    def _eval_unary(
        self, expr: ast.UnaryExpr, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        if expr.op in ("++", "--"):
            old = self._eval(expr.operand, scopes, this)
            delta = 1 if expr.op == "++" else -1
            new = old + delta
            self._assign_to(expr.operand, new, scopes, this)
            return new
        value = self._eval(expr.operand, scopes, this)
        if expr.op == "-":
            return -value
        if expr.op == "!":
            return 0 if self._truthy(value) else 1
        if expr.op == "~":
            return ~int(value)
        raise CaplRuntimeError("unknown unary operator {!r}".format(expr.op))

    def _eval_binary(
        self, expr: ast.BinaryExpr, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        op = expr.op
        if op == "&&":
            left = self._eval(expr.left, scopes, this)
            if not self._truthy(left):
                return 0
            return 1 if self._truthy(self._eval(expr.right, scopes, this)) else 0
        if op == "||":
            left = self._eval(expr.left, scopes, this)
            if self._truthy(left):
                return 1
            return 1 if self._truthy(self._eval(expr.right, scopes, this)) else 0
        left = self._eval(expr.left, scopes, this)
        right = self._eval(expr.right, scopes, this)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise CaplRuntimeError("division by zero")
            if isinstance(left, int) and isinstance(right, int):
                return left // right
            return left / right
        if op == "%":
            if right == 0:
                raise CaplRuntimeError("modulo by zero")
            return left % right
        if op == "==":
            return 1 if left == right else 0
        if op == "!=":
            return 1 if left != right else 0
        if op == "<":
            return 1 if left < right else 0
        if op == ">":
            return 1 if left > right else 0
        if op == "<=":
            return 1 if left <= right else 0
        if op == ">=":
            return 1 if left >= right else 0
        if op == "&":
            return int(left) & int(right)
        if op == "|":
            return int(left) | int(right)
        if op == "^":
            return int(left) ^ int(right)
        if op == "<<":
            return int(left) << int(right)
        if op == ">>":
            return int(left) >> int(right)
        raise CaplRuntimeError("unknown binary operator {!r}".format(op))

    def _eval_assign(
        self, expr: ast.AssignExpr, scopes: List[Dict[str, Any]], this: Optional[MessageObject]
    ) -> Any:
        if expr.op == "=":
            value = self._eval(expr.value, scopes, this)
        else:
            current = self._eval(expr.target, scopes, this)
            operand = self._eval(expr.value, scopes, this)
            value = self._apply_binop(expr.op[:-1], current, operand)
        self._assign_to(expr.target, value, scopes, this)
        return value

    @staticmethod
    def _apply_binop(op: str, left: Any, right: Any) -> Any:
        table = {
            "+": lambda: left + right,
            "-": lambda: left - right,
            "*": lambda: left * right,
            "/": lambda: left // right
            if isinstance(left, int) and isinstance(right, int)
            else left / right,
            "%": lambda: left % right,
            "&": lambda: int(left) & int(right),
            "|": lambda: int(left) | int(right),
            "^": lambda: int(left) ^ int(right),
            "<<": lambda: int(left) << int(right),
            ">>": lambda: int(left) >> int(right),
        }
        action = table.get(op)
        if action is None:
            raise CaplRuntimeError("unknown compound operator {!r}=".format(op))
        return action()

    def _assign_to(
        self,
        target: ast.Expr,
        value: Any,
        scopes: List[Dict[str, Any]],
        this: Optional[MessageObject],
    ) -> None:
        if isinstance(target, ast.Identifier):
            self._store(target.name, value, scopes)
            return
        if isinstance(target, ast.IndexExpr):
            array = self._eval(target.obj, scopes, this)
            index = int(self._eval(target.index, scopes, this))
            try:
                array[index] = value
            except (IndexError, TypeError):
                raise CaplRuntimeError("bad array assignment")
            return
        if isinstance(target, ast.MemberAccess):
            obj = self._eval(target.obj, scopes, this)
            if isinstance(obj, MessageObject):
                if target.member in ("id", "ID"):
                    obj.can_id = int(value)
                elif target.member in ("dlc", "DLC"):
                    obj.dlc = int(value)
                elif not self._write_signal(obj, target.member, value):
                    obj.signals[target.member] = value
                return
            raise CaplRuntimeError("member assignment on non-message value")
        if isinstance(target, ast.CallExpr) and isinstance(target.function, ast.MemberAccess):
            # CAPL's  msg.byte(i) = value
            obj = self._eval(target.function.obj, scopes, this)
            if isinstance(obj, MessageObject) and target.function.member == "byte":
                index = int(self._eval(target.args[0], scopes, this))
                obj.set_byte(index, int(value))
                return
        raise CaplRuntimeError("invalid assignment target")

    # -- CANdb-backed signal access ------------------------------------------------

    def _signal_definition(self, message: MessageObject, signal_name: str):
        if self.database is None or not message.name:
            return None
        try:
            message_def = self.database.message_by_name(message.name)
            return message_def.signal(signal_name)
        except KeyError:
            return None

    def _read_signal(self, message: MessageObject, signal_name: str):
        """Decode a signal from the message bytes via the CANdb codec."""
        signal = self._signal_definition(message, signal_name)
        if signal is None:
            return None
        from ..candb.codec import decode_raw

        raw = decode_raw(signal, bytes(message.data))
        physical = signal.raw_to_physical(raw)
        if float(physical).is_integer():
            return int(physical)
        return physical

    def _write_signal(self, message: MessageObject, signal_name: str, value: Any) -> bool:
        """Encode a signal into the message bytes; False if not DB-backed."""
        signal = self._signal_definition(message, signal_name)
        if signal is None:
            return False
        from ..candb.codec import encode_raw

        if isinstance(value, str):
            raw = None
            for candidate, label in signal.value_table.items():
                if label == value:
                    raw = candidate
                    break
            if raw is None:
                raise CaplRuntimeError(
                    "no value-table label {!r} for signal {!r}".format(
                        value, signal_name
                    )
                )
        else:
            raw = signal.physical_to_raw(float(value))
        if len(message.data) < message.dlc:
            message.data.extend(b"\x00" * (message.dlc - len(message.data)))
        encode_raw(signal, raw, message.data)
        return True
