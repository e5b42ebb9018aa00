"""Emission of CSPm source text from core process terms.

The inverse of the evaluator: pretty-prints :class:`repro.csp.process.Process` terms
in CSPm notation (Table I of the paper) and assembles complete scripts --
datatype / channel declarations, process equations and assert statements --
of the shape shown in the paper's Fig. 3.  The model extractor uses this to
write its output files, and the Table I benchmark round-trips every operator
through emit-then-parse.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..csp.events import Alphabet, Channel, Event, Value
from ..csp.process import (
    Environment,
    Interrupt,
    ExternalChoice,
    GenParallel,
    Hiding,
    Interleave,
    InternalChoice,
    Omega,
    Prefix,
    Process,
    ProcessRef,
    Renaming,
    SeqComp,
    Skip,
    Stop,
)


def emit_value(value: Value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def emit_event(event: Event) -> str:
    """An event in CSPm dotted form: ``send.reqSw``."""
    if not event.fields:
        return event.channel
    return event.channel + "." + ".".join(emit_value(f) for f in event.fields)


def emit_alphabet(
    alphabet: Alphabet, channels: Optional[Mapping[str, Channel]] = None
) -> str:
    """Emit a set of events, using ``{| channel |}`` where a whole channel is covered."""
    events = set(alphabet.events)
    enum_members: List[str] = []
    if channels:
        for name in sorted(channels):
            channel = channels[name]
            channel_events = set(channel.events())
            if channel_events and channel_events <= events:
                enum_members.append(name)
                events -= channel_events
    leftovers = sorted(emit_event(e) for e in events)
    if enum_members and not leftovers:
        return "{| " + ", ".join(enum_members) + " |}"
    if enum_members and leftovers:
        return "union({| " + ", ".join(enum_members) + " |}, {" + ", ".join(leftovers) + "})"
    return "{" + ", ".join(leftovers) + "}"


# binding strengths, tighter binds higher; mirrors the parser
_PREC_HIDE = 1
_PREC_PAR = 2
_PREC_ICHOICE = 3
_PREC_ECHOICE = 4
_PREC_INTERRUPT = 5
_PREC_SEQ = 5
_PREC_PREFIX = 6
_PREC_ATOM = 7


def emit_process(
    process: Process,
    channels: Optional[Mapping[str, Channel]] = None,
) -> str:
    """Pretty-print a process term in CSPm concrete syntax."""
    return _emit(process, channels, 0)


def _wrap(text: str, inner: int, outer: int) -> str:
    return "({})".format(text) if inner < outer else text


def _emit(process: Process, channels: Optional[Mapping[str, Channel]], outer: int) -> str:
    if isinstance(process, Stop):
        return "STOP"
    if isinstance(process, (Skip, Omega)):
        return "SKIP"
    if isinstance(process, ProcessRef):
        return process.name
    if isinstance(process, Prefix):
        text = "{} -> {}".format(
            emit_event(process.event), _emit(process.continuation, channels, _PREC_PREFIX)
        )
        return _wrap(text, _PREC_PREFIX, outer)
    if isinstance(process, ExternalChoice):
        text = "{} [] {}".format(
            _emit(process.left, channels, _PREC_ECHOICE + 1),
            _emit(process.right, channels, _PREC_ECHOICE),
        )
        return _wrap(text, _PREC_ECHOICE, outer)
    if isinstance(process, InternalChoice):
        text = "{} |~| {}".format(
            _emit(process.left, channels, _PREC_ICHOICE + 1),
            _emit(process.right, channels, _PREC_ICHOICE),
        )
        return _wrap(text, _PREC_ICHOICE, outer)
    if isinstance(process, SeqComp):
        text = "{} ; {}".format(
            _emit(process.first, channels, _PREC_SEQ + 1),
            _emit(process.second, channels, _PREC_SEQ),
        )
        return _wrap(text, _PREC_SEQ, outer)
    if isinstance(process, Interrupt):
        text = "{} /\\ {}".format(
            _emit(process.primary, channels, _PREC_INTERRUPT + 1),
            _emit(process.handler, channels, _PREC_INTERRUPT + 1),
        )
        return _wrap(text, _PREC_INTERRUPT, outer)
    if isinstance(process, GenParallel):
        text = "{} [| {} |] {}".format(
            _emit(process.left, channels, _PREC_PAR + 1),
            emit_alphabet(process.sync, channels),
            _emit(process.right, channels, _PREC_PAR + 1),
        )
        return _wrap(text, _PREC_PAR, outer)
    if isinstance(process, Interleave):
        text = "{} ||| {}".format(
            _emit(process.left, channels, _PREC_PAR + 1),
            _emit(process.right, channels, _PREC_PAR + 1),
        )
        return _wrap(text, _PREC_PAR, outer)
    if isinstance(process, Hiding):
        text = "{} \\ {}".format(
            _emit(process.process, channels, _PREC_HIDE + 1),
            emit_alphabet(process.hidden, channels),
        )
        return _wrap(text, _PREC_HIDE, outer)
    if isinstance(process, Renaming):
        pairs = ", ".join(
            "{} <- {}".format(emit_event(old), emit_event(new))
            for old, new in process.mapping
        )
        return "{}[[{}]]".format(_emit(process.process, channels, _PREC_ATOM), pairs)
    raise TypeError("cannot emit process term {!r}".format(process))


class ScriptBuilder:
    """Assemble a complete CSPm script, Fig.-3 style.

    The builder collects declarations in the conventional order -- datatypes,
    nametypes, channels, process equations, assertions -- and renders a single
    text with a comment header, ready to be written to a ``.csp`` file (or
    re-loaded with :func:`repro.cspm.evaluator.load` for checking).
    """

    def __init__(self, header: Optional[str] = None) -> None:
        self.header = header
        self._datatypes: List[Tuple[str, Tuple[str, ...]]] = []
        self._nametypes: List[Tuple[str, str]] = []
        self._channels: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = []
        self._definitions: List[Tuple[str, str]] = []
        self._assertions: List[str] = []
        self._comments: Dict[int, str] = {}
        self.channel_registry: Dict[str, Channel] = {}

    def datatype(self, name: str, constructors: Sequence[str]) -> "ScriptBuilder":
        self._datatypes.append((name, tuple(constructors)))
        return self

    def nametype(self, name: str, definition: str) -> "ScriptBuilder":
        self._nametypes.append((name, definition))
        return self

    def channel(self, names: Sequence[str], field_types: Sequence[str] = ()) -> "ScriptBuilder":
        self._channels.append((tuple(names), tuple(field_types)))
        return self

    def register_channel(self, channel: Channel) -> "ScriptBuilder":
        """Make a channel known for ``{| ... |}`` compression in emitted sets."""
        self.channel_registry[channel.name] = channel
        return self

    def define(self, name: str, process: Process) -> "ScriptBuilder":
        self._definitions.append(
            (name, emit_process(process, self.channel_registry))
        )
        return self

    def define_raw(self, name: str, body: str) -> "ScriptBuilder":
        self._definitions.append((name, body))
        return self

    def comment_before_definition(self, index: int, text: str) -> "ScriptBuilder":
        self._comments[index] = text
        return self

    def assert_refinement(self, spec: str, impl: str, model: str = "T") -> "ScriptBuilder":
        self._assertions.append("assert {} [{}= {}".format(spec, model, impl))
        return self

    def assert_property(self, process: str, property_name: str) -> "ScriptBuilder":
        self._assertions.append("assert {} :[{}]".format(process, property_name))
        return self

    def render(self) -> str:
        lines: List[str] = []
        if self.header:
            for header_line in self.header.splitlines():
                lines.append("-- " + header_line if header_line else "--")
            lines.append("")
        if self._datatypes:
            for name, constructors in self._datatypes:
                lines.append("datatype {} = {}".format(name, " | ".join(constructors)))
            lines.append("")
        if self._nametypes:
            for name, definition in self._nametypes:
                lines.append("nametype {} = {}".format(name, definition))
            lines.append("")
        if self._channels:
            for names, field_types in self._channels:
                declaration = "channel " + ", ".join(names)
                if field_types:
                    declaration += " : " + ".".join(field_types)
                lines.append(declaration)
            lines.append("")
        for index, (name, body) in enumerate(self._definitions):
            comment = self._comments.get(index)
            if comment:
                lines.append("-- " + comment)
            lines.append("{} = {}".format(name, body))
        if self._definitions:
            lines.append("")
        for assertion in self._assertions:
            lines.append(assertion)
        while lines and not lines[-1]:
            lines.pop()
        return "\n".join(lines) + "\n"


def environment_to_script(
    env: Environment,
    channels: Iterable[Channel],
    datatypes: Optional[Mapping[str, Sequence[str]]] = None,
    header: Optional[str] = None,
    assertions: Optional[Sequence[str]] = None,
) -> str:
    """Render a whole environment of equations as a CSPm script."""
    builder = ScriptBuilder(header)
    channel_list = list(channels)
    for name, constructors in (datatypes or {}).items():
        builder.datatype(name, constructors)
    type_names = {tuple(v): k for k, v in (datatypes or {}).items()}
    for channel in channel_list:
        builder.register_channel(channel)
        field_types = []
        for domain in channel.field_domains:
            known = type_names.get(tuple(domain))
            if known is not None:
                field_types.append(known)
            else:
                field_types.append(
                    "{" + ", ".join(emit_value(v) for v in domain) + "}"
                )
        builder.channel([channel.name], field_types)
    for name in env.names():
        builder.define(name, env.resolve(name))
    for assertion in assertions or ():
        builder._assertions.append(assertion)
    return builder.render()
