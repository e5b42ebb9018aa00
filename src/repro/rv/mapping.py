"""Frame -> CSP event mapping, driven by the .dbc layer.

The specification models speak CSP events (``send.reqSw``, ``rec.rptUpd``
-- the translator's channel convention); logs speak CAN identifiers and
payload bytes.  :class:`EventMapping` bridges them through a parsed
:class:`~repro.candb.model.Database`:

* the message definition names the event's *field* (``reqSw``), and its
  design-time sender node selects the *channel* through a configurable
  ``{node: channel}`` map (``{"VMG": "send", "ECU": "rec"}`` for the
  bundled OTA network);
* in ``mode="signal"`` selected signals are decoded
  (:func:`~repro.candb.codec.decode_message` -- value-table labels when they
  match) and appended as further event fields, so a spec can constrain
  payload values, not just message order (``rec.rptUpd.success``);
* frames whose identifier the database does not know follow the
  *unknown-frame policy*: ``"skip"`` drops them (check only the modelled
  subset), ``"fail"`` raises :class:`UnknownFrameError` (a strict fleet
  audit), ``"abstract"`` maps them to ``<abstract_channel>.0xID`` so the
  specification itself can decide whether alien traffic is a violation.

Mappings serialise to plain JSON (:meth:`EventMapping.to_doc`) for the
``csprv`` manifest format.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from ..candb.codec import decode_message
from ..candb.model import Database
from ..csp.events import Event
from .ingest import LogRecord

POLICIES = ("skip", "fail", "abstract")
MODES = ("name", "signal")


class UnknownFrameError(ValueError):
    """A logged identifier is outside the database (policy ``"fail"``)."""

    def __init__(self, record: LogRecord) -> None:
        where = " at log line {}".format(record.line) if record.line else ""
        super().__init__(
            "unknown frame id 0x{:X}{}".format(record.can_id, where)
        )
        self.record = record


class EventMapping:
    """Configurable .dbc-driven mapping from log records to CSP events."""

    def __init__(
        self,
        database: Database,
        *,
        channels: Optional[Dict[str, str]] = None,
        default_channel: str = "msg",
        mode: str = "name",
        signals: Optional[Dict[str, List[str]]] = None,
        unknown: str = "skip",
        abstract_channel: str = "unknown",
    ) -> None:
        if mode not in MODES:
            raise ValueError(
                "unknown mapping mode {!r}; known: {}".format(mode, ", ".join(MODES))
            )
        if unknown not in POLICIES:
            raise ValueError(
                "unknown-frame policy {!r}; known: {}".format(
                    unknown, ", ".join(POLICIES)
                )
            )
        self.database = database
        self.channels = dict(channels or {})
        self.default_channel = default_channel
        self.mode = mode
        self.signals = {name: list(sigs) for name, sigs in (signals or {}).items()}
        self.unknown = unknown
        self.abstract_channel = abstract_channel

    # -- the mapping ---------------------------------------------------------

    def channel_of(self, sender: Optional[str]) -> str:
        return self.channels.get(sender, self.default_channel)

    def event_of(self, record: LogRecord) -> Optional[Event]:
        """The CSP event of one record; None when the policy skips it.

        Remote frames carry no payload semantics and are always skipped.
        """
        if record.remote:
            return None
        try:
            message = self.database.message_by_id(record.can_id)
        except KeyError:
            if self.unknown == "skip":
                return None
            if self.unknown == "fail":
                raise UnknownFrameError(record) from None
            return Event(
                self.abstract_channel, ("0x{:X}".format(record.can_id),)
            )
        fields: Tuple = (message.name,)
        if self.mode == "signal":
            selected = self.signals.get(message.name)
            if selected is None:
                selected = [signal.name for signal in message.signals]
            decoded = decode_message(message, record.data)
            fields = fields + tuple(decoded[name] for name in selected)
        return Event(self.channel_of(message.sender), fields)

    def stream(
        self, records: Iterable[LogRecord]
    ) -> Iterator[Tuple[Event, int]]:
        """Lazily map records to ``(event, source_line)`` pairs."""
        for record in records:
            event = self.event_of(record)
            if event is not None:
                yield event, record.line

    def events(self, records: Iterable[LogRecord]) -> Iterator[Event]:
        for event, _line in self.stream(records):
            yield event

    # -- JSON ----------------------------------------------------------------

    def to_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {}
        if self.channels:
            doc["channels"] = dict(sorted(self.channels.items()))
        if self.default_channel != "msg":
            doc["default_channel"] = self.default_channel
        if self.mode != "name":
            doc["mode"] = self.mode
        if self.signals:
            doc["signals"] = {
                name: list(sigs) for name, sigs in sorted(self.signals.items())
            }
        if self.unknown != "skip":
            doc["unknown"] = self.unknown
        if self.abstract_channel != "unknown":
            doc["abstract_channel"] = self.abstract_channel
        return doc

    @classmethod
    def from_doc(cls, database: Database, doc: Dict[str, Any]) -> "EventMapping":
        if not isinstance(doc, dict):
            raise ValueError("a mapping document must be a JSON object")
        return cls(
            database,
            channels=doc.get("channels"),
            default_channel=doc.get("default_channel", "msg"),
            mode=doc.get("mode", "name"),
            signals=doc.get("signals"),
            unknown=doc.get("unknown", "skip"),
            abstract_channel=doc.get("abstract_channel", "unknown"),
        )

    def __repr__(self) -> str:
        return "EventMapping(mode={!r}, unknown={!r})".format(
            self.mode, self.unknown
        )
