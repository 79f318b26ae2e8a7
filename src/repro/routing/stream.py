"""Streaming event front end: feed/drain with per-prefix coalescing.

The paper's measurement pipeline is a continuous feed of BGP
announce/withdraw churn observed at collectors.  This module is the
incremental entry point over the batch engine for that shape of input:

* :class:`SimulatorService` wraps a :class:`BgpSimulator` and accepts
  events one at a time or in chunks (:meth:`SimulatorService.feed`),
  **coalescing** per-origin bursts before anything converges: within
  the buffered window only the *last* event per ``(origin, prefix)``
  key survives — the way a real BGP session's rapid re-announcements
  collapse into the latest state, since an UPDATE for a prefix
  implicitly replaces its predecessor.  When the buffer reaches the
  window size it drains automatically; :meth:`SimulatorService.drain`
  flushes the remainder.
* A drain hands the coalesced batch to :meth:`BgpSimulator.apply`, so
  it inherits the scheduler unchanged: the in-process core, or the
  resident sharded service when the service (or the simulator) asks
  for ``shards`` > 1.
* :func:`parse_event` / :func:`read_event_stream` decode the JSON-lines
  wire format the ``repro-bgp stream`` CLI reads (one object per line:
  ``{"origin": 65001, "prefix": "10.0.0.0/24", "withdraw": false,
  "communities": ["65001:666"], "spoofed_origin": 0}`` — only
  ``origin`` and ``prefix`` are required).

Equivalence contract: coalescing never changes the *converged* state.
The engine's batch semantics make a batch a net state change, and the
final Loc-RIBs/FIBs depend only on the final origination state — so a
coalesced stream converges to exactly the Loc-RIBs and FIBs of the
uncoalesced event-by-event run (the per-run reports differ, of course:
fewer events are processed).  ``tests/test_core_equivalence.py`` checks
exactly that over generated Internets, churn and windows.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.bgp.community import CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import CommunityError, PrefixError, RoutingError
from repro.routing.engine import RoutingEvent, SimulationReport, validate_shards

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.routing.engine import BgpSimulator

#: Default number of buffered (origin, prefix) keys that triggers an
#: automatic drain.
DEFAULT_WINDOW = 256


@dataclass
class StreamStats:
    """Counters over a service's lifetime."""

    #: Events handed to :meth:`SimulatorService.feed`.
    events_seen: int = 0
    #: Events dropped by last-writer-wins coalescing (superseded by a
    #: later event for the same (origin, prefix) within their window).
    events_coalesced: int = 0
    #: Batches handed to the engine (automatic and explicit drains).
    batches: int = 0

    @property
    def events_applied(self) -> int:
        """Events that actually reached the engine."""
        return self.events_seen - self.events_coalesced


class SimulatorService:
    """A feed/drain streaming client over one simulator.

    The service buffers incoming events and coalesces them per
    ``(origin, prefix)`` key; a batch goes to the engine when the
    buffer holds ``window`` distinct keys (or on an explicit
    :meth:`drain`).  Used as a context manager it drains on clean exit,
    so no buffered event is silently dropped.  ``shards`` is the shard
    count every drain passes to :meth:`BgpSimulator.apply` (``None``:
    the simulator's own).
    """

    def __init__(
        self,
        simulator: "BgpSimulator",
        window: int = DEFAULT_WINDOW,
        shards: int | None = None,
    ):
        if window < 1:
            raise RoutingError(f"stream window must be >= 1, got {window}")
        self.simulator = simulator
        self.window = window
        self.shards = None if shards is None else validate_shards(shards)
        self.stats = StreamStats()
        self._pending: dict[tuple[int, Prefix], RoutingEvent] = {}

    def pending_events(self) -> list[RoutingEvent]:
        """The currently buffered (already coalesced) events, in order.

        Keys keep their first-seen position (a later event replaces its
        predecessor in place), so a drained batch seeds prefixes in the
        same relative order the uncoalesced stream would have.
        """
        return list(self._pending.values())

    def feed(self, events: Iterable[RoutingEvent] | RoutingEvent) -> list[SimulationReport]:
        """Buffer events, draining every time the window fills.

        Returns the reports of the drains this call triggered (often
        none — the common case is pure buffering).
        """
        if isinstance(events, RoutingEvent):
            events = (events,)
        reports: list[SimulationReport] = []
        for event in events:
            self.stats.events_seen += 1
            key = (event.origin_asn, event.prefix)
            if key in self._pending:
                self.stats.events_coalesced += 1
            self._pending[key] = event
            if len(self._pending) >= self.window:
                reports.append(self.drain())
        return reports

    def drain(self) -> SimulationReport:
        """Converge everything buffered; returns the batch's report.

        Draining an empty buffer is a no-op that returns an empty
        report (so periodic timers can call it unconditionally).
        """
        batch, self._pending = list(self._pending.values()), {}
        if not batch:
            return SimulationReport()
        self.stats.batches += 1
        report = self.simulator.apply(batch, shards=self.shards)
        if os.environ.get("REPRO_SANITIZE", "") not in ("", "0"):
            from repro.analysis.sanitizer import check_drain

            check_drain(self.simulator)
        return report

    def __enter__(self) -> "SimulatorService":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.drain()


# ------------------------------------------------------------------ wire format
_EVENT_KEYS = frozenset(
    {"origin", "origin_asn", "prefix", "withdraw", "communities", "spoofed_origin", "spoofed_origin_asn"}
)

_MAX_ASN = 0xFFFFFFFF


def _field(record: dict, name: str, alias: str) -> tuple[str, object]:
    """``(key, value)`` of ``name`` or else its ``alias`` (value None when neither is given)."""
    key = alias if name not in record and alias in record else name
    return key, record.get(key)


def _asn(key: str, value: object) -> int:
    """An AS number field: a non-``bool`` integer in 0..2**32-1, or a digit string.

    ``int()`` would read ``1.9`` and ``true`` as AS1 and accept ``-5``.
    """
    number = int(value) if isinstance(value, str) and value.isascii() and value.isdigit() else value
    if isinstance(number, bool) or not isinstance(number, int) or not 0 <= number <= _MAX_ASN:
        raise RoutingError(
            f"stream event field {key!r} must be an AS number (an integer 0..{_MAX_ASN} "
            f"or a digit string), got {value!r}"
        )
    return number


def parse_event(record: dict) -> RoutingEvent:
    """Decode one JSON-lines record into a :class:`RoutingEvent`.

    Fields are validated, never coerced: ``withdraw`` is a JSON boolean,
    ``communities`` a list, and both origins AS numbers (see
    :func:`_asn`).  Every error names the offending field.
    """
    if not isinstance(record, dict):
        raise RoutingError(f"stream event must be a JSON object, got {type(record).__name__}")
    unknown = set(record) - _EVENT_KEYS
    if unknown:
        raise RoutingError(
            f"unknown stream event field(s) {sorted(unknown)}; expected a subset of "
            f"{sorted(_EVENT_KEYS)}"
        )
    origin_key, origin = _field(record, "origin", "origin_asn")
    prefix = record.get("prefix")
    for key, value in ((origin_key, origin), ("prefix", prefix)):
        if value is None:
            raise RoutingError(
                f"stream event needs at least 'origin' and 'prefix'; {key!r} has no value"
            )
    origin = _asn(origin_key, origin)
    try:
        if not isinstance(prefix, str):
            raise PrefixError("expected a string such as '10.0.0.0/24'")
        prefix = Prefix.from_string(prefix)
    except PrefixError as exc:
        raise RoutingError(f"bad stream event prefix {prefix!r} in field 'prefix': {exc}") from None
    withdraw = record.get("withdraw", False)
    if not isinstance(withdraw, bool):
        raise RoutingError(f"stream event field 'withdraw' must be true or false, got {withdraw!r}")
    communities = record.get("communities")
    if communities is not None:
        if not isinstance(communities, list) or any(isinstance(c, bool) for c in communities):
            raise RoutingError(
                "stream event field 'communities' must be a list such as "
                f"[\"65001:666\"], got {communities!r}"
            )
        try:
            communities = CommunitySet.of(*communities) if communities else None
        except CommunityError as exc:
            raise RoutingError(f"bad stream event field 'communities': {exc}") from None
    spoofed_key, spoofed = _field(record, "spoofed_origin", "spoofed_origin_asn")
    return RoutingEvent(
        origin_asn=origin,
        prefix=prefix,
        withdraw=withdraw,
        communities=communities,
        spoofed_origin_asn=None if spoofed is None else _asn(spoofed_key, spoofed),
    )


def read_event_stream(lines: Iterable[str]) -> Iterator[RoutingEvent]:
    """Decode a JSON-lines event stream, skipping blanks and ``#`` comments.

    Errors carry the 1-based line number so a bad line in a long feed
    is findable.
    """
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            record = json.loads(text)
        except json.JSONDecodeError as exc:
            raise RoutingError(f"stream line {number}: invalid JSON ({exc})") from None
        try:
            yield parse_event(record)
        except RoutingError as exc:
            raise RoutingError(f"stream line {number}: {exc}") from None
