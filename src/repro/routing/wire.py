"""Compact binary wire codec for the resident shard protocol.

Every payload that crosses the fork boundary — the per-prefix state
deltas, the event batches, the export-community additions, the harvest
work-list and the observation rows coming back — used to ship as a
pickled dataclass graph.  Most of those bytes were redundant: the
entries of one batch share a handful of distinct ``ASPath`` /
``CommunitySet`` / ``PathAttributes`` objects (the export memo proves
it), and pickle re-spells each object's class and field names over and
over.  This module replaces that with a purpose-built format:

Blob layout (one self-contained blob per envelope field)::

    byte 0   format   'W' = compact v1, 'P' = length-framed pickle
    byte 1   kind     'S' states | 'E' events | 'A' additions
                      | 'I' items | 'O' observations
    ...      payload

A compact payload starts with four **intern tables**, decoded in
dependency order — AS paths, community sets, large-community tuples,
attribute bundles — each a varint count followed by self-delimiting
entries.  The body then references table entries by id, so a thousand
route entries sharing one attribute bundle pay for it once.  Scalars are
LEB128 varints; a prefix is ``varint(family) varint(length)
varint(network)``; every set-valued field (communities, suppress_to,
announce_only_to) is sorted before encoding, which makes the encoding
canonical: encode∘decode is byte-stable, the property the
``REPRO_SANITIZE=1`` round-trip audit (:func:`audit_blob`) checks on
every shipped envelope.

Decoding is **interning**: an :class:`AttributeInterner` (one per
simulator, parent and worker side) canonicalises every decoded
``ASPath`` / ``CommunitySet`` / large-community tuple /
``PathAttributes`` so replayed entries share one bundle object per
distinct attribute set — merge replay shrinks resident parent memory
instead of growing it.

``REPRO_WIRE=pickle`` switches the *encoders* to the pickle format (the
decoders dispatch on the format byte, so mixed blobs interoperate).
That mode exists for A/B benchmarking only: it is the exact baseline
the compact format is measured against in
``benchmarks/bench_resident_stream.py``.
"""

from __future__ import annotations

import os
import pickle
from typing import TYPE_CHECKING, Any, Sequence

from repro.bgp.aspath import ASPath, ASPathSegment, SegmentType
from repro.bgp.attributes import Origin, PathAttributes
from repro.bgp.community import Community, CommunitySet, LargeCommunity
from repro.bgp.prefix import AddressFamily, Prefix
from repro.bgp.route import RouteEntry
from repro.exceptions import WireError

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.routing.engine import RoutingEvent

#: Environment variable selecting the wire format for *encoding*:
#: unset/``codec`` is the compact format, ``pickle`` the baseline
#: pickle framing (benchmark A/B only).  Decoders always dispatch on
#: the blob's own format byte.
WIRE_ENV = "REPRO_WIRE"

_FMT_COMPACT = 0x57  # 'W'
_FMT_PICKLE = 0x50  # 'P'

KIND_STATES = 0x53  # 'S'
KIND_EVENTS = 0x45  # 'E'
KIND_ADDITIONS = 0x41  # 'A'
KIND_ITEMS = 0x49  # 'I'
KIND_OBSERVATIONS = 0x4F  # 'O'
KIND_CONFIG = 0x43  # 'C'

_KIND_NAMES = {
    KIND_STATES: "states",
    KIND_EVENTS: "events",
    KIND_ADDITIONS: "additions",
    KIND_ITEMS: "items",
    KIND_OBSERVATIONS: "observations",
    KIND_CONFIG: "config",
}


def wire_format() -> str:
    """The selected *encoding* format: ``"codec"`` (default) or ``"pickle"``."""
    return "pickle" if os.environ.get(WIRE_ENV, "").lower() == "pickle" else "codec"


# ------------------------------------------------------------------ primitives
def _write_uvarint(buf: bytearray, value: int) -> None:
    """LEB128: 7 value bits per byte, high bit = continuation."""
    if value < 0:
        raise WireError(f"cannot encode negative varint {value}")
    while True:
        low = value & 0x7F
        value >>= 7
        if value:
            buf.append(low | 0x80)
        else:
            buf.append(low)
            return


def _write_str(buf: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    _write_uvarint(buf, len(raw))
    buf += raw


class _Reader:
    """Sequential bounds-checked reader over one blob."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int = 0):
        self.data = data
        self.pos = pos

    def byte(self) -> int:
        try:
            value = self.data[self.pos]
        except IndexError:
            raise WireError("truncated wire blob") from None
        self.pos += 1
        return value

    def uvarint(self) -> int:
        value = 0
        shift = 0
        while True:
            byte = self.byte()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7

    def str(self) -> str:
        length = self.uvarint()
        end = self.pos + length
        if end > len(self.data):
            raise WireError("truncated wire blob")
        raw = self.data[self.pos : end]
        self.pos = end
        return raw.decode("utf-8")

    def done(self) -> bool:
        return self.pos >= len(self.data)


# ---------------------------------------------------------------- interning
class AttributeInterner:
    """Canonicalise decoded attribute objects across blobs.

    One instance lives on each simulator (parent and worker alike):
    every decode maps equal ``ASPath`` / ``CommunitySet`` /
    large-community tuples / ``PathAttributes`` onto a single shared
    object, so a long-lived resident run holds one bundle per distinct
    attribute set no matter how many deltas replayed it.
    """

    __slots__ = ("_paths", "_csets", "_lsets", "_bundles")

    def __init__(self) -> None:
        self._paths: dict[ASPath, ASPath] = {}
        self._csets: dict[CommunitySet, CommunitySet] = {}
        self._lsets: dict[tuple, tuple] = {}
        self._bundles: dict[PathAttributes, PathAttributes] = {}

    def path(self, path: ASPath) -> ASPath:
        return self._paths.setdefault(path, path)

    def cset(self, communities: CommunitySet) -> CommunitySet:
        return self._csets.setdefault(communities, communities)

    def lset(self, large: "tuple[LargeCommunity, ...]") -> "tuple[LargeCommunity, ...]":
        return self._lsets.setdefault(large, large)

    def bundle(self, attributes: PathAttributes) -> PathAttributes:
        return self._bundles.setdefault(attributes, attributes)


# ------------------------------------------------------------------- encoder
class _Encoder:
    """Per-blob intern tables plus the body buffer.

    Table ids are assigned on first encounter; each table's entries are
    appended to its own buffer in id order, so the decoder can rebuild
    the tables with a single sequential pass before reading the body.
    Bundles reference earlier tables only (paths / csets / lsets), never
    other bundles, so the dependency order is fixed.
    """

    __slots__ = (
        "body",
        "_paths",
        "_path_buf",
        "_csets",
        "_cset_buf",
        "_lsets",
        "_lset_buf",
        "_bundles",
        "_bundle_buf",
    )

    def __init__(self) -> None:
        self.body = bytearray()
        self._paths: dict[ASPath, int] = {}
        self._path_buf = bytearray()
        self._csets: dict[CommunitySet, int] = {}
        self._cset_buf = bytearray()
        self._lsets: dict[tuple, int] = {}
        self._lset_buf = bytearray()
        self._bundles: dict[PathAttributes, int] = {}
        self._bundle_buf = bytearray()

    def path_id(self, path: ASPath) -> int:
        table_id = self._paths.get(path)
        if table_id is None:
            table_id = len(self._paths)
            self._paths[path] = table_id
            buf = self._path_buf
            segments = path.segments
            _write_uvarint(buf, len(segments))
            for segment in segments:
                buf.append(int(segment.segment_type))
                _write_uvarint(buf, len(segment.asns))
                for asn in segment.asns:
                    _write_uvarint(buf, asn)
        return table_id

    def cset_id(self, communities: CommunitySet) -> int:
        if not isinstance(communities, CommunitySet):
            raise WireError(
                f"expected CommunitySet on the wire, got {type(communities).__name__}"
            )
        table_id = self._csets.get(communities)
        if table_id is None:
            table_id = len(self._csets)
            self._csets[communities] = table_id
            buf = self._cset_buf
            raw_values = sorted(community.to_int() for community in communities)
            _write_uvarint(buf, len(raw_values))
            for raw in raw_values:
                buf += raw.to_bytes(4, "big")
        return table_id

    def lset_id(self, large: "tuple[LargeCommunity, ...]") -> int:
        table_id = self._lsets.get(large)
        if table_id is None:
            table_id = len(self._lsets)
            self._lsets[large] = table_id
            buf = self._lset_buf
            _write_uvarint(buf, len(large))
            for community in large:
                _write_uvarint(buf, community.global_admin)
                _write_uvarint(buf, community.local_data1)
                _write_uvarint(buf, community.local_data2)
        return table_id

    def bundle_id(self, attributes: PathAttributes) -> int:
        table_id = self._bundles.get(attributes)
        if table_id is None:
            # Resolve the referenced tables *before* claiming the id so
            # the buffers stay in id order.
            path_id = self.path_id(attributes.as_path)
            cset_id = self.cset_id(attributes.communities)
            lset_id = self.lset_id(attributes.large_communities)
            table_id = len(self._bundles)
            self._bundles[attributes] = table_id
            buf = self._bundle_buf
            _write_uvarint(buf, path_id)
            _write_uvarint(buf, cset_id)
            _write_uvarint(buf, lset_id)
            buf.append(int(attributes.origin))
            flags = 0
            if attributes.med is not None:
                flags |= 0x01
            if attributes.local_pref is not None:
                flags |= 0x02
            if attributes.atomic_aggregate:
                flags |= 0x04
            buf.append(flags)
            _write_uvarint(buf, attributes.next_hop)
            if attributes.med is not None:
                _write_uvarint(buf, attributes.med)
            if attributes.local_pref is not None:
                _write_uvarint(buf, attributes.local_pref)
        return table_id

    def prefix(self, prefix: Prefix) -> None:
        buf = self.body
        _write_uvarint(buf, int(prefix.family))
        _write_uvarint(buf, prefix.length)
        _write_uvarint(buf, prefix.network)

    def finish(self, kind: int) -> bytes:
        out = bytearray((_FMT_COMPACT, kind))
        for table, buf in (
            (self._paths, self._path_buf),
            (self._csets, self._cset_buf),
            (self._lsets, self._lset_buf),
            (self._bundles, self._bundle_buf),
        ):
            _write_uvarint(out, len(table))
            out += buf
        out += self.body
        return bytes(out)


# ------------------------------------------------------------------- decoder
class _Tables:
    """The four intern tables of one compact blob, decoded up front."""

    __slots__ = ("paths", "csets", "lsets", "bundles")

    def __init__(self, reader: _Reader, interner: AttributeInterner):
        self.paths = [
            interner.path(self._read_path(reader)) for _ in range(reader.uvarint())
        ]
        self.csets = [
            interner.cset(self._read_cset(reader)) for _ in range(reader.uvarint())
        ]
        self.lsets = [
            interner.lset(self._read_lset(reader)) for _ in range(reader.uvarint())
        ]
        self.bundles = [
            interner.bundle(self._read_bundle(reader)) for _ in range(reader.uvarint())
        ]

    @staticmethod
    def _read_path(reader: _Reader) -> ASPath:
        segments = []
        for _ in range(reader.uvarint()):
            segment_type = SegmentType(reader.byte())
            asns = tuple(reader.uvarint() for _ in range(reader.uvarint()))
            segments.append(ASPathSegment(segment_type, asns))
        return ASPath(segments)

    @staticmethod
    def _read_cset(reader: _Reader) -> CommunitySet:
        count = reader.uvarint()
        end = reader.pos + 4 * count
        if end > len(reader.data):
            raise WireError("truncated community set")
        communities = [
            Community.from_int(int.from_bytes(reader.data[pos : pos + 4], "big"))
            for pos in range(reader.pos, end, 4)
        ]
        reader.pos = end
        return CommunitySet(communities)

    @staticmethod
    def _read_lset(reader: _Reader) -> "tuple[LargeCommunity, ...]":
        return tuple(
            LargeCommunity(reader.uvarint(), reader.uvarint(), reader.uvarint())
            for _ in range(reader.uvarint())
        )

    def _read_bundle(self, reader: _Reader) -> PathAttributes:
        path = self._table_ref(self.paths, reader.uvarint(), "AS path")
        communities = self._table_ref(self.csets, reader.uvarint(), "community set")
        large = self._table_ref(self.lsets, reader.uvarint(), "large communities")
        origin = Origin(reader.byte())
        flags = reader.byte()
        next_hop = reader.uvarint()
        med = reader.uvarint() if flags & 0x01 else None
        local_pref = reader.uvarint() if flags & 0x02 else None
        return PathAttributes(
            as_path=path,
            origin=origin,
            next_hop=next_hop,
            med=med,
            local_pref=local_pref,
            communities=communities,
            large_communities=large,
            atomic_aggregate=bool(flags & 0x04),
        )

    @staticmethod
    def _table_ref(table: list, table_id: int, label: str) -> Any:
        try:
            return table[table_id]
        except IndexError:
            raise WireError(f"dangling {label} intern id {table_id}") from None


def _read_prefix(reader: _Reader) -> Prefix:
    family = AddressFamily(reader.uvarint())
    length = reader.uvarint()
    return Prefix(family, reader.uvarint(), length)


# --------------------------------------------------------------- blob framing
def _encode(kind: int, payload: Any, write_body, format_name: "str | None" = None) -> bytes:
    if (format_name or wire_format()) == "pickle":
        return bytes((_FMT_PICKLE, kind)) + pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL
        )
    encoder = _Encoder()
    write_body(encoder, payload)
    return encoder.finish(kind)


def _open(blob: bytes, kind: int, interner: "AttributeInterner | None"):
    """Validate framing; return ``(reader, tables)`` or ``(None, payload)``.

    The second form is the pickle fast path: the payload is already the
    decoded object.
    """
    if len(blob) < 2:
        raise WireError("wire blob shorter than its 2-byte header")
    if blob[1] != kind:
        raise WireError(
            f"expected a {_KIND_NAMES.get(kind, kind)} blob, got "
            f"{_KIND_NAMES.get(blob[1], blob[1])}"
        )
    if blob[0] == _FMT_PICKLE:
        return None, pickle.loads(blob[2:])
    if blob[0] != _FMT_COMPACT:
        raise WireError(f"unknown wire format byte {blob[0]:#x}")
    reader = _Reader(blob, pos=2)
    return reader, _Tables(reader, interner if interner is not None else AttributeInterner())


# ------------------------------------------------------------ states (kind S)
def _write_entry(encoder: _Encoder, entry: RouteEntry, context_prefix: Prefix) -> None:
    flags = 0
    if entry.best:
        flags |= 0x01
    if entry.blackholed:
        flags |= 0x02
    if entry.rejected:
        flags |= 0x04
    if entry.rejection_reason is not None:
        flags |= 0x08
    if entry.export_prepend:
        flags |= 0x10
    if entry.suppress_to:
        flags |= 0x20
    if entry.announce_only_to is not None:
        flags |= 0x40
    if entry.prefix == context_prefix:
        flags |= 0x80
    body = encoder.body
    body.append(flags)
    if not flags & 0x80:
        encoder.prefix(entry.prefix)
    _write_uvarint(body, entry.learned_from)
    _write_uvarint(body, encoder.bundle_id(entry.attributes))
    if flags & 0x08:
        _write_str(body, entry.rejection_reason)
    if flags & 0x10:
        _write_uvarint(body, entry.export_prepend)
    if flags & 0x20:
        asns = sorted(entry.suppress_to)
        _write_uvarint(body, len(asns))
        for asn in asns:
            _write_uvarint(body, asn)
    if flags & 0x40:
        asns = sorted(entry.announce_only_to)
        _write_uvarint(body, len(asns))
        for asn in asns:
            _write_uvarint(body, asn)


def _read_entry(reader: _Reader, tables: _Tables, context_prefix: Prefix) -> RouteEntry:
    flags = reader.byte()
    prefix = context_prefix if flags & 0x80 else _read_prefix(reader)
    learned_from = reader.uvarint()
    attributes = tables._table_ref(tables.bundles, reader.uvarint(), "attribute bundle")
    rejection_reason = reader.str() if flags & 0x08 else None
    export_prepend = reader.uvarint() if flags & 0x10 else 0
    suppress_to: frozenset[int] = frozenset()
    if flags & 0x20:
        suppress_to = frozenset(reader.uvarint() for _ in range(reader.uvarint()))
    announce_only_to: "frozenset[int] | None" = None
    if flags & 0x40:
        announce_only_to = frozenset(reader.uvarint() for _ in range(reader.uvarint()))
    return RouteEntry(
        prefix=prefix,
        attributes=attributes,
        learned_from=learned_from,
        best=bool(flags & 0x01),
        blackholed=bool(flags & 0x02),
        rejected=bool(flags & 0x04),
        rejection_reason=rejection_reason,
        export_prepend=export_prepend,
        suppress_to=suppress_to,
        announce_only_to=announce_only_to,
    )


def _write_states_body(encoder: _Encoder, states: Sequence[tuple]) -> None:
    body = encoder.body
    _write_uvarint(body, len(states))
    for prefix, asn, originated, adjacent in states:
        encoder.prefix(prefix)
        _write_uvarint(body, asn)
        if originated is None:
            body.append(0)
        else:
            body.append(1)
            _write_uvarint(body, encoder.bundle_id(originated))
        _write_uvarint(body, len(adjacent))
        for neighbor, entry in adjacent:
            _write_uvarint(body, neighbor)
            _write_entry(encoder, entry, prefix)


def encode_states(states: Sequence[tuple], format_name: "str | None" = None) -> bytes:
    """Encode :data:`~repro.routing.shard.PrefixState` records."""
    return _encode(KIND_STATES, list(states), _write_states_body, format_name)


def decode_states(blob: bytes, interner: "AttributeInterner | None" = None) -> list[tuple]:
    reader, tables = _open(blob, KIND_STATES, interner)
    if reader is None:
        return tables
    states = []
    for _ in range(reader.uvarint()):
        prefix = _read_prefix(reader)
        asn = reader.uvarint()
        originated = None
        if reader.byte():
            originated = tables._table_ref(
                tables.bundles, reader.uvarint(), "attribute bundle"
            )
        adjacent = tuple(
            (reader.uvarint(), _read_entry(reader, tables, prefix))
            for _ in range(reader.uvarint())
        )
        states.append((prefix, asn, originated, adjacent))
    return states


# ------------------------------------------------------------ events (kind E)
def _write_events_body(encoder: _Encoder, events: Sequence["RoutingEvent"]) -> None:
    body = encoder.body
    _write_uvarint(body, len(events))
    for event in events:
        flags = 0
        if event.withdraw:
            flags |= 0x01
        if event.communities is not None:
            flags |= 0x02
        if event.spoofed_origin_asn is not None:
            flags |= 0x04
        body.append(flags)
        _write_uvarint(body, event.origin_asn)
        encoder.prefix(event.prefix)
        if flags & 0x02:
            _write_uvarint(body, encoder.cset_id(event.communities))
        if flags & 0x04:
            _write_uvarint(body, event.spoofed_origin_asn)


def encode_events(
    events: Sequence["RoutingEvent"], format_name: "str | None" = None
) -> bytes:
    """Encode a :class:`~repro.routing.engine.RoutingEvent` batch (order kept)."""
    return _encode(KIND_EVENTS, list(events), _write_events_body, format_name)


def decode_events(
    blob: bytes, interner: "AttributeInterner | None" = None
) -> "list[RoutingEvent]":
    from repro.routing.engine import RoutingEvent

    reader, tables = _open(blob, KIND_EVENTS, interner)
    if reader is None:
        return tables
    events = []
    for _ in range(reader.uvarint()):
        flags = reader.byte()
        origin_asn = reader.uvarint()
        prefix = _read_prefix(reader)
        communities = None
        if flags & 0x02:
            communities = tables._table_ref(
                tables.csets, reader.uvarint(), "community set"
            )
        spoofed = reader.uvarint() if flags & 0x04 else None
        events.append(
            RoutingEvent(
                origin_asn=origin_asn,
                prefix=prefix,
                withdraw=bool(flags & 0x01),
                communities=communities,
                spoofed_origin_asn=spoofed,
            )
        )
    return events


# --------------------------------------------------------- additions (kind A)
def _write_additions_body(encoder: _Encoder, additions: dict) -> None:
    body = encoder.body
    _write_uvarint(body, len(additions))
    for asn in sorted(additions):
        mapping = additions[asn]
        _write_uvarint(body, asn)
        _write_uvarint(body, len(mapping))
        for neighbor in sorted(mapping):
            _write_uvarint(body, neighbor)
            _write_uvarint(body, encoder.cset_id(mapping[neighbor]))


def encode_additions(
    additions: "dict[int, dict[int, CommunitySet]]", format_name: "str | None" = None
) -> bytes:
    """Encode per-router export-community additions (canonically sorted)."""
    return _encode(KIND_ADDITIONS, additions, _write_additions_body, format_name)


def decode_additions(
    blob: bytes, interner: "AttributeInterner | None" = None
) -> "dict[int, dict[int, CommunitySet]]":
    reader, tables = _open(blob, KIND_ADDITIONS, interner)
    if reader is None:
        return tables
    additions: "dict[int, dict[int, CommunitySet]]" = {}
    for _ in range(reader.uvarint()):
        asn = reader.uvarint()
        mapping: "dict[int, CommunitySet]" = {}
        for _ in range(reader.uvarint()):
            neighbor = reader.uvarint()
            mapping[neighbor] = tables._table_ref(
                tables.csets, reader.uvarint(), "community set"
            )
        additions[asn] = mapping
    return additions


# ------------------------------------------------------------- items (kind I)
def _item_fields(item) -> tuple:
    """Normalise a harvest work item (dataclass or plain tuple) to a tuple."""
    if isinstance(item, tuple):
        return item
    return (item.index, item.platform, item.collector_id, item.collector_asn, item.peer_asn)


def _write_items_body(encoder: _Encoder, items: Sequence) -> None:
    body = encoder.body
    _write_uvarint(body, len(items))
    for item in items:
        index, platform, collector_id, collector_asn, peer_asn = _item_fields(item)
        _write_uvarint(body, index)
        _write_str(body, platform)
        _write_str(body, collector_id)
        _write_uvarint(body, collector_asn)
        _write_uvarint(body, peer_asn)


def encode_items(items: Sequence, format_name: "str | None" = None) -> bytes:
    """Encode the harvest work-list.

    Decoding returns plain ``(index, platform, collector_id,
    collector_asn, peer_asn)`` tuples — the codec does not depend on
    :mod:`repro.collectors.harvest`; the worker rebuilds its dataclass.
    """
    return _encode(
        KIND_ITEMS, tuple(_item_fields(item) for item in items), _write_items_body, format_name
    )


def decode_items(blob: bytes, interner: "AttributeInterner | None" = None) -> list[tuple]:
    reader, tables = _open(blob, KIND_ITEMS, interner)
    if reader is None:
        return list(tables)
    return [
        (reader.uvarint(), reader.str(), reader.str(), reader.uvarint(), reader.uvarint())
        for _ in range(reader.uvarint())
    ]


# ------------------------------------------------------ observations (kind O)
def _write_observations_body(encoder: _Encoder, groups: Sequence[tuple]) -> None:
    body = encoder.body
    _write_uvarint(body, len(groups))
    for index, rows in groups:
        _write_uvarint(body, index)
        _write_uvarint(body, len(rows))
        for prefix, as_path, communities in rows:
            encoder.prefix(prefix)
            _write_uvarint(body, len(as_path))
            for asn in as_path:
                _write_uvarint(body, asn)
            _write_uvarint(body, encoder.cset_id(communities))


def encode_observations(groups: Sequence[tuple], format_name: "str | None" = None) -> bytes:
    """Encode harvest rows: ``(item_index, [(prefix, as_path, communities)])``.

    Only the per-route payload crosses the wire; the parent re-attaches
    the per-item constants (platform, collector id, peer ASN, timestamp)
    when it rebuilds the :class:`~repro.collectors.observation.RouteObservation`.
    """
    return _encode(
        KIND_OBSERVATIONS,
        [(index, list(rows)) for index, rows in groups],
        _write_observations_body,
        format_name,
    )


def decode_observations(
    blob: bytes, interner: "AttributeInterner | None" = None
) -> list[tuple]:
    reader, tables = _open(blob, KIND_OBSERVATIONS, interner)
    if reader is None:
        return tables
    groups = []
    for _ in range(reader.uvarint()):
        index = reader.uvarint()
        rows = []
        for _ in range(reader.uvarint()):
            prefix = _read_prefix(reader)
            as_path = tuple(reader.uvarint() for _ in range(reader.uvarint()))
            rows.append(
                (
                    prefix,
                    as_path,
                    tables._table_ref(tables.csets, reader.uvarint(), "community set"),
                )
            )
        groups.append((index, rows))
    return groups


# ------------------------------------------------------------ config (kind C)
def _write_config_body(encoder: _Encoder, config: "dict[int, tuple]") -> None:
    body = encoder.body
    tables: "dict[bytes, int]" = {}
    pickles: list[bytes] = []
    entries: list[tuple[int, int]] = []
    for asn in sorted(config):
        raw = pickle.dumps(tuple(config[asn]), protocol=pickle.HIGHEST_PROTOCOL)
        table_id = tables.get(raw)
        if table_id is None:
            table_id = len(pickles)
            tables[raw] = table_id
            pickles.append(raw)
        entries.append((asn, table_id))
    _write_uvarint(body, len(pickles))
    for raw in pickles:
        _write_uvarint(body, len(raw))
        body += raw
    _write_uvarint(body, len(entries))
    for asn, table_id in entries:
        _write_uvarint(body, asn)
        _write_uvarint(body, table_id)


def encode_config(config: "dict[int, tuple]", format_name: "str | None" = None) -> bytes:
    """Encode a :func:`~repro.routing.shard.capture_router_config` capture.

    Policy objects are not codec material, so each *distinct* per-router
    tuple still rides as a pickle — but deduplicated by encoded bytes:
    a topology where thousands of routers share a handful of role-derived
    configurations ships each distinct configuration once, plus a varint
    ``(asn, table_id)`` pair per router.  Decoding shares one unpickled
    tuple per table entry, which is safe because the routing layer treats
    policy objects as immutable once installed (hand-swapping a new
    object is the reconfiguration signal — see ``capture_router_config``).
    """
    return _encode(KIND_CONFIG, dict(config), _write_config_body, format_name)


def decode_config(
    blob: bytes, interner: "AttributeInterner | None" = None
) -> "dict[int, tuple]":
    reader, tables = _open(blob, KIND_CONFIG, interner)
    if reader is None:
        return tables
    shared: list[tuple] = []
    for _ in range(reader.uvarint()):
        length = reader.uvarint()
        end = reader.pos + length
        if end > len(reader.data):
            raise WireError("truncated wire blob")
        shared.append(pickle.loads(reader.data[reader.pos : end]))
        reader.pos = end
    config: "dict[int, tuple]" = {}
    for _ in range(reader.uvarint()):
        asn = reader.uvarint()
        config[asn] = _Tables._table_ref(shared, reader.uvarint(), "config table")
    return config


# ------------------------------------------------------------------- auditing
_CODECS = {
    KIND_STATES: (encode_states, decode_states),
    KIND_EVENTS: (encode_events, decode_events),
    KIND_ADDITIONS: (encode_additions, decode_additions),
    KIND_ITEMS: (encode_items, decode_items),
    KIND_OBSERVATIONS: (encode_observations, decode_observations),
    KIND_CONFIG: (encode_config, decode_config),
}


def audit_blob(blob: bytes) -> "str | None":
    """Round-trip audit one blob: decode → re-encode → decode → compare.

    Returns ``None`` for a clean round trip, otherwise a description of
    the first diverging field.  Used by the ``REPRO_SANITIZE=1`` submit
    hook, so it must never mutate anything — and it does not: both
    decodes use throwaway interners.
    """
    if len(blob) < 2 or blob[1] not in _CODECS:
        return f"unrecognised blob header {blob[:2]!r}"
    kind = blob[1]
    encode, decode = _CODECS[kind]
    format_name = "pickle" if blob[0] == _FMT_PICKLE else "codec"
    try:
        decoded = decode(blob)
    except Exception as exc:
        return f"{_KIND_NAMES[kind]} blob failed to decode: {exc}"
    try:
        redecoded = decode(encode(decoded, format_name))
    except Exception as exc:
        return f"{_KIND_NAMES[kind]} blob failed to re-encode: {exc}"
    return _divergence(kind, decoded, redecoded)


_EVENT_FIELDS = ("origin_asn", "prefix", "withdraw", "communities", "spoofed_origin_asn")


def _field_divergence(label: str, left, right, fields: tuple) -> str:
    for field in fields:
        if getattr(left, field) != getattr(right, field):
            return f"{label}.{field}: {getattr(left, field)!r} != {getattr(right, field)!r}"
    return f"{label}: {left!r} != {right!r}"


def _config_divergence(left: "dict[int, tuple]", right: "dict[int, tuple]") -> "str | None":
    """Compare two decoded config captures by *pickled value*.

    Policy objects compare by identity, so the generic ``left == right``
    check would flag every round trip (decoding necessarily builds new
    objects).  Two captures agree when every router's tuple re-pickles
    to identical bytes — the same equivalence the dedup table uses.
    """
    if left.keys() != right.keys():
        return f"config: router sets differ ({sorted(left)} != {sorted(right)})"
    for asn in sorted(left):
        a, b = left[asn], right[asn]
        if a is b or a == b:
            continue
        if pickle.dumps(tuple(a), protocol=pickle.HIGHEST_PROTOCOL) != pickle.dumps(
            tuple(b), protocol=pickle.HIGHEST_PROTOCOL
        ):
            return f"config[{asn}]: {a!r} != {b!r}"
    return None


def _divergence(kind: int, left, right) -> "str | None":
    """Name the first field where two decoded payloads differ."""
    if kind == KIND_CONFIG:
        return _config_divergence(left, right)
    if left == right:
        return None
    name = _KIND_NAMES[kind]
    if kind in (KIND_ADDITIONS,):
        if left.keys() != right.keys():
            return f"{name}: router sets differ ({sorted(left)} != {sorted(right)})"
        for asn in sorted(left):
            if left[asn] != right[asn]:
                return f"{name}[{asn}]: {left[asn]!r} != {right[asn]!r}"
        return f"{name}: payloads differ"
    if len(left) != len(right):
        return f"{name}: record count {len(left)} != {len(right)}"
    for position, (a, b) in enumerate(zip(left, right)):
        if a == b:
            continue
        label = f"{name}[{position}]"
        if kind == KIND_STATES:
            prefix_a, asn_a, originated_a, adjacent_a = a
            prefix_b, asn_b, originated_b, adjacent_b = b
            if prefix_a != prefix_b:
                return f"{label}.prefix: {prefix_a} != {prefix_b}"
            if asn_a != asn_b:
                return f"{label}.asn: {asn_a} != {asn_b}"
            if originated_a != originated_b:
                return f"{label}.originated: {originated_a!r} != {originated_b!r}"
            if len(adjacent_a) != len(adjacent_b):
                return f"{label}.adjacent: count {len(adjacent_a)} != {len(adjacent_b)}"
            for slot, ((na, ea), (nb, eb)) in enumerate(zip(adjacent_a, adjacent_b)):
                if na != nb:
                    return f"{label}.adjacent[{slot}].neighbor: {na} != {nb}"
                if ea != eb:
                    return _field_divergence(
                        f"{label}.adjacent[{slot}].entry", ea, eb, RouteEntry._fields
                    )
        if kind == KIND_EVENTS:
            return _field_divergence(label, a, b, _EVENT_FIELDS)
        return f"{label}: {a!r} != {b!r}"
    return f"{name}: payloads differ"
