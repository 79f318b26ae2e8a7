"""Route observations: the unit of data the measurement pipeline consumes.

A :class:`RouteObservation` is one (collector, peer, prefix) data point:
the AS path as seen by the collector peer and the communities attached
to the announcement (or a withdrawal marker — collectors see those
too).  Both the synthetic dataset generator and the live simulation
produce these; the Section 4 analyses consume them; and the MRT bridge
serialises them to and from standard BGP archives losslessly — IPv4 and
IPv6 announcements and withdrawals all round-trip.  An observation is
an immutable tuple of its eight fields (the
:class:`~repro.bgp.prefix.Prefix` idiom): the harvest builds one per
exported route and :meth:`~ObservationArchive.from_mrt` one per row
read, and it hashes as the tuple of its fields, as the frozen dataclass
it replaced did.  It keeps an instance dict for its cached path view.

Every :class:`ObservationArchive` query reads state built on first use,
never on :meth:`~ObservationArchive.add` (the inner loop of the
harvest):

* **One scan.**  Every Section 4 analysis starts from the same
  per-route facts: the collapsed path, the last-occurrence position of
  each ASN and the conservative (first-occurrence) tagger of each
  community.  :class:`RouteFacts` holds them, one row per *distinct*
  ``(as_path, communities)`` route, shared by equal observations.  One
  pass over the archive gives each observation its row and fills one
  :class:`ArchiveTally` per platform plus one for the whole archive:
  messages, prefixes, peers, per-collector announcement counts, and
  each distinct announced route with its observation count, in order
  of first appearance.  The analyses and the archive's own queries
  read those tallies instead of walking the observations again or
  cutting platform subsets; a multiset result (Figure 3's absolute
  count, 4(b), 5(b), 5(c), 6) weights each route by its count.
* **Derived-fact memo.**  :meth:`~ObservationArchive.derived` memoises
  that scan and the whole-archive results built on it (distinct
  communities, the §4.3 forwarder summary).  The rule: ``add`` drops
  the whole memo, so a query after an append recomputes from the full
  archive; the distinct-route table survives (a row depends on its
  route alone) and nothing derived is pickled or copied.
* **MRT: one encode / one decode per distinct record; the memo lives
  for one call.**  One peer's table heard at several collectors is the
  same BGP4MP record many times over, so
  :meth:`~ObservationArchive.write_mrt` keys encoded records by what a
  record carries and :meth:`~ObservationArchive.from_mrt` keys decoded
  rows by the record body.  The file is read a record at a time, but
  ``from_mrt`` is not constant memory: it holds the archive it builds
  and one row template per distinct record.
"""

from __future__ import annotations

from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, TypeVar

from repro.bgp.aspath import ASPath, collapse_prepending
from repro.bgp.attributes import PathAttributes
from repro.bgp.community import NO_COMMUNITIES, Community, CommunitySet
from repro.bgp.message import BgpUpdate
from repro.bgp.prefix import Prefix
from repro.exceptions import MrtError
from repro.mrt import reader as mrt_reader
from repro.mrt import writer as mrt_writer
from repro.mrt.constants import AFI_IPV4, AFI_IPV6
from repro.mrt.entries import Bgp4mpMessage, MrtRecord
from repro.utils.collector import collector_paused

#: MRT common headers carry a 32-bit Unix timestamp.
_MRT_TIMESTAMP_LIMIT = 1 << 32

#: Synthetic peer addressing for MRT export.  IPv6 peers live in
#: 2001:db8::/96 (ASN in the low 32 bits) and the collector in a
#: disjoint 2001:db8:0:ffff::/64 — no ASN can collide with it.  IPv4
#: has no room for an injective 32-bit-ASN mapping *plus* a disjoint
#: collector, so peers map identically (address = ASN, injective across
#: all peers) and the collector uses 192.0.2.1; only the one ASN equal
#: to that literal address could ever collide with the collector side.
_PEER_IPV6_BASE = 0x20010DB8 << 96
_COLLECTOR_IPV4 = 0xC0000201  # 192.0.2.1
_COLLECTOR_IPV6 = _PEER_IPV6_BASE | (0xFFFF << 64) | 1
#: The collector side's ASN in every exported record.
_COLLECTOR_ASN = 65000

_T = TypeVar("_T")


def peer_ip_for(peer_asn: int, address_family: int) -> int:
    """A deterministic, per-peer synthetic IP for MRT export.

    Distinct peers must not collapse onto one address (the constant
    ``10.0.0.1`` every peer used to get made archives unattributable),
    so the mapping is injective over the full 32-bit ASN space for both
    families.
    """
    if address_family == AFI_IPV4:
        return peer_asn & 0xFFFFFFFF
    return _PEER_IPV6_BASE | (peer_asn & 0xFFFFFFFF)


def collector_ip_for(address_family: int) -> int:
    """The synthetic collector-side IP for MRT export."""
    return _COLLECTOR_IPV4 if address_family == AFI_IPV4 else _COLLECTOR_IPV6


def _mrt_time(timestamp: float) -> tuple[int, int]:
    """``timestamp`` as the MRT header's seconds and the BGP4MP_ET microseconds.

    A fraction of a second goes to the microsecond field; rounding to
    whole microseconds may carry into the seconds, so it is the rounded
    seconds that must fit the 32-bit header.
    """
    if 0 <= timestamp < _MRT_TIMESTAMP_LIMIT:
        seconds, microseconds = divmod(round(timestamp * 1_000_000), 1_000_000)
        if seconds < _MRT_TIMESTAMP_LIMIT:
            return seconds, microseconds
    raise MrtError(
        f"observation timestamp {timestamp} does not fit the 32-bit "
        "MRT header (must be within 1970-01-01..2106-02-07 UTC)"
    )


def _mrt_message(observation: RouteObservation) -> Bgp4mpMessage:
    """The BGP4MP message that carries one observation."""
    seconds, microseconds = _mrt_time(observation.timestamp)
    address_family = AFI_IPV4 if observation.prefix.is_ipv4 else AFI_IPV6
    if observation.withdrawn:
        update = BgpUpdate(withdrawn=[observation.prefix])
    else:
        attributes = PathAttributes(
            as_path=ASPath(observation.as_path),
            communities=observation.communities,
        )
        update = BgpUpdate(announced=[observation.prefix], attributes=attributes)
    return Bgp4mpMessage(
        timestamp=seconds,
        peer_asn=observation.peer_asn,
        local_asn=_COLLECTOR_ASN,
        peer_ip=peer_ip_for(observation.peer_asn, address_family),
        local_ip=collector_ip_for(address_family),
        interface_index=0,
        address_family=address_family,
        update=update,
        microseconds=microseconds,
    )


def _mrt_records(observations: Iterable[RouteObservation]) -> list[bytes]:
    """The BGP4MP record of each observation, each distinct one encoded once."""
    encoded: dict[tuple, bytes] = {}
    records: list[bytes] = []
    for observation in observations:
        # Every field but the platform and the collector.
        key = observation[2:]
        record = encoded.get(key)
        if record is None:
            # Through the module: the perf tracer and the tests patch the attribute.
            record = encoded[key] = mrt_writer.encode_bgp4mp_message(_mrt_message(observation))
        records.append(record)
    return records


def _observed_rows(record: MrtRecord) -> tuple[tuple, ...]:
    """What one MRT record says, as ``(peer_asn, prefix, as_path, communities, withdrawn)`` rows.

    Withdrawn prefixes first, matching the wire layout; no rows for a
    record that is not a BGP4MP message.  Everything in a row is
    immutable, so equal records can share their rows.
    """
    if not record.is_bgp4mp_message:
        return ()
    # Through the module: the perf tracer and the tests patch the attribute.
    message = mrt_reader.decode_bgp4mp_message(record)
    update = message.update
    peer_asn = message.peer_asn
    as_path = tuple(update.attributes.as_path)
    communities = update.attributes.communities
    return tuple(
        [(peer_asn, prefix, (), NO_COMMUNITIES, True) for prefix in update.withdrawn]
        + [(peer_asn, prefix, as_path, communities, False) for prefix in update.announced]
    )


class _ObservationFields(NamedTuple):
    platform: str
    collector_id: str
    peer_asn: int
    prefix: Prefix
    #: AS path with the collector peer first and the origin AS last
    #: (prepending preserved; analyses normalise it themselves).
    as_path: tuple[int, ...]
    communities: CommunitySet = NO_COMMUNITIES
    timestamp: float = 0.0
    #: True for a withdrawal: the peer revoked the prefix.  Withdrawals
    #: carry no path or communities; they exist so MRT archives with
    #: mixed announce/withdraw streams replay losslessly.
    withdrawn: bool = False


class RouteObservation(_ObservationFields):
    """One route as observed at a collector (a tuple; see the module docstring).

    No ``__slots__``: the instance dict holds the cached path view.
    """

    @property
    def origin_asn(self) -> int | None:
        """The origin AS of the observed route."""
        return self.as_path[-1] if self.as_path else None

    @cached_property
    def path_without_prepending(self) -> tuple[int, ...]:
        """The AS path with consecutive duplicates collapsed (cached)."""
        return tuple(collapse_prepending(self.as_path))


#: Builds a :class:`RouteObservation` from the tuple of its eight fields
#: in C, skipping the generated ``__new__`` and its keyword handling.
_observation = partial(tuple.__new__, RouteObservation)


class RouteFacts:
    """What the Section 4 analyses derive from one ``(as_path, communities)`` route."""

    __slots__ = ("path", "last", "taggers")

    def __init__(self, as_path: tuple[int, ...], communities: CommunitySet):
        collapsed = collapse_prepending(as_path)
        #: The AS path with prepending collapsed (collector peer first).
        self.path: tuple[int, ...] = tuple(collapsed)
        #: ASN -> its position closest to the origin (optimistic attribution).
        self.last: dict[int, int] = {asn: index for index, asn in enumerate(collapsed)}
        # ASN -> its position closest to the collector (the paper's
        # conservative attribution); the same map on a loop-free path.
        first = self.last
        if len(first) != len(collapsed):
            first = {}
            for index, asn in enumerate(collapsed):
                first.setdefault(asn, index)
        #: ``(community, conservative tagger position or None if off-path)``
        #: per attached community, in the set's sorted order.
        self.taggers: tuple[tuple[Community, int | None], ...] = tuple(
            (community, first.get(community.asn)) for community in communities
        )


class ArchiveTally:
    """What the Section 4 analyses read of one platform's observations, or of all of them."""

    __slots__ = ("messages", "prefixes", "peers", "collectors", "routes")

    def __init__(self) -> None:
        #: Observations, withdrawals included.
        self.messages = 0
        self.prefixes: set[Prefix] = set()
        self.peers: set[int] = set()
        #: ``(platform, collector) -> [announcements, announcements with communities]``.
        self.collectors: dict[tuple[str, str], list[int]] = {}
        #: Each distinct announced route and how many observations carry it,
        #: in the order the routes first appear in the archive.
        self.routes: dict[RouteFacts, int] = {}


def _scan(
    archive: "ObservationArchive",
) -> tuple[tuple[RouteFacts, ...], dict[str | None, ArchiveTally]]:
    """The per-observation facts and the tallies, from one pass over the archive."""
    rows = archive._routes
    facts: list[RouteFacts] = []
    platforms: dict[str, ArchiveTally] = {}
    total = ArchiveTally()
    for platform, collector_id, peer_asn, prefix, as_path, communities, _, withdrawn in archive:
        route = (as_path, communities)
        row = rows.get(route)
        if row is None:
            row = rows[route] = RouteFacts(as_path, communities)
        facts.append(row)
        tally = platforms.get(platform)
        if tally is None:
            tally = platforms[platform] = ArchiveTally()
        tally.messages += 1
        tally.prefixes.add(prefix)
        tally.peers.add(peer_asn)
        counts = tally.collectors.setdefault((platform, collector_id), [0, 0])
        if not withdrawn:
            counts[0] += 1
            counts[1] += bool(row.taggers)
            tally.routes[row] = tally.routes.get(row, 0) + 1
            total.routes[row] = total.routes.get(row, 0) + 1
    # The whole archive's sets are the platforms' unions; its routes keep archive order.
    total.messages = len(facts)
    tallies: dict[str | None, ArchiveTally] = {}
    for platform in sorted(platforms):
        tally = tallies[platform] = platforms[platform]
        total.prefixes |= tally.prefixes
        total.peers |= tally.peers
        total.collectors.update(tally.collectors)
    tallies[None] = total
    return tuple(facts), tallies


def _unique_communities(archive: "ObservationArchive") -> frozenset[Community]:
    return frozenset(c for route in archive.route_counts() for c, _ in route.taggers)


class ObservationArchive:
    """A collection of route observations with memoised queries and MRT round-tripping."""

    def __init__(self, observations: Iterable[RouteObservation] = ()):
        self._observations: list[RouteObservation] = list(observations)
        #: Results of :meth:`derived`, dropped by :meth:`add`.
        self._derived: dict[Callable, Any] | None = None
        #: One :class:`RouteFacts` row per distinct route.  A row is a pure
        #: function of its key, so appends never stale it.
        self._routes: dict[tuple[tuple[int, ...], CommunitySet], RouteFacts] = {}

    def __getstate__(self) -> list[RouteObservation]:
        # Derived facts stay home; a copy starts without them.
        return list(self._observations)

    def __setstate__(self, observations: list[RouteObservation]) -> None:
        self.__init__(observations)

    # --------------------------------------------------------------- mutation
    def add(self, observation: RouteObservation) -> None:
        """Append one observation."""
        self._observations.append(observation)
        self._derived = None

    def extend(self, observations: Iterable[RouteObservation]) -> None:
        """Append many observations."""
        for observation in observations:
            self.add(observation)

    # ---------------------------------------------------------- derived facts
    def derived(self, compute: Callable[["ObservationArchive"], _T]) -> _T:
        """Return ``compute(self)``, memoised (per function) until the next :meth:`add`.

        Callers share the returned object: treat it as read-only.
        """
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        if compute not in memo:
            memo[compute] = compute(self)
        return memo[compute]

    def route_facts(self) -> tuple[RouteFacts, ...]:
        """The :class:`RouteFacts` of every observation, in archive order (memoised)."""
        return self.derived(_scan)[0]

    def tallies(self) -> dict[str | None, ArchiveTally]:
        """One :class:`ArchiveTally` per platform, sorted by name, then the whole
        archive's under ``None`` (memoised with :meth:`route_facts`)."""
        return self.derived(_scan)[1]

    def route_counts(self) -> dict[RouteFacts, int]:
        """Each distinct announced route and its observation count, in archive order (memoised)."""
        return self.tallies()[None].routes

    # ---------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._observations)

    def __iter__(self) -> Iterator[RouteObservation]:
        return iter(self._observations)

    def platforms(self) -> list[str]:
        """Return the distinct platform names, sorted."""
        return [platform for platform in self.tallies() if platform is not None]

    def collectors(self) -> list[tuple[str, str]]:
        """Return the distinct (platform, collector) pairs, sorted."""
        return sorted(self.tallies()[None].collectors)

    def peer_asns(self) -> set[int]:
        """Return the distinct collector-peer ASNs."""
        return set(self.tallies()[None].peers)

    def prefixes(self) -> set[Prefix]:
        """Return the distinct observed prefixes."""
        return set(self.tallies()[None].prefixes)

    def observed_community_asns(self) -> set[int]:
        """Return every ASN encoded in any observed community."""
        return {community.asn for community in self.derived(_unique_communities)}

    def unique_communities(self) -> set[Community]:
        """Return the distinct communities observed (a fresh set; the scan is memoised)."""
        return set(self.derived(_unique_communities))

    # ------------------------------------------------------------------- MRT
    def to_mrt_messages(self) -> Iterator[Bgp4mpMessage]:
        """Convert every observation — IPv4 and IPv6, announce and withdraw —
        to BGP4MP messages.

        Withdrawals become withdrawal-only UPDATEs; each peer gets a
        distinct synthetic address (see :func:`peer_ip_for`); and a
        timestamp outside the 32-bit MRT window raises a clear
        :class:`MrtError` instead of wrapping silently in the header.
        """
        for observation in self._observations:
            yield _mrt_message(observation)

    def write_mrt(self, path: str | Path) -> int:
        """Write the archive as an MRT file; return the record count.

        The bytes are those of :meth:`to_mrt_messages` put through
        :func:`~repro.mrt.writer.encode_bgp4mp_message`, but a record is
        a function of ``(timestamp, peer, prefix, path, communities,
        withdrawn)`` alone, so observations that agree on all six (one
        peer heard at several collectors) are encoded once.

        Every record is encoded before the destination is opened: an
        observation the format cannot carry (a timestamp outside the
        32-bit header, an UPDATE over 4 096 bytes) fails the whole write
        and leaves whatever was at ``path`` as it was.  The encoding
        runs with the cyclic collector paused (see
        :class:`~repro.utils.collector.collector_paused`): it makes no
        reference cycle, so the collector would only re-walk the
        archive and the records.
        """
        with collector_paused():
            # The encode memo is freed before the collector resumes, so
            # it never walks the memo's keys.
            records = _mrt_records(self._observations)
        with Path(path).open("wb") as stream:
            stream.writelines(records)
        return len(records)

    @classmethod
    def from_mrt(
        cls, path: str | Path, platform: str = "mrt", collector_id: str = "mrt-0"
    ) -> "ObservationArchive":
        """Load an MRT update file into an archive (streamed record-at-a-time).

        Both sides of every UPDATE are surfaced: withdrawn prefixes
        become withdrawal-marked observations (first, matching the wire
        layout) and announced prefixes regular ones — so a write →
        read round-trip is lossless for mixed archives.  A BGP4MP_ET
        record's microsecond field is part of its rows' timestamp.

        The file is read one record at a time, but the archive it fills
        is in memory, and so is one set of decoded rows per *distinct*
        record body: records that differ in their timestamp only are
        decoded once and share their path and community objects.  The
        read runs with the cyclic collector paused (see
        :class:`~repro.utils.collector.collector_paused`): it makes no
        reference cycle, so the collector would only re-walk the rows.
        """
        observations: list[RouteObservation] = []
        append = observations.append
        decoded: dict[tuple[int, int, bytes], tuple[tuple, ...]] = {}
        with collector_paused(), Path(path).open("rb") as stream:
            for record in mrt_reader.iter_stream_records(stream):
                # ``(mrt_type, subtype, payload)``: the record less its timestamps.
                key = record[1:4]
                rows = decoded.get(key)
                if rows is None:
                    rows = decoded[key] = _observed_rows(record)
                timestamp = record.timestamp + record.microseconds / 1e6
                for peer_asn, prefix, as_path, communities, withdrawn in rows:
                    append(
                        _observation(
                            (platform, collector_id, peer_asn, prefix, as_path, communities,
                             timestamp, withdrawn)
                        )
                    )
            return cls(observations)
