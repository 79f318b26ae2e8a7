"""The streaming front end: coalescing, feed/drain, and the wire format."""

from __future__ import annotations

import json

import pytest

from repro.bgp.community import BLACKHOLE, CommunitySet
from repro.bgp.prefix import Prefix
from repro.exceptions import RoutingError
from repro.routing.engine import BgpSimulator, RoutingEvent, SimulationReport
from repro.routing.stream import (
    _EVENT_KEYS,
    DEFAULT_WINDOW,
    SimulatorService,
    parse_event,
    read_event_stream,
)
from repro.topology.generator import TopologyGenerator, TopologyParameters

#: Every field a stream event may carry, aliases included.
EVENT_FIELDS = sorted(_EVENT_KEYS)
#: The stream-event fuzz, as JSON tokens.
EVENT_FUZZ_TOKENS = ['"x"', "null", "-1", "1.5", "true", '"false"', "[]", "{}", '""']
#: The fuzz cases that decode: ``withdraw: true`` and an optional field left empty.
EVENT_FUZZ_ACCEPTED = {
    ("withdraw", "true"),
    ("communities", "null"),
    ("communities", "[]"),
    ("spoofed_origin", "null"),
    ("spoofed_origin_asn", "null"),
}


def fuzz_record(field: str, token: str) -> dict:
    """A valid event whose ``field`` is replaced by the JSON ``token``."""
    record = {"origin_asn" if field == "origin_asn" else "origin": 65001, "prefix": "10.0.0.0/24"}
    record[field] = json.loads(token)
    return record


def small_topology(seed=11):
    parameters = TopologyParameters(
        tier1_count=3, transit_count=6, stub_count=16, ixp_count=0, seed=seed
    )
    return TopologyGenerator(parameters).generate()


def prefix(index: int) -> Prefix:
    return Prefix.ipv4(Prefix.from_string("10.0.0.0/8").network + (index << 8), 24)


def buffered(events) -> list[RoutingEvent]:
    """What a service that never drains holds after ``events``."""
    service = SimulatorService(BgpSimulator(small_topology(), shards=1), window=100)
    service.feed(events)
    return service.pending_events()


class TestCoalesce:
    def test_last_writer_wins_per_origin_prefix(self):
        first = RoutingEvent(origin_asn=65001, prefix=prefix(0))
        superseded = RoutingEvent(
            origin_asn=65001, prefix=prefix(0), communities=CommunitySet.of(BLACKHOLE)
        )
        other_origin = RoutingEvent(origin_asn=65002, prefix=prefix(0))
        withdraw = RoutingEvent.withdrawal(65001, prefix(0))
        out = buffered([first, other_origin, superseded, withdraw])
        # 65001's three events collapse to the final withdraw; a different
        # origin for the same prefix is a distinct key and survives.
        assert out == [withdraw, other_origin]

    def test_keys_keep_first_seen_order(self):
        events = [
            RoutingEvent(origin_asn=65001, prefix=prefix(0)),
            RoutingEvent(origin_asn=65001, prefix=prefix(1)),
            RoutingEvent(origin_asn=65001, prefix=prefix(0), withdraw=True),
        ]
        out = buffered(events)
        assert [e.prefix for e in out] == [prefix(0), prefix(1)]
        assert out[0].withdraw

    def test_empty(self):
        assert buffered([]) == []


class TestSimulatorService:
    def test_window_must_be_positive(self):
        simulator = BgpSimulator(small_topology(), shards=1)
        with pytest.raises(RoutingError, match="window"):
            SimulatorService(simulator, window=0)

    def test_feed_buffers_until_window_fills(self):
        topology = small_topology()
        ases = sorted(a.asn for a in topology)
        simulator = BgpSimulator(topology, shards=1)
        service = SimulatorService(simulator, window=3)
        assert service.feed(RoutingEvent(origin_asn=ases[0], prefix=prefix(0))) == []
        assert service.feed(RoutingEvent(origin_asn=ases[0], prefix=prefix(1))) == []
        assert len(service.pending_events()) == 2
        reports = service.feed(RoutingEvent(origin_asn=ases[0], prefix=prefix(2)))
        assert len(reports) == 1 and reports[0].announcements_processed > 0
        assert service.pending_events() == []
        assert service.stats.batches == 1
        assert service.stats.events_seen == 3
        assert service.stats.events_coalesced == 0
        assert service.stats.events_applied == 3

    def test_coalesced_events_do_not_fill_the_window(self):
        topology = small_topology()
        asn = sorted(a.asn for a in topology)[0]
        simulator = BgpSimulator(topology, shards=1)
        service = SimulatorService(simulator, window=3)
        # Five events, one key: the buffer never reaches three entries.
        for _ in range(5):
            assert service.feed(RoutingEvent(origin_asn=asn, prefix=prefix(0))) == []
        assert service.stats.events_seen == 5
        assert service.stats.events_coalesced == 4
        assert len(service.pending_events()) == 1

    def test_drain_empty_is_a_noop(self):
        simulator = BgpSimulator(small_topology(), shards=1)
        service = SimulatorService(simulator, window=DEFAULT_WINDOW)
        assert service.window == DEFAULT_WINDOW
        report = service.drain()
        assert isinstance(report, SimulationReport)
        assert report.announcements_processed == 0
        assert service.stats.batches == 0

    def test_context_manager_drains_on_clean_exit_only(self):
        topology = small_topology()
        asn = sorted(a.asn for a in topology)[0]
        simulator = BgpSimulator(topology, shards=1)
        with SimulatorService(simulator, window=100) as service:
            service.feed(RoutingEvent(origin_asn=asn, prefix=prefix(0)))
        assert service.pending_events() == []
        assert service.stats.batches == 1
        assert simulator.router(asn).loc_rib.best(prefix(0)) is not None

        failing = SimulatorService(simulator, window=100)
        with pytest.raises(ValueError):
            with failing:
                failing.feed(RoutingEvent(origin_asn=asn, prefix=prefix(1)))
                raise ValueError("stream source broke")
        # The buffered event is still pending, not silently converged.
        assert len(failing.pending_events()) == 1
        assert failing.stats.batches == 0


class TestWireFormat:
    def test_parse_minimal_event(self):
        event = parse_event({"origin": 65001, "prefix": "10.0.0.0/24"})
        assert event == RoutingEvent(
            origin_asn=65001, prefix=Prefix.from_string("10.0.0.0/24")
        )

    def test_parse_full_event_with_aliases(self):
        event = parse_event(
            {
                "origin_asn": "65001",
                "prefix": "10.0.0.0/24",
                "withdraw": True,
                "communities": ["65001:666"],
                "spoofed_origin_asn": 0,
            }
        )
        assert event.withdraw
        assert event.origin_asn == 65001
        assert event.spoofed_origin_asn == 0
        assert event.communities == CommunitySet.of("65001:666")

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ({"origin": 65001, "prefix": "10.0.0.0/24", "nope": 1}, "unknown stream event field"),
            ({"prefix": "10.0.0.0/24"}, "needs at least"),
            ({"origin": 65001}, "needs at least"),
            ({"origin": "sixty-five", "prefix": "10.0.0.0/24"}, "AS number"),
            ({"origin": 65001, "prefix": "not-a-prefix"}, "bad stream event prefix"),
            ([65001, "10.0.0.0/24"], "must be a JSON object"),
        ],
    )
    def test_parse_rejections(self, record, fragment):
        with pytest.raises(RoutingError, match=fragment):
            parse_event(record)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("withdraw", "false"),  # bool("false") is True: read as a withdraw
            ("origin", 1.9),  # int() truncated to AS1
            ("origin", True),  # int(True) is AS1
            ("origin", -5),
            ("spoofed_origin", 2.5),
            ("communities", "65001:1"),  # iterated character by character
        ],
    )
    def test_values_are_validated_not_coerced(self, field, value):
        with pytest.raises(RoutingError, match=f"field '{field}'"):
            parse_event({"origin": 65001, "prefix": "10.0.0.0/24", field: value})

    @pytest.mark.parametrize("field", EVENT_FIELDS)
    def test_event_fuzz_ends_in_an_error_naming_field_and_line(self, field):
        """Every field, every bad value: an error naming both, or a faithful event."""
        accepted = set()
        for token in EVENT_FUZZ_TOKENS:
            lines = ["# header", json.dumps(fuzz_record(field, token))]
            try:
                [event] = read_event_stream(lines)
            except RoutingError as error:
                assert str(error).startswith("stream line 2: "), (token, error)
                assert repr(field) in str(error), (token, error)
            else:
                accepted.add((field, token))
                assert event == RoutingEvent(
                    origin_asn=65001,
                    prefix=Prefix.from_string("10.0.0.0/24"),
                    withdraw=field == "withdraw",
                )
        assert accepted == {case for case in EVENT_FUZZ_ACCEPTED if case[0] == field}

    def test_read_event_stream_skips_blanks_and_comments(self):
        lines = [
            "# a comment",
            "",
            '{"origin": 65001, "prefix": "10.0.0.0/24"}',
            "   ",
            '{"origin": 65002, "prefix": "10.0.1.0/24", "withdraw": true}',
        ]
        events = list(read_event_stream(lines))
        assert [e.origin_asn for e in events] == [65001, 65002]
        assert events[1].withdraw

    def test_read_event_stream_reports_line_numbers(self):
        with pytest.raises(RoutingError, match="stream line 2: invalid JSON"):
            list(read_event_stream(["# header", "{not json"]))
        with pytest.raises(RoutingError, match="stream line 3: unknown stream event"):
            list(
                read_event_stream(
                    [
                        '{"origin": 65001, "prefix": "10.0.0.0/24"}',
                        "",
                        '{"origin": 65001, "prefix": "10.0.0.0/24", "bogus": true}',
                    ]
                )
            )
