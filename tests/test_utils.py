"""Tests for repro.utils: IP arithmetic, statistics, RNG, table rendering."""

from __future__ import annotations

import gc
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import MeasurementError, PrefixError
from repro.utils.collector import collector_paused
from repro.utils.ip import (
    format_ipv4,
    format_ipv6,
    mask_for_length,
    network_address,
    parse_ipv4,
    parse_ipv6,
    prefix_contains,
)
from repro.utils.rand import DeterministicRng
from repro.utils.stats import Ecdf, Histogram, fraction, percentile
from repro.utils.tables import Table, format_count


# ----------------------------------------------------------------------- ip
class TestIpv4:
    def test_parse_basic(self):
        assert parse_ipv4("10.0.0.1") == 0x0A000001

    def test_parse_zero(self):
        assert parse_ipv4("0.0.0.0") == 0

    def test_parse_broadcast(self):
        assert parse_ipv4("255.255.255.255") == 0xFFFFFFFF

    def test_format_roundtrip(self):
        assert format_ipv4(parse_ipv4("192.0.2.123")) == "192.0.2.123"

    def test_parse_rejects_bad_octet(self):
        with pytest.raises(PrefixError):
            parse_ipv4("256.0.0.1")

    def test_parse_rejects_short(self):
        with pytest.raises(PrefixError):
            parse_ipv4("10.0.0")

    def test_parse_rejects_garbage(self):
        with pytest.raises(PrefixError):
            parse_ipv4("a.b.c.d")

    def test_format_rejects_out_of_range(self):
        with pytest.raises(PrefixError):
            format_ipv4(1 << 32)

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        assert parse_ipv4(format_ipv4(value)) == value


class TestIpv6:
    def test_parse_full(self):
        assert parse_ipv6("2001:db8:0:0:0:0:0:1") == (0x20010DB8 << 96) | 1

    def test_parse_compressed(self):
        assert parse_ipv6("2001:db8::1") == (0x20010DB8 << 96) | 1

    def test_parse_all_zero(self):
        assert parse_ipv6("::") == 0

    def test_format_compresses(self):
        assert format_ipv6((0x20010DB8 << 96) | 1) == "2001:db8::1"

    def test_rejects_double_compression(self):
        with pytest.raises(PrefixError):
            parse_ipv6("2001::db8::1")

    def test_rejects_too_many_groups(self):
        with pytest.raises(PrefixError):
            parse_ipv6("1:2:3:4:5:6:7:8:9")

    @given(st.integers(min_value=0, max_value=(1 << 128) - 1))
    def test_roundtrip_property(self, value):
        assert parse_ipv6(format_ipv6(value)) == value


class TestMasks:
    def test_mask_24(self):
        assert mask_for_length(24) == 0xFFFFFF00

    def test_mask_0(self):
        assert mask_for_length(0) == 0

    def test_mask_32(self):
        assert mask_for_length(32) == 0xFFFFFFFF

    def test_mask_rejects_invalid(self):
        with pytest.raises(PrefixError):
            mask_for_length(33)

    def test_network_address(self):
        assert network_address(parse_ipv4("192.0.2.77"), 24) == parse_ipv4("192.0.2.0")

    def test_contains(self):
        outer = parse_ipv4("10.0.0.0")
        inner = parse_ipv4("10.1.2.0")
        assert prefix_contains(outer, 8, inner, 24)
        assert not prefix_contains(inner, 24, outer, 8)


# -------------------------------------------------------------------- stats
class TestEcdf:
    def test_empty(self):
        ecdf = Ecdf([])
        assert len(ecdf) == 0
        assert ecdf.at(10) == 0.0
        assert not ecdf

    def test_at_and_survival(self):
        ecdf = Ecdf([1, 2, 3, 4])
        assert ecdf.at(2) == pytest.approx(0.5)
        assert ecdf.survival(2) == pytest.approx(0.5)
        assert ecdf.at(0) == 0.0
        assert ecdf.at(10) == 1.0

    def test_points_monotone(self):
        ecdf = Ecdf([3, 1, 2, 2, 5])
        points = ecdf.points()
        xs = [p.x for p in points]
        fractions = [p.fraction for p in points]
        assert xs == sorted(xs)
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)

    def test_quantile_median(self):
        assert Ecdf([1, 2, 3]).quantile(0.5) == pytest.approx(2)

    def test_mean(self):
        assert Ecdf([2, 4]).mean() == pytest.approx(3.0)

    def test_mean_empty_raises(self):
        with pytest.raises(MeasurementError):
            Ecdf([]).mean()

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), min_size=1))
    def test_at_is_monotone_property(self, values):
        ecdf = Ecdf(values)
        lo, hi = min(values), max(values)
        assert ecdf.at(lo - 1) <= ecdf.at(lo) <= ecdf.at(hi) <= 1.0
        assert ecdf.at(hi) == pytest.approx(1.0)


class TestStatsHelpers:
    def test_fraction_zero_denominator(self):
        assert fraction(5, 0) == 0.0

    def test_fraction(self):
        assert fraction(1, 4) == pytest.approx(0.25)

    def test_percentile_interpolates(self):
        assert percentile([0, 10], 50) == pytest.approx(5.0)

    def test_percentile_bounds(self):
        with pytest.raises(MeasurementError):
            percentile([1], 101)

    def test_percentile_empty(self):
        with pytest.raises(MeasurementError):
            percentile([], 50)

    def test_histogram_top(self):
        histogram = Histogram(["a", "b", "a", "a", "c"])
        assert histogram.top(1) == [("a", 3)]
        assert histogram.total() == 5
        assert histogram.count("b") == 1
        assert "c" in histogram

    def test_histogram_fractions(self):
        histogram = Histogram(["x", "x", "y", "y"])
        fractions = histogram.fractions()
        assert fractions["x"] == pytest.approx(0.5)


# ---------------------------------------------------------------------- rng
class TestDeterministicRng:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(5)
        b = DeterministicRng(5)
        assert [a.randint(0, 100) for _ in range(10)] == [b.randint(0, 100) for _ in range(10)]

    def test_children_are_independent_and_stable(self):
        a1 = DeterministicRng(5).child("alpha")
        a2 = DeterministicRng(5).child("alpha")
        b = DeterministicRng(5).child("beta")
        seq_a1 = [a1.randint(0, 1000) for _ in range(5)]
        seq_a2 = [a2.randint(0, 1000) for _ in range(5)]
        seq_b = [b.randint(0, 1000) for _ in range(5)]
        assert seq_a1 == seq_a2
        assert seq_a1 != seq_b

    @pytest.mark.parametrize(
        "label, seed, first_draw",
        [
            ("transit-links", 104510823235844, 199244),
            ("usage", 304773126990, 85215),
            ("peering", 137853575718905, 70755),
            ("stub-links", 25188895267117, 27854),
            ("updates", 22809694941279, 454475),
            ("ixps", 2299623109, 97992),
            ("prefixes", 110117246742635, 965539),
            ("research-network", 116842339831051, 872934),
            ("policies", 95226433491151, 775324),
            ("services", 60785649598641, 358475),
            ("atlas", 298885564660, 741984),
            ("blackhole-list", 64838062962383, 621757),
            ("collector-deployment", 124063488216724, 972804),
        ],
    )
    def test_child_stream_is_pinned_for_every_generator_label(self, label, seed, first_draw):
        """The labels the generators draw from keep their streams in every
        process: a child seeded from the salted ``hash(label)`` misses these."""
        child = DeterministicRng(7).child(label)
        assert child.getstate() == random.Random(seed).getstate()
        assert child.randint(0, 10**6) == first_draw

    def test_a_mixed_call_sequence_is_pinned(self):
        """Every method the generators call, interleaved on one stream; a pickled
        copy continues it."""
        rng = DeterministicRng(2018)
        draws = [
            rng.randint(1, 65535),
            rng.random(),
            rng.chance(0.5),
            rng.choice([10, 20, 30, 40]),
            rng.sample([1, 2, 3, 4, 5], 2),
            rng.sample((7, 8, 9), 10),
            rng.weighted_choice(["a", "b", "c"], [1.0, 2.0, 0.5]),
            rng.pareto_int(1.8, 1, 20),
            rng.pareto_int(1.2, 3, None),
            rng.child("updates").randint(0, 10**6),
        ]
        twin = pickle.loads(pickle.dumps(rng))
        draws.append(rng.randint(0, 10**6))
        assert draws == [34942, 0.1274209844148867, True, 30, [1, 4], [9, 7, 8], "a", 3, 4, 210147, 553845]
        assert twin.randint(0, 10**6) == 553845

    def test_sample_bounded(self):
        rng = DeterministicRng(1)
        assert len(rng.sample([1, 2, 3], 10)) == 3

    def test_chance_extremes(self):
        rng = DeterministicRng(2)
        assert not rng.chance(0.0)
        assert rng.chance(1.0)

    def test_pareto_respects_bounds(self):
        rng = DeterministicRng(3)
        for _ in range(100):
            value = rng.pareto_int(1.5, minimum=1, maximum=4)
            assert 1 <= value <= 4

    def test_weighted_choice_picks_from_items(self):
        rng = DeterministicRng(5)
        assert rng.weighted_choice(["a", "b"], [1.0, 1.0]) in {"a", "b"}


# -------------------------------------------------------------------- tables
class TestTables:
    def test_render_alignment(self):
        table = Table(["A", "B"], title="demo")
        table.add_row(["x", 1])
        table.add_row(["longer", 20000])
        text = table.render()
        assert "demo" in text
        assert "20,000" in text
        lines = text.splitlines()
        assert len(lines) == 5  # title, header, separator, two rows

    def test_wrong_column_count_rejected(self):
        table = Table(["A", "B"])
        with pytest.raises(ValueError):
            table.add_row(["only one"])

    def test_format_count(self):
        assert format_count(1234567) == "1,234,567"
        assert format_count(0.5) == "0.50"
        assert format_count(True) == "True"


@pytest.mark.usefixtures("collector_state")
class TestCollectorPaused:
    def test_leaving_the_block_runs_no_collection(self):
        # The deferred collection must wait for the caller's next
        # allocation, after it has dropped what the block built: were
        # leaving the block to allocate, it would walk all of it now.
        collections: list[str] = []

        def record(phase, info):
            collections.append(phase)

        gc.enable()
        with collector_paused():
            built = [[] for _ in range(10_000)]  # far past the gen-0 threshold
            gc.callbacks.append(record)
        gc.callbacks.remove(record)
        assert collections == []
        assert gc.isenabled()
        del built
