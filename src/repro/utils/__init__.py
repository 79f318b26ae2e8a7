"""Shared utilities: prefix arithmetic, statistics helpers, deterministic RNG, tables,
pausing the cyclic garbage collector."""

from repro.utils.ip import (
    parse_ipv4,
    format_ipv4,
    parse_ipv6,
    format_ipv6,
    mask_for_length,
    network_address,
    prefix_contains,
)
from repro.utils.stats import Ecdf, fraction, percentile
from repro.utils.rand import DeterministicRng
from repro.utils.tables import Table, format_count
from repro.utils.collector import collector_paused

__all__ = [
    "parse_ipv4",
    "format_ipv4",
    "parse_ipv6",
    "format_ipv6",
    "mask_for_length",
    "network_address",
    "prefix_contains",
    "Ecdf",
    "fraction",
    "percentile",
    "DeterministicRng",
    "Table",
    "format_count",
    "collector_paused",
]
