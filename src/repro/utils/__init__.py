"""Shared utilities: prefix arithmetic, statistics helpers, deterministic RNG, tables."""

from repro.utils.ip import (
    parse_ipv4,
    format_ipv4,
    parse_ipv6,
    format_ipv6,
    mask_for_length,
    network_address,
    prefix_contains,
)
from repro.utils.stats import Ecdf, Histogram, fraction, percentile
from repro.utils.rand import DeterministicRng
from repro.utils.tables import Table, format_count

__all__ = [
    "parse_ipv4",
    "format_ipv4",
    "parse_ipv6",
    "format_ipv6",
    "mask_for_length",
    "network_address",
    "prefix_contains",
    "Ecdf",
    "Histogram",
    "fraction",
    "percentile",
    "DeterministicRng",
    "Table",
    "format_count",
]
