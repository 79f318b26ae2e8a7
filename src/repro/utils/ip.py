"""Low-level IPv4/IPv6 prefix arithmetic.

The BGP data model (:mod:`repro.bgp.prefix`) and the MRT codec
(:mod:`repro.mrt`) need fast integer-based address manipulation:
parsing, formatting, masking and containment checks.  We keep
these as plain functions over integers so hot loops (longest-prefix
match, dataset generation) avoid object allocation.
"""

from __future__ import annotations

from repro.exceptions import PrefixError

IPV4_BITS = 32
IPV6_BITS = 128

_IPV4_MAX = (1 << IPV4_BITS) - 1
_IPV6_MAX = (1 << IPV6_BITS) - 1

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def parse_decimal(text: str, max_digits: int) -> int | None:
    """``text`` as an integer if it is 1..``max_digits`` ASCII digits (no sign, ``_`` or ``²``)."""
    if 0 < len(text) <= max_digits and text.isascii() and text.isdigit():
        return int(text)
    return None


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad IPv4 text into an integer.

    >>> parse_ipv4("10.0.0.1")
    167772161
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise PrefixError(f"invalid IPv4 address {text!r}: expected 4 octets")
    value = 0
    for part in parts:
        octet = parse_decimal(part, 3)
        if octet is None:
            raise PrefixError(f"invalid IPv4 address {text!r}: non-numeric octet {part!r}")
        if octet > 255:
            raise PrefixError(f"invalid IPv4 address {text!r}: octet {octet} out of range")
        value = (value << 8) | octet
    return value


def format_ipv4(value: int) -> str:
    """Format an integer as dotted-quad IPv4 text."""
    if not 0 <= value <= _IPV4_MAX:
        raise PrefixError(f"IPv4 integer {value} out of range")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def parse_ipv6(text: str) -> int:
    """Parse IPv6 text (with optional ``::`` compression) into an integer."""
    text = text.strip()
    if text.count("::") > 1:
        raise PrefixError(f"invalid IPv6 address {text!r}: multiple '::'")
    if "::" in text:
        head, _, tail = text.partition("::")
        head_groups = head.split(":") if head else []
        tail_groups = tail.split(":") if tail else []
        missing = 8 - len(head_groups) - len(tail_groups)
        if missing < 1:
            raise PrefixError(f"invalid IPv6 address {text!r}: too many groups")
        groups = head_groups + ["0"] * missing + tail_groups
    else:
        groups = text.split(":")
    if len(groups) != 8:
        raise PrefixError(f"invalid IPv6 address {text!r}: expected 8 groups")
    value = 0
    for group in groups:
        if group == "":
            raise PrefixError(f"invalid IPv6 address {text!r}: empty group")
        # 1-4 hex digits: ``int(group, 16)`` would also read "-1", "+f" and "0x1".
        if len(group) > 4 or not _HEX_DIGITS.issuperset(group):
            raise PrefixError(f"invalid IPv6 address {text!r}: bad group {group!r}")
        value = (value << 16) | int(group, 16)
    return value


def format_ipv6(value: int) -> str:
    """Format an integer as IPv6 text, compressing the longest zero run."""
    if not 0 <= value <= _IPV6_MAX:
        raise PrefixError(f"IPv6 integer {value} out of range")
    groups = [(value >> (112 - 16 * i)) & 0xFFFF for i in range(8)]
    # Find the longest run of zero groups (length >= 2) to compress.
    best_start, best_len = -1, 0
    run_start, run_len = -1, 0
    for i, group in enumerate(groups):
        if group == 0:
            if run_start < 0:
                run_start, run_len = i, 1
            else:
                run_len += 1
            if run_len > best_len:
                best_start, best_len = run_start, run_len
        else:
            run_start, run_len = -1, 0
    if best_len >= 2:
        head = ":".join(format(g, "x") for g in groups[:best_start])
        tail = ":".join(format(g, "x") for g in groups[best_start + best_len:])
        return f"{head}::{tail}"
    return ":".join(format(g, "x") for g in groups)


def mask_for_length(length: int, bits: int) -> int:
    """Return the network mask integer for a prefix length."""
    if not 0 <= length <= bits:
        raise PrefixError(f"prefix length {length} out of range for {bits}-bit addresses")
    if length == 0:
        return 0
    return ((1 << length) - 1) << (bits - length)


def network_address(address: int, length: int, bits: int) -> int:
    """Return the network (base) address of ``address/length``."""
    return address & mask_for_length(length, bits)


def prefix_contains(
    outer_network: int,
    outer_length: int,
    inner_network: int,
    inner_length: int,
    bits: int,
) -> bool:
    """Return True if ``outer`` covers ``inner`` (outer is equal or less specific)."""
    if outer_length > inner_length:
        return False
    mask = mask_for_length(outer_length, bits)
    return (inner_network & mask) == (outer_network & mask)
