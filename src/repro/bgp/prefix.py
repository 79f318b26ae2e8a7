"""IP prefix (NLRI) model supporting IPv4 and IPv6.

Prefixes are value objects: hashable, comparable, and normalised (host
bits are cleared on construction).  The data-plane FIB and the hijack
machinery rely on containment tests and on enumerating
more-specific sub-prefixes.
"""

from __future__ import annotations

from enum import IntEnum
from typing import NamedTuple

from repro.exceptions import PrefixError
from repro.utils import ip as ip_utils


class AddressFamily(IntEnum):
    """Address family identifiers (subset of IANA AFI values)."""

    IPV4 = 1
    IPV6 = 2

    @property
    def bits(self) -> int:
        """Address width in bits."""
        return 32 if self == AddressFamily.IPV4 else 128


class _PrefixFields(NamedTuple):
    family: AddressFamily
    network: int
    length: int


class Prefix(_PrefixFields):
    """An IP prefix, e.g. ``Prefix.from_string("192.0.2.0/24")``.

    Prefixes key every RIB, FIB and worklist container, so they are
    tuples: hashed, compared and ordered in C by ``(family, network, length)``.
    """

    __slots__ = ()

    def __new__(cls, family: AddressFamily, network: int, length: int) -> "Prefix":
        if not isinstance(family, AddressFamily):
            raise PrefixError(f"address family must be an AddressFamily, got {family!r}")
        bits = family.bits
        if not 0 <= length <= bits:
            raise PrefixError(f"prefix length {length} out of range for {family.name}")
        if not 0 <= network < (1 << bits):
            raise PrefixError(f"network {network} out of range for {family.name}")
        network &= ip_utils.mask_for_length(length, bits)
        return tuple.__new__(cls, (family, network, length))

    @classmethod
    def from_string(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` or ``h:h::/len`` text."""
        text = text.strip()
        if "/" not in text:
            raise PrefixError(f"invalid prefix {text!r}: missing '/length'")
        address_text, _, length_text = text.partition("/")
        length = ip_utils.parse_decimal(length_text, 3)
        if length is None:
            raise PrefixError(f"invalid prefix {text!r}: bad length")
        if ":" in address_text:
            family = AddressFamily.IPV6
            address = ip_utils.parse_ipv6(address_text)
        else:
            family = AddressFamily.IPV4
            address = ip_utils.parse_ipv4(address_text)
        return cls(family, address, length)

    @classmethod
    def ipv4(cls, network: int, length: int) -> "Prefix":
        """Build an IPv4 prefix from an integer network and length."""
        return cls(AddressFamily.IPV4, network, length)

    @classmethod
    def ipv6(cls, network: int, length: int) -> "Prefix":
        """Build an IPv6 prefix from an integer network and length."""
        return cls(AddressFamily.IPV6, network, length)

    @property
    def is_ipv4(self) -> bool:
        """True for IPv4 prefixes."""
        return self.family == AddressFamily.IPV4

    @property
    def address_text(self) -> str:
        """The network address in presentation format (without the length)."""
        if self.is_ipv4:
            return ip_utils.format_ipv4(self.network)
        return ip_utils.format_ipv6(self.network)

    def contains_prefix(self, other: "Prefix") -> bool:
        """Return True if this prefix covers ``other`` (is equal or less specific)."""
        if self.family != other.family:
            return False
        return ip_utils.prefix_contains(
            self.network, self.length, other.network, other.length, self.family.bits
        )

    def contains_address(self, address: int) -> bool:
        """Return True if ``address`` (an integer) falls inside this prefix."""
        bits = self.family.bits
        if not 0 <= address < (1 << bits):
            return False
        return ip_utils.network_address(address, self.length, bits) == self.network

    def subprefix(self, new_length: int, index: int) -> "Prefix":
        """Return the ``index``-th more-specific prefix of ``new_length`` bits.

        ``Prefix.from_string("10.0.0.0/8").subprefix(24, 1)`` is
        ``10.0.1.0/24``; used to model sub-prefix hijacks and /24
        blackhole announcements.
        """
        bits = self.family.bits
        if new_length < self.length:
            raise PrefixError(
                f"sub-prefix length {new_length} is shorter than parent length {self.length}"
            )
        if new_length > bits:
            raise PrefixError(f"sub-prefix length {new_length} exceeds {bits} bits")
        slots = 1 << (new_length - self.length)
        if not 0 <= index < slots:
            raise PrefixError(f"sub-prefix index {index} out of range (0..{slots - 1})")
        network = self.network | (index << (bits - new_length))
        return Prefix(self.family, network, new_length)

    def host(self, offset: int | None = None) -> int:
        """Return the address ``network + offset`` (a representative host).

        The default offset is 1, clamped to 0 for host routes (/32, /128)
        whose only address is the network address itself — so e.g. pinging
        a /32 RTBH announcement targets the blackholed address instead of
        raising.  An explicit out-of-range offset still raises.
        """
        bits = self.family.bits
        size = 1 << (bits - self.length)
        if offset is None:
            offset = 1 if size > 1 else 0
        if not 0 <= offset < size:
            raise PrefixError(f"host offset {offset} out of range for /{self.length}")
        return self.network + offset

    def __str__(self) -> str:
        return f"{self.address_text}/{self.length}"

    def __repr__(self) -> str:
        return f"Prefix({str(self)})"
