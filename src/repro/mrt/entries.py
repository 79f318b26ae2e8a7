"""Decoded MRT records.

An update archive is made of :class:`MrtRecord` (the raw framing) and
:class:`Bgp4mpMessage` (a decoded BGP4MP message).  Both are tuples in
the :class:`~repro.bgp.prefix.Prefix` / :class:`~repro.bgp.route.RouteEntry`
idiom: one of each is built per record read or written, so they are
constructed, hashed and compared in C.  They are immutable values with
the hash of the tuple of their fields, as the frozen dataclasses they
replace had.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.bgp.message import BgpUpdate
from repro.mrt.constants import Bgp4mpSubtype, MrtType

#: Plain-int record codes: the type tests below run once per record read.
_BGP4MP_TYPES = frozenset((int(MrtType.BGP4MP), int(MrtType.BGP4MP_ET)))
_MESSAGE_SUBTYPES = frozenset((int(Bgp4mpSubtype.MESSAGE), int(Bgp4mpSubtype.MESSAGE_AS4)))


class MrtRecord(NamedTuple):
    """A raw MRT record: common header plus undecoded payload bytes."""

    timestamp: int
    mrt_type: int
    subtype: int
    payload: bytes
    microseconds: int = 0

    @property
    def is_bgp4mp(self) -> bool:
        """True for BGP4MP / BGP4MP_ET records."""
        return self.mrt_type in _BGP4MP_TYPES

    @property
    def is_bgp4mp_message(self) -> bool:
        """True for the BGP4MP records that carry a BGP message (2- or 4-byte AS form)."""
        return self.mrt_type in _BGP4MP_TYPES and self.subtype in _MESSAGE_SUBTYPES


class Bgp4mpMessage(NamedTuple):
    """A decoded BGP4MP_MESSAGE_AS4 record: who sent what to whom, and the update.

    ``microseconds`` is the BGP4MP_ET microsecond field: a record with
    microseconds is written as BGP4MP_ET, one without as plain BGP4MP.
    """

    timestamp: int
    peer_asn: int
    local_asn: int
    peer_ip: int
    local_ip: int
    interface_index: int
    address_family: int
    update: BgpUpdate
    microseconds: int = 0
