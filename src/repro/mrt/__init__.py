"""MRT routing-information export format (RFC 6396): BGP4MP update records.

The public BGP archives the paper uses (RIPE RIS, Route Views, Isolario,
PCH) distribute their update streams as MRT files of BGP4MP message
records.  This package frames and codes those records: the synthetic
collector platforms write their archives through
:func:`~repro.mrt.writer.encode_bgp4mp_message`, and
:meth:`~repro.collectors.observation.ObservationArchive.from_mrt` reads
them back through :func:`~repro.mrt.reader.iter_stream_records` and
:func:`~repro.mrt.reader.decode_bgp4mp_message`.  Records of any other
type are framed and skipped.
"""

from repro.mrt.entries import MrtRecord, Bgp4mpMessage
from repro.mrt.constants import MrtType, Bgp4mpSubtype

__all__ = [
    "MrtRecord",
    "Bgp4mpMessage",
    "MrtType",
    "Bgp4mpSubtype",
]
