"""Framing for the blobs of the resident shard protocol.

Every payload that crosses the fork boundary — the per-prefix state
deltas, the event batches, the export-community additions, the harvest
work-list, the observation rows coming back and the router config — is
one self-contained blob::

    byte 0   format   'P' = pickle
    byte 1   kind     'S' states | 'E' events | 'A' additions
                      | 'I' items | 'O' observations | 'C' config
    ...      pickle.dumps(payload)

The header lets the decoder reject a blob shipped into the wrong
envelope field.  Pickle adds no trust boundary here: the executor
already pickles every task envelope and result between the parent and
its own forked workers.  A compact varint codec shipped 2.5x fewer
bytes, but its pure-Python decode cost more CPU than the bytes saved.

Every failure to decode — a short header, a wrong kind, an unknown
format byte, a corrupt pickle — is a :class:`~repro.exceptions.WireError`
naming the kind the caller expected.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.exceptions import WireError

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


def _encode(kind: int, payload: Any) -> bytes:
    return bytes((_FMT_PICKLE, kind)) + pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def _decode(blob: bytes, kind: int) -> Any:
    name = _KIND_NAMES[kind]
    if len(blob) < 2:
        raise WireError(f"{name} blob shorter than its 2-byte header")
    if blob[1] != kind:
        raise WireError(f"expected a {name} blob, got {_KIND_NAMES.get(blob[1], blob[1])}")
    if blob[0] != _FMT_PICKLE:
        raise WireError(f"{name} blob has unknown wire format byte {blob[0]:#x}")
    try:
        return pickle.loads(blob[2:])
    except Exception as exc:  # corrupt pickles raise EOFError, UnpicklingError, ...
        raise WireError(f"corrupt {name} blob: {type(exc).__name__}: {exc}") from exc


def encode_states(states) -> bytes:
    """Encode :data:`~repro.routing.shard.PrefixState` records."""
    return _encode(KIND_STATES, list(states))


def decode_states(blob: bytes) -> list:
    return _decode(blob, KIND_STATES)


def encode_events(events) -> bytes:
    """Encode a :class:`~repro.routing.engine.RoutingEvent` batch (order kept)."""
    return _encode(KIND_EVENTS, list(events))


def decode_events(blob: bytes) -> list:
    return _decode(blob, KIND_EVENTS)


def encode_additions(additions: dict) -> bytes:
    """Encode per-router export-community additions."""
    return _encode(KIND_ADDITIONS, additions)


def decode_additions(blob: bytes) -> dict:
    return _decode(blob, KIND_ADDITIONS)


def encode_items(items) -> bytes:
    """Encode the harvest work-list (:class:`~repro.collectors.harvest.HarvestItem`)."""
    return _encode(KIND_ITEMS, list(items))


def decode_items(blob: bytes) -> list:
    return _decode(blob, KIND_ITEMS)


def encode_observations(groups) -> bytes:
    """Encode harvest rows: ``(item_index, [(prefix, as_path, communities)])``."""
    return _encode(KIND_OBSERVATIONS, list(groups))


def decode_observations(blob: bytes) -> list:
    return _decode(blob, KIND_OBSERVATIONS)


def encode_config(config: dict) -> bytes:
    """Encode a :func:`~repro.routing.shard.capture_router_config` capture."""
    return _encode(KIND_CONFIG, dict(config))


def decode_config(blob: bytes) -> dict:
    return _decode(blob, KIND_CONFIG)
