"""The sanctioned write path into frozen dataclass instances.

Frozen dataclass value objects (:class:`~repro.bgp.attributes.PathAttributes`,
...) occasionally need a real field write: normalising a field during
``__post_init__`` or memoising an immutable derivation (the cached
``_hash`` and decision key of path attributes).  Tuple-backed records
(:class:`~repro.bgp.prefix.Prefix`, :class:`~repro.bgp.route.RouteEntry`)
never do: they validate in ``__new__`` and hash in C.  Scattering raw
``object.__setattr__`` calls for that makes the immutability discipline
unreviewable — any call site could be mutating anything.

:func:`set_frozen_field` is the single blessed escape hatch: lint rule
``RPR020`` (:mod:`repro.analysis`) flags every ``object.__setattr__``
outside ``__post_init__`` and this helper, so all frozen-instance
writes are findable in one place and reviewable as one pattern.  The
contract for callers: write only during construction, or write a value
that is a pure function of already-frozen fields (a cache, never a
state change).
"""

from __future__ import annotations

from typing import Any


def set_frozen_field(instance: Any, name: str, value: Any) -> None:
    """Write ``name`` on a frozen dataclass instance.

    Only legitimate during construction (``__post_init__`` field
    normalisation) or to memoise a value derived purely from frozen
    fields — the observable value semantics of ``instance`` must not
    change.
    """
    object.__setattr__(instance, name, value)
