"""Runtime checks of the resident-shard sync protocol (``REPRO_SANITIZE=1``).

Determinism itself is checked by running the outputs under several hash
seeds (``tests/test_determinism.py``), not by analysing the source.
"""

from repro.analysis.sanitizer import SANITIZE_ENV, ProtocolViolationError

__all__ = ["ProtocolViolationError", "SANITIZE_ENV"]
