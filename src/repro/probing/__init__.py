"""Active measurement: Atlas-like vantage points.

One probe round is the set of probe ids whose ping reached the target.
"""

from repro.probing.atlas import AtlasPlatform, VantagePoint

__all__ = ["AtlasPlatform", "VantagePoint"]
