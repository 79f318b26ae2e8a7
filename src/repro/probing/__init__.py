"""Active measurement: Atlas-like vantage points and looking glasses."""

from repro.probing.atlas import AtlasPlatform, ProbeMeasurement, VantagePoint
from repro.probing.looking_glass import LookingGlass, LookingGlassEntry

__all__ = [
    "AtlasPlatform",
    "ProbeMeasurement",
    "VantagePoint",
    "LookingGlass",
    "LookingGlassEntry",
]
