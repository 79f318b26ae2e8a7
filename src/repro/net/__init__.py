"""Shared network data structures (longest-prefix-match tables)."""
