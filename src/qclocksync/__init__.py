"""Deterministic simulator of entanglement-based quantum clock synchronization."""

__version__ = "0.1.0"
