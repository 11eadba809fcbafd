"""Clock species and the phase arithmetic of the Bloch equator.

A run needs no quantum state: it samples outcomes from the closed-form
single-pair law (ensemble.pos_probability). The state-vector oracle that
checks that law lives with the tests (tests/oracle.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import blame

TWO_PI = 2.0 * math.pi


def normalize_phase(phi: float) -> float:
    """Map an angle in radians into [0, 2*pi)."""
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi}")
    out = math.fmod(phi, TWO_PI)
    if out < 0.0:
        out += TWO_PI
    # fmod can round back up to 2*pi for tiny negative inputs
    if out >= TWO_PI:
        out = 0.0
    return out


def circular_difference(a: float, b: float, period: float = TWO_PI) -> float:
    """Signed difference a - b wrapped into (-period/2, period/2]."""
    d = math.fmod(a - b, period)
    half = period / 2.0
    if d > half:
        d -= period
    elif d <= -half:
        d += period
    return d


@dataclass(frozen=True)
class ClockSpecies:
    """A qubit species with transition angular frequency omega (rad/s)."""

    name: str
    omega: float

    def __post_init__(self):
        if not (isinstance(self.name, str) and self.name):
            raise blame(ValueError(f"name must be a non-empty string, got {self.name!r}"),
                        "name")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise blame(ValueError(f"omega must be positive and finite, got {self.omega}"),
                        "omega")
