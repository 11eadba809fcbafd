"""Classical channel models and the Einstein-synchronization baseline.

The protocol must tolerate arbitrary classical-channel quality, so the
channel model is deliberately simple: additive delay, truncated Gaussian
jitter, Bernoulli loss. The baseline simulates round-trip light-pulse
exchange through a medium with a fluctuating refractive index; its error
grows with distance and fluctuation strength, which is exactly the
dependence the entanglement-based protocol is free of.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import blame

SPEED_OF_LIGHT = 299792458.0  # m/s


@dataclass(frozen=True)
class ChannelModel:
    base_delay: float = 0.0
    jitter_sigma: float = 0.0
    loss_probability: float = 0.0

    def __post_init__(self):
        # isfinite rejects NaN, which would deliver at the send time
        # (max(0.0, nan) is 0.0)
        if not (self.base_delay >= 0.0 and math.isfinite(self.base_delay)):
            raise ValueError("base_delay must be a finite number >= 0")
        if not (self.jitter_sigma >= 0.0 and math.isfinite(self.jitter_sigma)):
            raise ValueError("jitter_sigma must be a finite number >= 0")
        if not (0.0 <= self.loss_probability <= 1.0):
            raise ValueError("loss_probability must lie in [0, 1]")


def deliver(channel: ChannelModel, send_time: float, rng: np.random.Generator) -> float | None:
    """Delivery time for a message sent at send_time, or None if lost.

    Always consumes one loss draw and one jitter draw so the channel rng
    stream has the same shape across channel settings. Realized delay is
    truncated at zero: deliver_time >= send_time always.
    """
    if not math.isfinite(send_time):
        raise ValueError("send_time must be finite")
    lost = rng.random() < channel.loss_probability
    jitter = rng.standard_normal() * channel.jitter_sigma
    if lost:
        return None
    return send_time + max(0.0, channel.base_delay + jitter)


@dataclass(frozen=True)
class MediumModel:
    """Line-of-sight medium for the classical baseline."""

    distance: float  # meters
    mean_index: float = 1.0
    index_fluctuation_sigma: float = 0.0

    def __post_init__(self):
        # NaN and inf fail too: es_rms_error's np.maximum would pass a NaN
        # index on, where a per-trial max(1.0, nan) gives 1.0
        if not (self.distance > 0.0 and math.isfinite(self.distance)):
            raise blame(ValueError("distance must be a finite number > 0"), "distance")
        if not (self.mean_index >= 1.0 and math.isfinite(self.mean_index)):
            raise blame(ValueError("mean_index must be a finite number >= 1"), "mean_index")
        sigma = self.index_fluctuation_sigma
        if not (sigma >= 0.0 and math.isfinite(sigma)):
            raise blame(ValueError("index_fluctuation_sigma must be a finite number >= 0"),
                        "index_fluctuation_sigma")


def es_rms_error(medium: MediumModel, n_trials: int, rng: np.random.Generator,
                 true_offset: float = 0.0) -> float:
    """RMS midpoint-rule error over n_trials independent round-trip exchanges.

    Each leg's refractive index is a Gaussian draw floored at vacuum, so a
    trial's error is the index asymmetry of its two legs. The trials run as
    one array pass with the draws (column 0 the forward leg, column 1 the
    return leg) and the IEEE operations of a per-trial loop, so the result and
    rng's final state are that loop's bits; the tests keep the loop as an
    oracle. The arithmetic runs in place on the one draw buffer to keep the
    peak memory down.
    """
    legs = rng.standard_normal((n_trials, 2))
    legs *= medium.index_fluctuation_sigma
    legs += medium.mean_index
    np.maximum(legs, 1.0, out=legs)
    legs *= medium.distance
    legs /= SPEED_OF_LIGHT
    errs = legs[:, 0] - legs[:, 1]
    errs /= 2.0
    # estimated_offset - true_offset, rounded as the per-trial loop rounds it
    errs += true_offset
    errs -= true_offset
    errs *= errs
    return float(np.sqrt(np.mean(errs)))
