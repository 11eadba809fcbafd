"""Labelled ensembles of entangled pre-clock pairs.

Lifecycle per pair: EntangledIdle -> (TypeI | TypeII) at Alice's simultaneous
collapse, then Consumed by a single destructive batch measurement. Outcome
sampling uses the closed-form single-pair distribution (verified against the
state-vector machinery in the test suite) so that million-pair ensembles cost
O(1) memory per pair.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ProtocolOrderError
from .quantum import BasisPhase, ClockSpecies, _as_phi

# pair lifecycle codes
IDLE = 0
TYPE_I = 1
TYPE_II = 2
CONSUMED = 3

_STATE_NAMES = {IDLE: "idle", TYPE_I: "type_i", TYPE_II: "type_ii", CONSUMED: "consumed"}


@dataclass(frozen=True)
class PreClockPair:
    """Read-only snapshot of one pair's lifecycle state."""

    label: int
    species: ClockSpecies
    state: str
    collapsed_type: str | None  # 'type_i'/'type_ii' once collapsed, kept after consumption
    t0: float | None


@dataclass(frozen=True)
class SamplingSchedule:
    """Measurement times (party-local clock readings) and pairs consumed per time."""

    times: tuple[float, ...]
    batch_size: int

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) == 0:
            raise ValueError("schedule needs at least one time")
        if any(not math.isfinite(t) for t in times):
            raise ValueError("schedule times must be finite")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("schedule times must be strictly increasing")
        if int(self.batch_size) < 1:
            raise ValueError("batch_size must be >= 1")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "batch_size", int(self.batch_size))

    @property
    def total_pairs(self) -> int:
        return len(self.times) * self.batch_size

    def shifted(self, dt: float) -> "SamplingSchedule":
        return SamplingSchedule(tuple(t + dt for t in self.times), self.batch_size)


class PopulationSeries:
    """Timestamped 0/1 counts from destructive batch measurements.

    Counts are stored as floats so that exact (noiseless) synthetic series can
    be represented; measured series always hold integers.
    """

    __slots__ = ("times", "count_pos", "count_neg", "batch_size")

    def __init__(self, times, count_pos, count_neg, batch_size):
        self.times = np.asarray(times, dtype=np.float64)
        self.count_pos = np.asarray(count_pos, dtype=np.float64)
        self.count_neg = np.asarray(count_neg, dtype=np.float64)
        self.batch_size = np.asarray(batch_size, dtype=np.float64)
        n = self.times.shape[0]
        for arr, name in ((self.count_pos, "count_pos"), (self.count_neg, "count_neg"),
                          (self.batch_size, "batch_size")):
            if arr.shape != (n,):
                raise ValueError(f"{name} length mismatch")
        if np.any(self.count_pos < 0) or np.any(self.count_neg < 0):
            raise ValueError("counts must be nonnegative")
        if np.max(np.abs(self.count_pos + self.count_neg - self.batch_size), initial=0.0) > 1e-9:
            raise ValueError("count_pos + count_neg must equal batch_size at every point")

    def __len__(self) -> int:
        return self.times.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PopulationSeries):
            return NotImplemented
        return (np.array_equal(self.times, other.times)
                and np.array_equal(self.count_pos, other.count_pos)
                and np.array_equal(self.count_neg, other.count_neg)
                and np.array_equal(self.batch_size, other.batch_size))

    def p_hat(self) -> np.ndarray:
        """Empirical pos-fraction per time point."""
        return self.count_pos / self.batch_size

    def with_times(self, times) -> "PopulationSeries":
        """Copy of this series with relabelled timestamps (e.g. local clock)."""
        return PopulationSeries(times, self.count_pos, self.count_neg, self.batch_size)

    def to_csv(self, path, header_comment: str | None = None) -> None:
        with open(path, "w", newline="") as fh:
            if header_comment:
                fh.write(f"# {header_comment}\n")
            writer = csv.writer(fh)
            writer.writerow(["t_seconds", "count_pos", "count_neg", "batch_size"])
            for t, cp, cn, b in zip(self.times, self.count_pos, self.count_neg, self.batch_size):
                writer.writerow([repr(float(t)), _fmt_count(cp), _fmt_count(cn), _fmt_count(b)])

    @classmethod
    def from_csv(cls, path) -> "PopulationSeries":
        times, cps, cns, bs = [], [], [], []
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        if rows[0] != ["t_seconds", "count_pos", "count_neg", "batch_size"]:
            raise ValueError(f"unexpected CSV header: {rows[0]}")
        for t, cp, cn, b in rows[1:]:
            times.append(float(t))
            cps.append(float(cp))
            cns.append(float(cn))
            bs.append(float(b))
        return cls(times, cps, cns, bs)


def _fmt_count(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


class Ensemble:
    """An ordered collection of pre-clock pairs sharing one species and eta.

    Owned by one party's state machine at a time; operations on a single
    ensemble are serialized by the caller.
    """

    def __init__(self, n_pairs: int, species: ClockSpecies, eta: float = 0.0):
        if int(n_pairs) < 1:
            raise ValueError("n_pairs must be >= 1")
        self.n_pairs = int(n_pairs)
        self.species = species
        self.eta = float(eta)
        self.status = np.full(self.n_pairs, IDLE, dtype=np.int8)
        self.collapsed_type = np.zeros(self.n_pairs, dtype=np.int8)  # TYPE_I/TYPE_II once set
        self.t0 = math.nan  # shared collapse epoch (global time)
        self.collapse_phi = math.nan  # Alice's basis phase at collapse

    @property
    def labels(self) -> np.ndarray:
        """Pair labels 1..n, known identically to both parties."""
        return np.arange(1, self.n_pairs + 1)

    def pair(self, label: int) -> PreClockPair:
        idx = self._index(label)
        status = int(self.status[idx])
        ctype = int(self.collapsed_type[idx])
        return PreClockPair(
            label=int(label),
            species=self.species,
            state=_STATE_NAMES[status],
            collapsed_type=_STATE_NAMES[ctype] if ctype else None,
            t0=self.t0 if status != IDLE else None,
        )

    def _index(self, label) -> int:
        label = int(label)
        if not (1 <= label <= self.n_pairs):
            raise KeyError(f"unknown pair label {label}")
        return label - 1


def create_ensemble(n_pairs: int, species: ClockSpecies, eta: float = 0.0) -> Ensemble:
    """A fresh ensemble of n_pairs entangled-idle pairs labelled 1..n_pairs."""
    return Ensemble(n_pairs, species, eta)


def alice_collapse_all(ensemble: Ensemble, t0: float, phi_a, rng: np.random.Generator):
    """Alice's simultaneous dual-basis measurement of every pair at global time t0.

    Each pair collapses to Type I (Alice saw pos) or Type II (Alice saw neg)
    with probability 1/2 each, one uniform draw per pair in label order.
    Returns (type_i_labels, type_ii_labels).
    """
    if np.any(ensemble.status != IDLE):
        raise ProtocolOrderError("ensemble already collapsed (pairs are not all idle)")
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    draws = rng.random(ensemble.n_pairs)
    # P(pos) = 1/2 for every pair of the generalized singlet, any basis phase;
    # verified against quantum.measure_dual in the test suite.
    is_type_i = draws < 0.5
    # TYPE_II - 1 = TYPE_I where Alice saw pos; int8 throughout, no wide temporary
    ensemble.status[:] = TYPE_II - is_type_i.view(np.int8)
    ensemble.collapsed_type[:] = ensemble.status
    ensemble.t0 = float(t0)
    ensemble.collapse_phi = _as_phi(phi_a)
    # label = index + 1, so the positions of each type are its labels
    return np.flatnonzero(is_type_i) + 1, np.flatnonzero(~is_type_i) + 1


class SubensembleHandle:
    """A consuming view over a fixed label subset of a collapsed ensemble.

    Batches are allocated in label order (deterministic); outcome randomness
    comes solely from the rng draws.
    """

    def __init__(self, ensemble: Ensemble, labels: np.ndarray, expected_type: str | None):
        self.ensemble = ensemble
        self.labels = labels
        self.expected_type = expected_type
        self._cursor = 0

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])

    @property
    def remaining(self) -> int:
        return self.size - self._cursor

    def _take(self, n: int) -> np.ndarray:
        if n > self.remaining:
            raise BudgetError(f"requested {n} pairs, only {self.remaining} remain")
        batch = self.labels[self._cursor:self._cursor + n]
        self._cursor += n
        return batch


def select_subensemble(ensemble: Ensemble, labels, expected_type: str | None = None) -> SubensembleHandle:
    """Handle over the named pairs, in ascending label order.

    Only lifecycle is checked (pairs must be collapsed and unconsumed):
    a party cannot locally verify Type I vs Type II, so expected_type is
    recorded for bookkeeping but never validated against the hidden types.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not np.all(labels[1:] > labels[:-1]):  # both parties' label sets arrive sorted
        labels = np.sort(labels)
    if labels.shape[0] == 0:
        return SubensembleHandle(ensemble, labels, expected_type)
    if labels[0] < 1 or labels[-1] > ensemble.n_pairs:
        bad = labels[0] if labels[0] < 1 else labels[-1]
        raise KeyError(f"unknown pair label {int(bad)}")
    idx = labels - 1
    if np.any(ensemble.status[idx] == IDLE):
        raise ProtocolOrderError("subensemble selection requires collapsed pairs")
    return SubensembleHandle(ensemble, labels, expected_type)


def pos_probability(party: str, pair_type: int, omega: float, tau: float,
                    collapse_phi: float, eta: float, phi_meas: float) -> float:
    """Closed-form P(pos) for one collapsed pair measured tau seconds after t0.

    Alice's post-collapse qubit sits at equatorial phase phi_A (pos for Type I,
    neg for Type II); Bob's sits at phi_A - eta with the opposite character.
    Measuring in basis phi gives P(pos) = (1 +/- cos(omega*tau + chi - phi))/2.
    """
    if party == "A":
        chi = collapse_phi
        sign = 1.0 if pair_type == TYPE_I else -1.0
    elif party == "B":
        chi = collapse_phi - eta
        sign = 1.0 if pair_type == TYPE_II else -1.0
    else:
        raise ValueError(f"party must be 'A' or 'B', got {party!r}")
    p = 0.5 * (1.0 + sign * math.cos(omega * tau + chi - phi_meas))
    return min(1.0, max(0.0, p))


def sample_batch(handle: SubensembleHandle, t: float, batch_size: int,
                 party: str, phi, rng: np.random.Generator) -> tuple[int, int]:
    """Consume batch_size pairs at global time t; returns (count_pos, batch_size).

    Pairs are taken in label order; each outcome uses one uniform draw against
    the pair's exact single-measurement distribution.
    """
    ens = handle.ensemble
    labels = handle._take(batch_size)
    idx = labels - 1
    status = ens.status[idx]
    if np.any(status == IDLE):
        raise ProtocolOrderError("cannot sample an idle pair")
    if np.any(status == CONSUMED):
        raise ProtocolOrderError("cannot sample a consumed pair")
    phi_meas = _as_phi(phi)
    tau = float(t) - ens.t0
    omega = ens.species.omega
    p_i = pos_probability(party, TYPE_I, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    p_ii = pos_probability(party, TYPE_II, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    p = np.where(status == TYPE_I, p_i, p_ii)
    draws = rng.random(labels.shape[0])
    n_pos = int(np.count_nonzero(draws < p))
    ens.status[idx] = CONSUMED
    return n_pos, int(labels.shape[0])


def sample_population(handle: SubensembleHandle, schedule: SamplingSchedule,
                      party: str, phi, rng: np.random.Generator) -> PopulationSeries:
    """Destructive batch sampling of a subensemble over a measurement schedule.

    At each schedule time (global), batch_size pairs are consumed in label
    order; outcome randomness comes solely from the rng draws.
    """
    if schedule.total_pairs > handle.remaining:
        raise BudgetError(
            f"schedule needs {schedule.total_pairs} pairs, handle has {handle.remaining}"
        )
    times, c_pos, c_neg, batches = [], [], [], []
    for t in schedule.times:
        n_pos, n = sample_batch(handle, t, schedule.batch_size, party, phi, rng)
        times.append(t)
        c_pos.append(n_pos)
        c_neg.append(n - n_pos)
        batches.append(n)
    return PopulationSeries(times, c_pos, c_neg, batches)
