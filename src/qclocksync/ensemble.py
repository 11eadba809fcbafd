"""Labelled ensembles of entangled pre-clock pairs, and their sampling.

Lifecycle per pair: entangled and idle until Alice's simultaneous collapse
makes it Type I or Type II, then consumed by a single destructive batch
measurement. An ensemble keeps this as two boolean masks indexed by label:
the Type-I mask (None until the collapse) and the consumed mask. A party
selects its subensemble by label and consumes it batch by batch in label order
(select_subensemble, sample_batch). Outcomes are drawn from the closed-form
single-pair distribution (pos_probability; the tests check it against a
state-vector oracle), so that million-pair ensembles cost O(1) memory per
pair. The measured counts travel as a PopulationSeries, which writes itself
as CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ProtocolOrderError
from .quantum import ClockSpecies, normalize_phase

# collapsed pair types, as pos_probability takes them
TYPE_I = 1
TYPE_II = 2


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

    def p_hat(self) -> np.ndarray:
        """Empirical pos-fraction per time point."""
        return self.count_pos / self.batch_size

    def to_csv(self, path, header_comment: str | None = None) -> None:
        """Write the series as CSV, with the bytes that csv.writer writes: its
        \\r\\n line ends, and no quotes, which QUOTE_MINIMAL never puts around
        a float repr or an integer."""
        head = f"# {header_comment}\n" if header_comment else ""
        rows = zip(self.times.tolist(), self.count_pos.tolist(), self.count_neg.tolist(),
                   self.batch_size.tolist())
        with open(path, "w", newline="") as fh:
            fh.write(head + "t_seconds,count_pos,count_neg,batch_size\r\n" + "".join([
                f"{t!r},{_fmt_count(cp)},{_fmt_count(cn)},{_fmt_count(b)}\r\n"
                for t, cp, cn, b in rows]))


def _fmt_count(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


class Ensemble:
    """An ordered collection of pre-clock pairs sharing one species and eta.

    Pair label l sits at index l of two N+1-entry buffers whose entry 0 is a
    pad that no label names: the Type-I mask (None while the pairs are idle,
    True for Type I after Alice's collapse at epoch t0) and the consumed mask,
    which marks the pairs a batch measurement has used up. A batch indexes
    them with its labels as they are. type_i and consumed are their 0-based
    views [1:], where label l sits at index l - 1.

    Owned by one party's state machine at a time; operations on a single
    ensemble are serialized by the caller.
    """

    def __init__(self, n_pairs: int, species: ClockSpecies, eta: float = 0.0):
        if int(n_pairs) < 1:
            raise ValueError("n_pairs must be >= 1")
        self.n_pairs = int(n_pairs)
        self.species = species
        self.eta = float(eta)
        self.type_i_by_label: np.ndarray | None = None
        self.type_i: np.ndarray | None = None
        self.consumed_by_label = np.zeros(self.n_pairs + 1, dtype=bool)
        self.consumed = self.consumed_by_label[1:]
        self.t0 = math.nan  # shared collapse epoch (global time)
        self.collapse_phi = math.nan  # Alice's basis phase at collapse


def alice_collapse_all(ensemble: Ensemble, t0: float, phi_a: float, rng: np.random.Generator):
    """Alice's simultaneous dual-basis measurement of every pair at global time t0.

    Each pair collapses to Type I (Alice saw pos) or Type II (Alice saw neg)
    with probability 1/2 each, one uniform draw per pair in label order.
    Returns the ascending Type-I labels; the Type-II pairs are the rest
    (ensemble.type_i is False there).
    """
    if ensemble.type_i is not None:
        raise ProtocolOrderError("ensemble already collapsed (pairs are not all idle)")
    if not math.isfinite(t0):
        raise ValueError("t0 must be finite")
    # The kept mask is allocated before the 8-byte draws: freed after it, the
    # draws leave no heap hole below a live array to raise the peak RSS.
    by_label = np.empty(ensemble.n_pairs + 1, dtype=bool)
    by_label[0] = False  # the pad: no pair has label 0
    # P(pos) = 1/2 for every pair of the generalized singlet, any basis phase;
    # verified against the state-vector oracle in the tests.
    ensemble.type_i = np.less(rng.random(ensemble.n_pairs), 0.5, out=by_label[1:])
    ensemble.type_i_by_label = by_label
    ensemble.t0 = float(t0)
    ensemble.collapse_phi = normalize_phase(phi_a)
    # the padded mask's Type-I positions are the Type-I labels
    return np.flatnonzero(by_label)


class SubensembleHandle:
    """A consuming view over a fixed label subset of a collapsed ensemble.

    Batches are allocated in label order (deterministic); outcome randomness
    comes solely from the rng draws.
    """

    def __init__(self, ensemble: Ensemble, labels: np.ndarray):
        self.ensemble = ensemble
        self.labels = labels
        self._cursor = 0

    def _take(self, n: int) -> np.ndarray:
        remaining = self.labels.shape[0] - self._cursor
        if n > remaining:
            raise BudgetError(f"requested {n} pairs, only {remaining} remain")
        batch = self.labels[self._cursor:self._cursor + n]
        self._cursor += n
        return batch


def select_subensemble(ensemble: Ensemble, labels) -> SubensembleHandle:
    """Handle over the named pairs, in ascending label order.

    Only lifecycle is checked (pairs must be collapsed; sample_batch rejects
    consumed ones): a party cannot locally verify Type I vs Type II, so the
    hidden types are never consulted.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if not np.all(labels[1:] > labels[:-1]):  # both parties' label sets arrive sorted
        labels = np.sort(labels)
    if labels.shape[0] == 0:
        return SubensembleHandle(ensemble, labels)
    if labels[0] < 1 or labels[-1] > ensemble.n_pairs:
        bad = labels[0] if labels[0] < 1 else labels[-1]
        raise KeyError(f"unknown pair label {int(bad)}")
    if ensemble.type_i is None:
        raise ProtocolOrderError("subensemble selection requires collapsed pairs")
    return SubensembleHandle(ensemble, labels)


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
                 party: str, phi: float, rng: np.random.Generator) -> tuple[int, int]:
    """Consume batch_size pairs at global time t; returns (count_pos, batch_size).

    Pairs are taken in label order; each outcome uses one uniform draw against
    the pair's exact single-measurement distribution. The labels index the
    ensemble's label-indexed masks directly (see Ensemble).
    """
    ens = handle.ensemble
    labels = handle._take(batch_size)
    if ens.type_i_by_label is None:
        raise ProtocolOrderError("cannot sample an idle pair")
    consumed = ens.consumed_by_label
    if consumed[labels].any():
        raise ProtocolOrderError("cannot sample a consumed pair")
    phi_meas = normalize_phase(phi)
    tau = float(t) - ens.t0
    omega = ens.species.omega
    p_i = pos_probability(party, TYPE_I, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    p_ii = pos_probability(party, TYPE_II, omega, tau, ens.collapse_phi, ens.eta, phi_meas)
    draws = rng.random(labels.shape[0])
    n_pos = int(np.count_nonzero(draws < np.where(ens.type_i_by_label[labels], p_i, p_ii)))
    consumed[labels] = True
    return n_pos, int(labels.shape[0])

