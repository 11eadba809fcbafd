"""Alice/Bob state machines and protocol orchestration.

The orchestrator walks one event list sorted by (time, kind priority): the
collapse, the send and every scheduled sample are sorted once up front, and
the one delivery is inserted in order once the channel sets its time. So
identical seeds and configuration reproduce identical transcripts bit for
bit. Party logic never reads the other party's configuration; hidden truths
(clock offsets, the basis-phase offset) are consulted only by the scoring
helpers at the bottom, which a real deployment would not have.

Two independent rng streams are used: quantum draws (collapse outcomes and
measurement outcomes) and channel draws (loss/jitter). Holding the quantum
stream fixed while varying the channel model leaves every measurement
outcome bit-identical, which is the channel-independence property under
test.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import estimation
from .channels import ChannelModel, deliver
from .ensemble import (
    Ensemble,
    PopulationSeries,
    SamplingSchedule,
    SubensembleHandle,
    alice_collapse_all,
    sample_batch,
    select_subensemble,
)
from .errors import (BudgetError, ConfigError, EstimationError, InconclusiveError,
                     ProtocolOrderError, blame)
from .estimation import BeatSeries, PhaseEstimate
from .quantum import ClockSpecies, circular_difference, normalize_phase


@dataclass
class PartyConfig:
    """One party's local configuration.

    basis_phase is the equatorial phase of that party's |pos> choice, one
    for every species: the beat envelope's phase carries half the difference
    of the two species' offsets, so it is immune to the (unknown) inter-party
    offset only when both species share it. The phase is locked at
    configuration time.
    local_clock_offset is hidden truth: the party's clock reads
    global time + offset. Only the scoring helpers may look at it.
    """

    party_id: str  # 'A' or 'B'
    basis_phase: float
    local_clock_offset: float = 0.0

    def __post_init__(self):
        if self.party_id not in ("A", "B"):
            raise ValueError("party_id must be 'A' or 'B'")
        self.basis_phase = normalize_phase(self.basis_phase)

    def to_global(self, local_time: float) -> float:
        return local_time - self.local_clock_offset

    def to_local(self, global_time: float) -> float:
        return global_time + self.local_clock_offset


@dataclass(frozen=True)
class ClassicalMessage:
    """A label broadcast. The payload carries labels only, never timestamps.

    type_i_bitmap is the sender's Type-I label set over labels 1..N, packed
    as np.packbits packs a bool array: bit l - 1 (most significant bit of
    each byte first) is set exactly when label l is Type I. It is ceil(N / 8)
    bytes, and the padding bits of its last byte are clear.
    """

    sender: str
    species: str
    type_i_bitmap: bytes
    send_time: float
    deliver_time: float

    def __post_init__(self):
        if self.deliver_time < self.send_time:
            raise ValueError("deliver_time must be >= send_time")


@dataclass(frozen=True)
class TimeOriginConfig:
    """Two-frequency configuration for the common-time-origin construction."""

    omega1: float
    delta_omega: float
    protocol_duration_T: float

    def __post_init__(self):
        for name in ("omega1", "delta_omega", "protocol_duration_T"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise blame(ConfigError(f"{name} must be a finite number > 0, got {value}"),
                            name)
        if not self.delta_omega * self.protocol_duration_T < math.pi / 2.0:
            raise ConfigError(
                f"delta_omega * T = {self.delta_omega * self.protocol_duration_T:.6g} "
                "must be strictly below pi/2 for a unique common time origin"
            )

    @property
    def omega2(self) -> float:
        return self.omega1 + self.delta_omega


@dataclass
class ProtocolSchedules:
    """Sampling plans in party-local time, plus Alice's collapse/send instants."""

    alice: SamplingSchedule
    bob: SamplingSchedule
    collapse_time: float = 0.0  # Alice-local
    send_time: float | None = None  # Alice-local; defaults to collapse_time

    def __post_init__(self):
        if self.send_time is None:
            self.send_time = self.collapse_time
        if self.send_time < self.collapse_time:
            raise blame(ProtocolOrderError("labels cannot be sent before the collapse"),
                        "send_time")
        if self.alice.times[0] < self.collapse_time:
            raise blame(ProtocolOrderError("Alice cannot sample before her collapse"),
                        "collapse_time")


# json.dumps(r, sort_keys=True) would build an equal encoder for every record
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


def _jsonl_template(rec: dict) -> tuple[str, tuple[str, ...]]:
    """The %-template of _JSONL_ENCODER.encode(rec) + "\\n" for every record
    of rec's shape (its keys, and its string values), and the keys whose
    values fill it in order. Keys and strings are encoded here once."""
    parts, keys = [], []
    for key in sorted(rec):
        value = rec[key]
        if type(value) is str:
            text = json.dumps(value).replace("%", "%%")
        else:
            text = "%s"
            keys.append(key)
        parts.append(json.dumps(key).replace("%", "%%") + ": " + text)
    return "{" + ", ".join(parts) + "}\n", tuple(keys)


def _json_value(value) -> str:
    """value as _JSONL_ENCODER encodes it: repr for an int or a finite float."""
    if type(value) is int or type(value) is float and math.isfinite(value):
        return repr(value)
    return _JSONL_ENCODER.encode(value)


class Transcript:
    """Ordered event log of a run, serializable as line-delimited JSON."""

    def __init__(self):
        self.records: list[dict] = []

    def record(self, kind: str, time: float, **fields) -> None:
        rec = {"seq": len(self.records), "time": float(time), "kind": kind}
        rec.update(fields)
        self.records.append(rec)

    def to_jsonl(self) -> str:
        """One line per record, as _JSONL_ENCODER writes it; the records of
        one shape share one template (_jsonl_template)."""
        templates = {}
        lines = []
        for rec in self.records:
            shape = tuple([(k, v) if type(v) is str else k for k, v in rec.items()])
            entry = templates.get(shape)
            if entry is None:
                entry = templates[shape] = _jsonl_template(rec)
            template, keys = entry
            lines.append(template % tuple([_json_value(rec[k]) for k in keys]))
        return "".join(lines)


@dataclass
class SpeciesOutcome:
    """Per-species raw series and phase estimates for both parties."""

    species: ClockSpecies
    n_type_i: int = 0
    n_type_ii: int = 0
    alice_series: PopulationSeries | None = None
    bob_series: PopulationSeries | None = None
    alice_phase: PhaseEstimate | None = None
    bob_phase: PhaseEstimate | None = None


@dataclass
class SyncResult:
    """Deliverable of a protocol run.

    sync_error (seconds) is populated only by the scoring helpers with
    god's-eye access to hidden truth; party logic never sees it, and it is
    never emitted from a partial (no_sync / inconclusive) run.
    """

    status: str  # 'ok' | 'no_sync' | 'inconclusive'
    reason: str | None = None
    species_outcomes: dict[str, SpeciesOutcome] = field(default_factory=dict)
    envelope_a: PhaseEstimate | None = None
    envelope_b: PhaseEstimate | None = None
    beats_a: BeatSeries | None = None
    beats_b: BeatSeries | None = None
    t_origin_a: float | None = None
    t_origin_sigma_a: float | None = None
    t_origin_b: float | None = None
    t_origin_sigma_b: float | None = None
    sync_error: float | None = None

    def to_dict(self) -> dict:
        def est(e: PhaseEstimate | None):
            if e is None:
                return None
            return {"phase": e.phase, "sigma": e.sigma,
                    "n_samples_used": e.n_samples_used, "residual": e.residual}

        species = {}
        for name, out in sorted(self.species_outcomes.items()):
            species[name] = {
                "omega": out.species.omega,
                "n_type_i": out.n_type_i,
                "n_type_ii": out.n_type_ii,
                "alice_phase": est(out.alice_phase),
                "bob_phase": est(out.bob_phase),
            }
        return {
            "status": self.status,
            "reason": self.reason,
            "species": species,
            "envelope_a": est(self.envelope_a),
            "envelope_b": est(self.envelope_b),
            "t_origin_a": self.t_origin_a,
            "t_origin_sigma_a": self.t_origin_sigma_a,
            "t_origin_b": self.t_origin_b,
            "t_origin_sigma_b": self.t_origin_sigma_b,
            "sync_error": self.sync_error,
        }


def broadcast_labels(channel: ChannelModel, sender: PartyConfig, species: ClockSpecies,
                     type_i: np.ndarray, send_time_global: float,
                     channel_rng: np.random.Generator,
                     transcript: Transcript | None = None) -> ClassicalMessage | None:
    """Send the Type-I label set over the channel; returns the message or None if lost.

    type_i is the sender's collapse mask over labels 1..N (index l - 1 holds
    label l). The payload is that mask packed eight labels to a byte,
    ceil(N / 8) bytes; the transcript's n_labels counts its Type-I labels.
    """
    bitmap = np.packbits(type_i).tobytes()
    deliver_time = deliver(channel, send_time_global, channel_rng)
    if transcript is not None:
        transcript.record("send", send_time_global, sender=sender.party_id,
                          species=species.name, n_labels=int(np.count_nonzero(type_i)))
    if deliver_time is None:
        if transcript is not None:
            transcript.record("lost", send_time_global, sender=sender.party_id,
                              species=species.name)
        return None
    return ClassicalMessage(sender=sender.party_id, species=species.name,
                            type_i_bitmap=bitmap, send_time=send_time_global,
                            deliver_time=deliver_time)


def complement_labels(type_i_bitmap: bytes, n_pairs: int) -> np.ndarray:
    """Labels in 1..n_pairs that the bitmap does not mark Type I, ascending int64.

    This is Bob's Type-II subensemble. A payload that is not exactly
    ceil(n_pairs / 8) bytes, or that has a padding bit set, raises
    ValueError rather than being padded or cut to fit.
    """
    payload = np.frombuffer(type_i_bitmap, dtype=np.uint8)
    n_bytes = -(-n_pairs // 8)
    if payload.shape[0] != n_bytes:
        raise ValueError(f"label bitmap is {payload.shape[0]} bytes; "
                         f"{n_pairs} labels need {n_bytes}")
    if n_pairs % 8 and payload[-1] & (0xFF >> (n_pairs % 8)):
        raise ValueError("label bitmap has padding bits set")
    # in place, as in alice_collapse_all: no second N-long temporary to page in
    clear = np.unpackbits(payload, count=n_pairs).view(bool)
    np.logical_not(clear, out=clear)
    labels = np.flatnonzero(clear)
    labels += 1
    return labels


# Priority of simultaneous events: a collapse precedes the send and any
# sampling at the same instant, a delivery precedes Bob's measurement at the
# same instant. Events of one kind never tie (schedule times are strictly
# increasing, every other kind occurs once per run), and the stable sort would
# keep schedule order if they did.
_PRIORITY = {"collapse": 0, "send": 1, "deliver": 2, "alice_sample": 3, "bob_sample": 4}


def _event(time: float, kind: str, payload=None) -> tuple:
    return (float(time), _PRIORITY[kind], kind, payload)


def run_single_frequency(ensemble: Ensemble, alice: PartyConfig, bob: PartyConfig,
                         channel: ChannelModel, schedules: ProtocolSchedules,
                         quantum_rng: np.random.Generator,
                         channel_rng: np.random.Generator,
                         transcript: Transcript | None = None) -> SyncResult:
    """One full single-frequency synchronization run.

    Flow: Alice collapses every pair at her t=0, samples her Type-I
    subensemble on her schedule, and broadcasts the Type-I label set as a
    bitmap over labels 1..N (ceil(N/8) bytes, bit l - 1 set for Type-I label
    l). Once the message is delivered, Bob unpacks it and takes the labels
    whose bits are clear, already ascending, as his Type-II subensemble (see
    complement_labels). He samples it on his (absolute, pre-agreed) schedule;
    scheduled times that precede delivery cannot be measured and make the
    run inconclusive. Both parties fit their clock phase against their own
    local timestamps; a fit that cannot be made leaves the run inconclusive.
    """
    species = ensemble.species

    events = sorted(
        [_event(alice.to_global(schedules.collapse_time), "collapse"),
         _event(alice.to_global(schedules.send_time), "send")]
        + [_event(alice.to_global(t), "alice_sample") for t in schedules.alice.times]
        + [_event(bob.to_global(t), "bob_sample") for t in schedules.bob.times])

    outcome = SpeciesOutcome(species=species)
    alice_handle: SubensembleHandle | None = None
    bob_handle: SubensembleHandle | None = None
    lost = False
    missed = False
    budget_hit = False
    a_counts: list[tuple[float, int, int]] = []
    b_counts: list[tuple[float, int, int]] = []

    pos = 0
    while pos < len(events):
        t, _priority, kind, payload = events[pos]
        pos += 1
        if kind == "collapse":
            type_i_labels = alice_collapse_all(ensemble, t, alice.basis_phase, quantum_rng)
            outcome.n_type_i = int(type_i_labels.shape[0])
            outcome.n_type_ii = ensemble.n_pairs - outcome.n_type_i
            alice_handle = select_subensemble(ensemble, type_i_labels)
            if transcript is not None:
                transcript.record("collapse", t, species=species.name,
                                  n_type_i=outcome.n_type_i, n_type_ii=outcome.n_type_ii)
        elif kind == "send":
            if ensemble.type_i is None:
                raise ProtocolOrderError("labels cannot be broadcast before the collapse")
            msg = broadcast_labels(channel, alice, species, ensemble.type_i, t,
                                   channel_rng, transcript)
            if msg is None:
                lost = True
            else:
                bisect.insort(events, _event(msg.deliver_time, "deliver", msg), lo=pos)
        elif kind == "deliver":
            bob_type_ii = complement_labels(payload.type_i_bitmap, ensemble.n_pairs)
            bob_handle = select_subensemble(ensemble, bob_type_ii)
            if transcript is not None:
                transcript.record("deliver", t, species=species.name,
                                  n_labels=ensemble.n_pairs - int(bob_type_ii.shape[0]))
        elif kind == "alice_sample":
            try:
                n_pos, n = sample_batch(alice_handle, t, schedules.alice.batch_size,
                                        "A", alice.basis_phase, quantum_rng)
            except BudgetError:
                budget_hit = True
                continue
            a_counts.append((t, n_pos, n))
            if transcript is not None:
                transcript.record("sample", t, party="A", species=species.name,
                                  count_pos=n_pos, batch_size=n)
        elif kind == "bob_sample":
            if bob_handle is None:
                missed = True
                if transcript is not None and not lost:
                    transcript.record("missed_sample", t, party="B", species=species.name)
                continue
            try:
                n_pos, n = sample_batch(bob_handle, t, schedules.bob.batch_size,
                                        "B", bob.basis_phase, quantum_rng)
            except BudgetError:
                budget_hit = True
                continue
            b_counts.append((t, n_pos, n))
            if transcript is not None:
                transcript.record("sample", t, party="B", species=species.name,
                                  count_pos=n_pos, batch_size=n)

    def build_series(counts, party: PartyConfig) -> PopulationSeries | None:
        if not counts:
            return None
        return PopulationSeries([party.to_local(c[0]) for c in counts],
                                [c[1] for c in counts],
                                [c[2] - c[1] for c in counts],
                                [c[2] for c in counts])

    outcome.alice_series = build_series(a_counts, alice)
    outcome.bob_series = build_series(b_counts, bob)
    result = SyncResult(status="ok", species_outcomes={species.name: outcome})
    if outcome.alice_series is not None and not budget_hit:
        outcome.alice_phase = _fit(result, "alice_phase", estimation.estimate_phase,
                                   outcome.alice_series, species)
    if lost:
        result.status, result.reason = "no_sync", "label_message_lost"
        return result
    if missed:
        result.status, result.reason = "inconclusive", "bob_schedule_preceded_delivery"
        return result
    if budget_hit or outcome.bob_series is None:
        result.status, result.reason = "inconclusive", "budget_exhausted"
        return result
    if result.status == "ok":  # else Alice's fit failed
        outcome.bob_phase = _fit(result, "bob_phase", estimation.estimate_phase,
                                 outcome.bob_series, species)
    return result


def _fit(result: SyncResult, name: str, fit, *args):
    """fit(*args), or None once result is made inconclusive: with the fit's
    own reason if it judged its data inconclusive, or with a reason that
    names the fit if the fit could not be made (an EstimationError)."""
    try:
        return fit(*args)
    except InconclusiveError as exc:
        result.status, result.reason = "inconclusive", str(exc)
    except EstimationError as exc:
        result.status, result.reason = "inconclusive", f"{name} fit failed: {exc}"
    return None


def check_distinct_species(species1: ClockSpecies, species2: ClockSpecies) -> None:
    """The two-frequency protocol's demand on its species: ConfigError unless
    their frequencies and their names differ."""
    if species1.omega == species2.omega:
        raise ConfigError("two-frequency protocol needs two distinct frequencies")
    if species1.name == species2.name:
        raise ConfigError("two-frequency protocol needs two distinct species names")


def run_two_frequency(ensembles: tuple[Ensemble, Ensemble], alice: PartyConfig,
                      bob: PartyConfig, channel: ChannelModel,
                      schedules: ProtocolSchedules,
                      quantum_rng: np.random.Generator,
                      channel_rng: np.random.Generator,
                      transcript: Transcript | None = None) -> SyncResult:
    """Duplicate the single-frequency protocol for two species and extract beats.

    Both parties sample both species on the same local time grid, form the
    per-time difference of the two empirical oscillation estimates, and fit
    the phase of the slow envelope factor, which is the basis-offset-immune
    synchronization observable.
    """
    ens1, ens2 = ensembles
    check_distinct_species(ens1.species, ens2.species)
    results = [
        run_single_frequency(ens, alice, bob, channel, schedules,
                             quantum_rng, channel_rng, transcript)
        for ens in (ens1, ens2)
    ]
    merged = SyncResult(status="ok")
    for r in results:
        merged.species_outcomes.update(r.species_outcomes)
    for bad_status in ("no_sync", "inconclusive"):
        for r in results:
            if r.status == bad_status:
                merged.status, merged.reason = bad_status, r.reason
                return merged

    w1, w2 = ens1.species.omega, ens2.species.omega
    out1 = merged.species_outcomes[ens1.species.name]
    out2 = merged.species_outcomes[ens2.species.name]
    merged.beats_a = estimation.beat_difference(out1.alice_series, out2.alice_series)
    merged.beats_b = estimation.beat_difference(out1.bob_series, out2.bob_series)
    merged.envelope_a = _fit(merged, "envelope_a", estimation.envelope_phase,
                             merged.beats_a, w1, w2)
    if merged.status == "ok":
        merged.envelope_b = _fit(merged, "envelope_b", estimation.envelope_phase,
                                 merged.beats_b, w1, w2)
    return merged


def establish_time_origin(config: TimeOriginConfig, ensembles: tuple[Ensemble, Ensemble],
                          alice: PartyConfig, bob: PartyConfig, channel: ChannelModel,
                          schedules: ProtocolSchedules,
                          quantum_rng: np.random.Generator,
                          channel_rng: np.random.Generator,
                          transcript: Transcript | None = None) -> SyncResult:
    """Common-time-origin construction from the first beat-envelope maximum.

    The duration constraint delta_omega * T < pi/2 is enforced by the config
    itself at load time; T bounds the phase-sync establishment, while beat
    monitoring continues until the first envelope maximum (near t = pi /
    delta_omega) is bracketed by the sampling window.
    """
    ens1, ens2 = ensembles
    for ens, want in ((ens1, config.omega1), (ens2, config.omega2)):
        if not math.isclose(ens.species.omega, want, rel_tol=1e-12):
            raise ConfigError(
                f"ensemble species omega {ens.species.omega} does not match "
                f"time-origin config omega {want}"
            )
    result = run_two_frequency(ensembles, alice, bob, channel, schedules,
                               quantum_rng, channel_rng, transcript)
    if result.status != "ok":
        return result
    w1, w2 = ens1.species.omega, ens2.species.omega
    origin = _fit(result, "t_origin_a", estimation.first_envelope_maximum,
                  result.beats_a, w1, w2)
    if origin is not None:
        result.t_origin_a, result.t_origin_sigma_a = origin
        origin = _fit(result, "t_origin_b", estimation.first_envelope_maximum,
                      result.beats_b, w1, w2)
    if origin is not None:
        result.t_origin_b, result.t_origin_sigma_b = origin
    return result


# --------------------------------------------------------------------------
# Scoring harness: god's-eye access to hidden truth. Never called by party
# logic; sync_error is only ever attached to a completed ('ok') run.
# --------------------------------------------------------------------------

def configured_offset(alice: PartyConfig, bob: PartyConfig, eta: float = 0.0) -> float:
    """Effective oscillation offset delta seen by Bob, from the hidden configs."""
    return normalize_phase(alice.basis_phase - bob.basis_phase - eta)


def score_single_frequency(result: SyncResult, alice: PartyConfig, bob: PartyConfig,
                           species: ClockSpecies, eta: float = 0.0) -> SyncResult:
    """Attach sync_error (seconds): residual of the measured phase difference
    against the truth implied by the hidden configuration."""
    if result.status != "ok":
        return result
    out = result.species_outcomes[species.name]
    observed = out.bob_phase.phase - out.alice_phase.phase
    clock_gap = bob.local_clock_offset - alice.local_clock_offset
    expected = configured_offset(alice, bob, eta) - species.omega * clock_gap
    result.sync_error = circular_difference(observed, expected) / species.omega
    return result


def score_envelope(result: SyncResult, alice: PartyConfig, bob: PartyConfig,
                   omega1: float, omega2: float) -> SyncResult:
    """Attach sync_error (seconds) from the envelope-phase comparison."""
    if result.status != "ok" or result.envelope_a is None or result.envelope_b is None:
        return result
    w_e = abs(omega1 - omega2) / 2.0
    clock_gap = bob.local_clock_offset - alice.local_clock_offset
    observed = result.envelope_b.phase - result.envelope_a.phase
    expected = -w_e * clock_gap
    result.sync_error = circular_difference(observed, expected, period=math.pi) / w_e
    return result


def score_time_origin(result: SyncResult, alice: PartyConfig, bob: PartyConfig) -> SyncResult:
    """Attach sync_error (seconds): disagreement of the two parties' time
    origins after removing the true clock gap."""
    if result.status != "ok" or result.t_origin_a is None or result.t_origin_b is None:
        return result
    clock_gap = bob.local_clock_offset - alice.local_clock_offset
    result.sync_error = (result.t_origin_b - result.t_origin_a) - clock_gap
    return result
