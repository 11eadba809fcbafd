import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from qclocksync import estimation, protocol
from qclocksync.channels import ChannelModel
from qclocksync.ensemble import Ensemble, SamplingSchedule
from qclocksync.errors import ConfigError, EstimationError, ProtocolOrderError
from qclocksync.protocol import (
    ClassicalMessage,
    PartyConfig,
    ProtocolSchedules,
    TimeOriginConfig,
    Transcript,
    broadcast_labels,
    complement_labels,
    configured_offset,
    establish_time_origin,
    run_single_frequency,
    run_two_frequency,
    score_envelope,
    score_single_frequency,
    score_time_origin,
)
from qclocksync.quantum import ClockSpecies, circular_difference

CS = ClockSpecies("cs", 2.0)
IDEAL = ChannelModel()


def _parties(delta=0.0, offset_a=0.0, offset_b=0.0):
    alice = PartyConfig("A", 0.9, local_clock_offset=offset_a)
    bob = PartyConfig("B", 0.9 - delta, local_clock_offset=offset_b)
    return alice, bob


def _schedules(bob_shift=0.0, n_points=12, batch=400, start=0.1, stop=4.0):
    times = tuple(np.linspace(start, stop, n_points))
    return ProtocolSchedules(
        alice=SamplingSchedule(times, batch),
        bob=SamplingSchedule(tuple(t + bob_shift for t in times), batch),
    )


def _run(delta=0.0, offset_a=0.0, offset_b=0.0, channel=IDEAL, bob_shift=0.0,
         quantum_seed=100, channel_seed=200, n_pairs=12_000, transcript=None):
    alice, bob = _parties(delta, offset_a, offset_b)
    ens = Ensemble(n_pairs, CS)
    schedules = _schedules(bob_shift=bob_shift)
    return run_single_frequency(
        ens, alice, bob, channel, schedules,
        np.random.default_rng(quantum_seed), np.random.default_rng(channel_seed),
        transcript=transcript,
    ), alice, bob


class TestSingleFrequency:
    def test_zero_delta_phases_agree(self):
        result, alice, bob = _run(delta=0.0)
        assert result.status == "ok"
        out = result.species_outcomes["cs"]
        gap = circular_difference(out.bob_phase.phase, out.alice_phase.phase)
        sigma = math.hypot(out.alice_phase.sigma, out.bob_phase.sigma)
        assert abs(gap) < 4 * sigma

    def test_nonzero_delta_recovered(self):
        result, alice, bob = _run(delta=0.7)
        out = result.species_outcomes["cs"]
        gap = circular_difference(out.bob_phase.phase, out.alice_phase.phase)
        sigma = math.hypot(out.alice_phase.sigma, out.bob_phase.sigma)
        assert abs(circular_difference(gap, 0.7)) < 4 * sigma

    def test_scoring_attaches_small_error(self):
        result, alice, bob = _run(delta=0.7, quantum_seed=7)
        scored = score_single_frequency(result, alice, bob, CS)
        assert scored.sync_error is not None
        assert abs(scored.sync_error) < 0.01

    def test_clock_offsets_cancel_in_scoring(self):
        result, alice, bob = _run(delta=0.3, offset_a=5.0, offset_b=-2.0,
                                  bob_shift=0.0, quantum_seed=8)
        assert result.status == "ok"
        scored = score_single_frequency(result, alice, bob, CS)
        out = result.species_outcomes["cs"]
        sigma = math.hypot(out.alice_phase.sigma, out.bob_phase.sigma)
        assert abs(scored.sync_error) < 4 * sigma / CS.omega

    def test_lost_message_is_no_sync(self):
        result, alice, bob = _run(channel=ChannelModel(loss_probability=1.0))
        assert result.status == "no_sync"
        assert result.reason == "label_message_lost"
        out = result.species_outcomes["cs"]
        assert out.bob_phase is None and out.bob_series is None
        # scoring must refuse to attach an error to a partial run
        assert score_single_frequency(result, alice, bob, CS).sync_error is None

    def test_bob_schedule_before_delivery_is_inconclusive(self):
        result, _, _ = _run(channel=ChannelModel(base_delay=100.0))
        assert result.status == "inconclusive"
        assert result.reason == "bob_schedule_preceded_delivery"

    def test_budget_exhaustion_is_inconclusive(self):
        result, _, _ = _run(n_pairs=2_000)
        assert result.status == "inconclusive"
        assert result.reason == "budget_exhausted"

    def test_alice_sampling_precedes_send_is_fine_at_same_instant(self):
        # collapse, send, deliver and first samples may share t = 0 ordering
        alice, bob = _parties()
        ens = Ensemble(12_000, CS)
        times = tuple(np.linspace(0.0, 4.0, 12))
        schedules = ProtocolSchedules(alice=SamplingSchedule(times, 400),
                                      bob=SamplingSchedule(times, 400))
        transcript = Transcript()
        result = run_single_frequency(ens, alice, bob, IDEAL, schedules,
                                      np.random.default_rng(1), np.random.default_rng(2),
                                      transcript)
        assert result.status == "ok"
        first = [(r["time"], r["kind"], r.get("party")) for r in transcript.records[:5]]
        assert first == [(0.0, "collapse", None), (0.0, "send", None),
                         (0.0, "deliver", None), (0.0, "sample", "A"),
                         (0.0, "sample", "B")]


class TestDeterminismAndChannelIndependence:
    def test_identical_seeds_identical_result(self):
        a, *_ = _run(delta=0.4, quantum_seed=9, channel_seed=10)
        b, *_ = _run(delta=0.4, quantum_seed=9, channel_seed=10)
        oa, ob = a.species_outcomes["cs"], b.species_outcomes["cs"]
        assert oa.alice_phase == ob.alice_phase
        assert oa.bob_phase == ob.bob_phase
        for sa, sb in ((oa.alice_series, ob.alice_series), (oa.bob_series, ob.bob_series)):
            for column in ("times", "count_pos", "count_neg", "batch_size"):
                np.testing.assert_array_equal(getattr(sa, column), getattr(sb, column))

    def test_phase_estimates_identical_across_channel_delays(self):
        # fixed quantum stream + pre-agreed absolute schedule after the
        # worst-case delivery: measured counts cannot depend on the delay
        phases = []
        for delay in (0.0, 1e3):
            result, *_ = _run(channel=ChannelModel(base_delay=delay),
                              bob_shift=2e3, quantum_seed=11)
            assert result.status == "ok"
            out = result.species_outcomes["cs"]
            phases.append((out.alice_phase, out.bob_phase))
        assert phases[0] == phases[1]

    def test_phase_estimates_identical_across_jitter(self):
        phases = []
        for jitter in (0.0, 50.0):
            result, *_ = _run(channel=ChannelModel(base_delay=100.0,
                                                   jitter_sigma=jitter),
                              bob_shift=2e3, quantum_seed=12)
            assert result.status == "ok"
            out = result.species_outcomes["cs"]
            phases.append((out.alice_phase, out.bob_phase))
        assert phases[0] == phases[1]


class TestTranscript:
    def test_causal_ordering(self):
        transcript = Transcript()
        result, *_ = _run(channel=ChannelModel(base_delay=1.0), bob_shift=10.0,
                          transcript=transcript)
        assert result.status == "ok"
        kinds = [r["kind"] for r in transcript.records]
        times = [r["time"] for r in transcript.records]
        assert times == sorted(times)
        send_t = times[kinds.index("send")]
        deliver_t = times[kinds.index("deliver")]
        assert deliver_t >= send_t
        first_bob = min(r["time"] for r in transcript.records
                        if r["kind"] == "sample" and r.get("party") == "B")
        assert first_bob >= deliver_t
        assert kinds[0] == "collapse"

    def test_jsonl_round_trip(self):
        transcript = Transcript()
        _run(transcript=transcript)
        text = transcript.to_jsonl()
        back = [json.loads(line) for line in text.splitlines()]
        assert back == transcript.records

    def test_jsonl_is_the_plain_encoding(self):
        # every record shape of a run, and values that repr does not write as
        # JSON: non-finite floats, bools, None, nested values, and names that
        # need escapes in JSON or in a %-template
        transcript = Transcript()
        _run(channel=ChannelModel(base_delay=1.0), bob_shift=10.0, transcript=transcript)
        for name in ("é", 'say "hi"', "back\\slash", "100%", "%s%d%%", "\u2603\n\t", ""):
            transcript.record("sample", 1.5, party="A", species=name, count_pos=3,
                              batch_size=7)
            transcript.record(name, 2.0, **{name or "k": name, f"{name}%x": 1})
        for value in (math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, True, False, None,
                      2**70, -3, [1, 2.5, "a%b"], {"z": 1, "a": None}):
            transcript.record("odd", value if isinstance(value, float) else 0.0, value=value)
        transcript.record("nested", 3.0, value={"b": [math.nan, {"%": "%%"}], "a": True})
        assert transcript.to_jsonl() == oracle.transcript_to_jsonl(transcript.records)
        assert Transcript().to_jsonl() == "" == oracle.transcript_to_jsonl([])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.dictionaries(
        st.text().filter(lambda k: k not in ("seq", "time", "kind")),
        st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), st.text()),
        max_size=4), max_size=6))
    def test_jsonl_is_the_plain_encoding_for_any_record(self, records):
        transcript = Transcript()
        for fields in records:
            transcript.record("event", 0.5, **fields)
        assert transcript.to_jsonl() == oracle.transcript_to_jsonl(transcript.records)

    def test_no_timestamps_in_label_payload(self):
        # Type-I labels {1, 2, 3} of N = 11: one full byte plus one padding byte
        type_i = np.isin(np.arange(1, 12), [3, 1, 2])
        payloads = []
        for send_time in (0.0, 5.0, 1e6):
            msg = broadcast_labels(IDEAL, _parties()[0], CS, type_i, send_time,
                                   np.random.default_rng(0))
            assert msg.deliver_time == send_time
            payloads.append(msg.type_i_bitmap)
        assert payloads[0] == payloads[1] == payloads[2] == bytes([0b11100000, 0])
        assert len(payloads[0]) == math.ceil(11 / 8)
        with pytest.raises(ValueError):
            ClassicalMessage("A", "cs", b"\x80", send_time=1.0, deliver_time=0.5)


class _ConstantStream:
    """Quantum stream whose every draw is one value: at 0 all pairs collapse
    to Type I, at 0.75 all collapse to Type II."""

    def __init__(self, value):
        self.value = value

    def random(self, n):
        return np.full(n, self.value)


class TestLabelPath:
    def _capture(self, monkeypatch):
        """Record every handle run_single_frequency selects, in call order
        (Alice's at the collapse, then Bob's at delivery), and every message
        it sends."""
        handles, messages = [], []
        select, broadcast = protocol.select_subensemble, protocol.broadcast_labels

        def spy_select(*args):
            handles.append(select(*args))
            return handles[-1]

        def spy_broadcast(*args):
            msg = broadcast(*args)
            messages.append(msg)
            return msg

        monkeypatch.setattr(protocol, "select_subensemble", spy_select)
        monkeypatch.setattr(protocol, "broadcast_labels", spy_broadcast)
        return handles, messages

    def test_bob_holds_ascending_complement_of_broadcast(self, monkeypatch):
        handles, messages = self._capture(monkeypatch)
        transcript = Transcript()
        result, *_ = _run(n_pairs=12_001, channel=ChannelModel(base_delay=0.05),
                          bob_shift=1.0, transcript=transcript)
        assert result.status == "ok"
        alice_labels, bob_labels = (h.labels for h in handles)
        (msg,) = messages
        # 12,001 labels are 1,501 bytes; the 7 padding bits of the last are clear
        assert isinstance(msg.type_i_bitmap, bytes)
        assert len(msg.type_i_bitmap) == 1501
        assert msg.type_i_bitmap[-1] & 0x7F == 0
        bits = np.unpackbits(np.frombuffer(msg.type_i_bitmap, dtype=np.uint8))
        assert np.array_equal(np.flatnonzero(bits) + 1, alice_labels)
        expected = np.setdiff1d(np.arange(1, 12_002), alice_labels)
        assert bob_labels.dtype == np.int64
        assert np.array_equal(bob_labels, expected)
        assert np.all(np.diff(bob_labels) > 0)
        assert alice_labels.size + bob_labels.size == 12_001
        n_labels = {r["kind"]: r["n_labels"] for r in transcript.records
                    if r["kind"] in ("send", "deliver")}
        assert n_labels == {"send": alice_labels.size, "deliver": alice_labels.size}

    def test_empty_complement(self, monkeypatch):
        handles, messages = self._capture(monkeypatch)
        alice, bob = _parties()
        ens = Ensemble(50, CS)
        result = run_single_frequency(ens, alice, bob, IDEAL,
                                      _schedules(n_points=3, batch=10),
                                      _ConstantStream(0.0), np.random.default_rng(0))
        alice_handle, bob_handle = handles
        assert np.array_equal(alice_handle.labels, np.arange(1, 51))
        # 48 labels in six full bytes, then labels 49 and 50 and six clear padding bits
        assert messages[0].type_i_bitmap == b"\xff" * 6 + b"\xc0"
        assert bob_handle.labels.size == 0
        assert bob_handle.labels.dtype == np.int64
        # Bob has nothing to measure
        assert result.status == "inconclusive"
        assert result.reason == "budget_exhausted"

    def test_full_complement(self, monkeypatch):
        handles, messages = self._capture(monkeypatch)
        alice, bob = _parties()
        ens = Ensemble(50, CS)
        result = run_single_frequency(ens, alice, bob, IDEAL,
                                      _schedules(n_points=3, batch=10),
                                      _ConstantStream(0.75), np.random.default_rng(0))
        alice_handle, bob_handle = handles
        assert alice_handle.labels.size == 0
        assert messages[0].type_i_bitmap == bytes(7)
        assert np.array_equal(bob_handle.labels, np.arange(1, 51))
        assert bob_handle.labels.dtype == np.int64
        # Alice has nothing to measure
        assert result.status == "inconclusive"
        assert result.reason == "budget_exhausted"

    @pytest.mark.parametrize("n_pairs", range(1, 18))
    def test_bitmap_round_trip_sweep(self, n_pairs):
        alice = _parties()[0]
        labels = np.arange(1, n_pairs + 1)
        for seed in range(20):
            type_i = np.random.default_rng(seed).random(n_pairs) < 0.5
            msg = broadcast_labels(IDEAL, alice, CS, type_i, 0.0, np.random.default_rng(0))
            payload = msg.type_i_bitmap
            assert len(payload) == math.ceil(n_pairs / 8)
            bob_labels = complement_labels(payload, n_pairs)
            assert bob_labels.dtype == np.int64
            assert np.array_equal(bob_labels, np.setdiff1d(labels, labels[type_i]))
            for bad in (payload[:-1], payload + b"\x00"):
                with pytest.raises(ValueError, match="bytes"):
                    complement_labels(bad, n_pairs)
            for bit in range(n_pairs % 8 and 8 - n_pairs % 8):
                padded = payload[:-1] + bytes([payload[-1] | (1 << bit)])
                with pytest.raises(ValueError, match="padding"):
                    complement_labels(padded, n_pairs)

    def test_bob_rejects_malformed_payload(self, monkeypatch):
        broadcast = protocol.broadcast_labels

        def truncate(*args):
            msg = broadcast(*args)
            return dataclasses.replace(msg, type_i_bitmap=msg.type_i_bitmap[:-1])

        monkeypatch.setattr(protocol, "broadcast_labels", truncate)
        with pytest.raises(ValueError, match="bytes"):
            _run(n_pairs=12_001)

    def test_fixed_seed_run_is_pinned(self):
        # Values produced by the setdiff1d-based complement this path replaced;
        # any change to the quantum or channel random stream breaks them.
        alice, bob = _parties(delta=0.7)
        times = tuple(np.linspace(0.1, 4.0, 20))
        schedules = ProtocolSchedules(
            alice=SamplingSchedule(times, 4000),
            bob=SamplingSchedule(tuple(t + 1.0 for t in times), 4000))
        result = run_single_frequency(
            Ensemble(200_000, CS), alice, bob,
            ChannelModel(base_delay=0.05, jitter_sigma=0.01), schedules,
            np.random.default_rng(2024), np.random.default_rng(2025))
        out = result.species_outcomes["cs"]
        assert result.status == "ok"
        assert (out.n_type_i, out.n_type_ii) == (100011, 99989)
        assert out.alice_phase.phase == 6.279028665414436
        assert out.alice_phase.sigma == 0.003785990587622775
        assert out.bob_phase.phase == 0.7021025004551277
        assert out.bob_phase.sigma == 0.003732232597596757
        assert out.alice_series.count_pos.tolist() == [
            3959, 3648, 3054, 2367, 1419, 734, 232, 4, 109, 555,
            1227, 1991, 2808, 3445, 3895, 3992, 3777, 3287, 2492, 1750]
        assert out.bob_series.count_pos.tolist() == [
            59, 25, 334, 886, 1690, 2543, 3179, 3724, 3994, 3895,
            3508, 2815, 2028, 1244, 609, 133, 3, 209, 719, 1407]


    def test_fixed_seed_time_origin_run_is_pinned(self):
        # Both species draw from one quantum stream and write one transcript;
        # values taken before the event loop and the pair state were rewritten.
        alice = PartyConfig("A", 0.9)
        bob = PartyConfig("B", 0.5)
        ensembles = (Ensemble(20_000, ClockSpecies("tone1", 2.0)),
                     Ensemble(20_000, ClockSpecies("tone2", 2.2)))
        times = tuple(np.linspace(0.05, 20.0, 60))
        schedules = ProtocolSchedules(alice=SamplingSchedule(times, 150),
                                      bob=SamplingSchedule(times, 150))
        transcript = Transcript()
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2, protocol_duration_T=7.0)
        result = establish_time_origin(
            cfg, ensembles, alice, bob, ChannelModel(base_delay=0.01), schedules,
            np.random.default_rng(31), np.random.default_rng(32), transcript)
        assert result.status == "ok"
        assert result.t_origin_a == 15.786205646991162
        assert result.t_origin_b == 15.878283604898135
        assert result.species_outcomes["tone1"].n_type_i == 9981
        assert result.species_outcomes["tone2"].n_type_i == 10100
        assert len(transcript.records) == 246


TF_SPECIES = (ClockSpecies("tone1", 2.0), ClockSpecies("tone2", 2.2))


def _two_freq_setup(delta=0.0, offset_a=0.0, offset_b=0.0, n_pairs=80_000,
                    stop=20.0, n_points=120, batch=300):
    alice = PartyConfig("A", 0.9, local_clock_offset=offset_a)
    bob = PartyConfig("B", 0.9 - delta, local_clock_offset=offset_b)
    ensembles = tuple(Ensemble(n_pairs, s) for s in TF_SPECIES)
    times = tuple(np.linspace(0.05, stop, n_points))
    schedules = ProtocolSchedules(alice=SamplingSchedule(times, batch),
                                  bob=SamplingSchedule(times, batch))
    return ensembles, alice, bob, schedules


class TestTwoFrequency:
    def test_degenerate_frequencies_rejected(self):
        ensembles = (Ensemble(100, ClockSpecies("a", 2.0)),
                     Ensemble(100, ClockSpecies("b", 2.0)))
        _, alice, bob, schedules = _two_freq_setup(n_pairs=100)
        with pytest.raises(ConfigError):
            run_two_frequency(ensembles, alice, bob, IDEAL, schedules,
                              np.random.default_rng(0), np.random.default_rng(1))

    def test_name_collision_rejected(self):
        ensembles = (Ensemble(100, ClockSpecies("a", 2.0)),
                     Ensemble(100, ClockSpecies("a", 2.2)))
        _, alice, bob, schedules = _two_freq_setup(n_pairs=100)
        with pytest.raises(ConfigError):
            run_two_frequency(ensembles, alice, bob, IDEAL, schedules,
                              np.random.default_rng(0), np.random.default_rng(1))

    def test_envelope_recovered_and_scored(self):
        ensembles, alice, bob, schedules = _two_freq_setup(delta=0.5)
        result = run_two_frequency(ensembles, alice, bob, IDEAL, schedules,
                                   np.random.default_rng(30),
                                   np.random.default_rng(31))
        assert result.status == "ok"
        assert result.envelope_a is not None and result.envelope_b is not None
        scored = score_envelope(result, alice, bob, 2.0, 2.2)
        assert abs(scored.sync_error) < 3 * (result.envelope_a.sigma
                                             + result.envelope_b.sigma) / 0.1 + 0.05

    def test_delta_immunity_of_bob_envelope(self):
        # same quantum seed, different hidden basis offsets: Bob's envelope
        # phase moves only at the level of its own statistical uncertainty
        phases = []
        for delta in (0.0, 2.0):
            ensembles, alice, bob, schedules = _two_freq_setup(delta=delta)
            result = run_two_frequency(ensembles, alice, bob, IDEAL, schedules,
                                       np.random.default_rng(32),
                                       np.random.default_rng(33))
            assert result.status == "ok"
            phases.append(result.envelope_b)
        gap = circular_difference(phases[0].phase, phases[1].phase, period=math.pi)
        assert abs(gap) < 3 * math.hypot(phases[0].sigma, phases[1].sigma)

    def test_lost_message_propagates(self):
        ensembles, alice, bob, schedules = _two_freq_setup()
        result = run_two_frequency(ensembles, alice, bob,
                                   ChannelModel(loss_probability=1.0), schedules,
                                   np.random.default_rng(0), np.random.default_rng(1))
        assert result.status == "no_sync"
        assert result.reason == "label_message_lost"


class TestTimeOrigin:
    def test_window_constraint_enforced_at_load(self):
        with pytest.raises(ConfigError):
            TimeOriginConfig(omega1=2.0, delta_omega=0.2,
                             protocol_duration_T=math.pi / 0.4)
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2,
                               protocol_duration_T=7.0)
        assert cfg.omega2 == pytest.approx(2.2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ConfigError):
            TimeOriginConfig(omega1=-1.0, delta_omega=0.2, protocol_duration_T=1.0)
        with pytest.raises(ConfigError):
            TimeOriginConfig(omega1=1.0, delta_omega=0.0, protocol_duration_T=1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("param", ["omega1", "delta_omega", "protocol_duration_T"])
    def test_non_finite_parameters_rejected(self, param, value):
        # inf * T fails the window check too; each must name its parameter
        with pytest.raises(ConfigError) as info:
            TimeOriginConfig(**{"omega1": 2.0, "delta_omega": 0.2,
                                "protocol_duration_T": 1.0, param: value})
        assert info.value.param == param

    def test_origin_near_pi_over_delta_omega(self):
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2, protocol_duration_T=7.0)
        ensembles, alice, bob, schedules = _two_freq_setup()
        result = establish_time_origin(cfg, ensembles, alice, bob, IDEAL, schedules,
                                       np.random.default_rng(40),
                                       np.random.default_rng(41))
        assert result.status == "ok"
        truth = math.pi / 0.2
        assert abs(result.t_origin_a - truth) < 4 * result.t_origin_sigma_a
        assert abs(result.t_origin_b - truth) < 4 * result.t_origin_sigma_b
        scored = score_time_origin(result, alice, bob)
        spread = math.hypot(result.t_origin_sigma_a, result.t_origin_sigma_b)
        assert abs(scored.sync_error) < 4 * spread

    def test_mismatched_ensemble_frequencies_rejected(self):
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.3, protocol_duration_T=5.0)
        ensembles, alice, bob, schedules = _two_freq_setup(n_pairs=100)
        with pytest.raises(ConfigError):
            establish_time_origin(cfg, ensembles, alice, bob, IDEAL, schedules,
                                  np.random.default_rng(0), np.random.default_rng(1))

    def test_short_window_is_inconclusive(self):
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2, protocol_duration_T=7.0)
        ensembles, alice, bob, schedules = _two_freq_setup(stop=10.0, n_points=60)
        result = establish_time_origin(cfg, ensembles, alice, bob, IDEAL, schedules,
                                       np.random.default_rng(42),
                                       np.random.default_rng(43))
        assert result.status == "inconclusive"


def _fail_on_call(monkeypatch, name, call):
    """Make estimation.<name> raise EstimationError on its call-th call."""
    fit, calls = getattr(estimation, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            raise EstimationError("no fit")
        return fit(*args)

    monkeypatch.setattr(estimation, name, failing)


class TestFitFailures:
    """A fit that cannot be made ends the run inconclusive, naming the fit."""

    def test_bob_phase_fit(self, monkeypatch):
        _fail_on_call(monkeypatch, "estimate_phase", 2)
        result, *_ = _run()
        assert (result.status, result.reason) == ("inconclusive", "bob_phase fit failed: no fit")
        out = result.species_outcomes["cs"]
        assert out.alice_phase is not None and out.bob_phase is None

    @pytest.mark.parametrize("call,fit", [(1, "envelope_a"), (2, "envelope_b")])
    def test_envelope_fit(self, monkeypatch, call, fit):
        _fail_on_call(monkeypatch, "envelope_phase", call)
        ensembles, alice, bob, schedules = _two_freq_setup(n_pairs=20_000, n_points=60,
                                                           batch=150)
        result = run_two_frequency(ensembles, alice, bob, IDEAL, schedules,
                                   np.random.default_rng(30), np.random.default_rng(31))
        assert (result.status, result.reason) == ("inconclusive", f"{fit} fit failed: no fit")
        assert (result.envelope_a is None) == (call == 1)
        assert result.envelope_b is None

    @pytest.mark.parametrize("call,fit", [(1, "t_origin_a"), (2, "t_origin_b")])
    def test_time_origin_fit(self, monkeypatch, call, fit):
        _fail_on_call(monkeypatch, "first_envelope_maximum", call)
        cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2, protocol_duration_T=7.0)
        ensembles, alice, bob, schedules = _two_freq_setup(n_pairs=20_000, n_points=60,
                                                           batch=150)
        result = establish_time_origin(cfg, ensembles, alice, bob, IDEAL, schedules,
                                       np.random.default_rng(40), np.random.default_rng(41))
        assert (result.status, result.reason) == ("inconclusive", f"{fit} fit failed: no fit")
        assert (result.t_origin_a is None) == (call == 1)
        assert result.t_origin_b is None


class TestConfigObjects:
    def test_party_validation(self):
        with pytest.raises(ValueError):
            PartyConfig("C", 0.0)
        p = PartyConfig("A", -0.5)
        assert p.basis_phase == pytest.approx(2 * math.pi - 0.5)

    def test_local_global_round_trip(self):
        p = PartyConfig("B", 0.0, local_clock_offset=3.25)
        assert p.to_local(p.to_global(10.0)) == 10.0
        assert p.to_local(0.0) == 3.25

    def test_schedule_ordering_enforced(self):
        sched = SamplingSchedule((1.0, 2.0), 10)
        with pytest.raises(ProtocolOrderError):
            ProtocolSchedules(alice=sched, bob=sched, collapse_time=0.0,
                              send_time=-1.0)
        with pytest.raises(ProtocolOrderError):
            ProtocolSchedules(alice=sched, bob=sched, collapse_time=1.5)

    def test_configured_offset(self):
        alice, bob = _parties(delta=0.7)
        assert configured_offset(alice, bob) == pytest.approx(0.7)
        assert configured_offset(alice, bob, eta=0.2) == pytest.approx(0.5)
