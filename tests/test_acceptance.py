"""Acceptance gate: end-to-end checks of the protocol's core guarantees.

Each test prints one verdict line so a log scrape shows the per-criterion
outcome. Tolerances are pinned; loosening them requires revisiting the
estimator calibration, not this file.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp

from oracle import (
    apply_local,
    dark_state_phase,
    dual_projection_probability,
    evolution_unitary,
    haar_random_unitary,
    measure_dual,
    singlet_state,
)
from qclocksync.channels import ChannelModel, MediumModel, es_rms_error
from qclocksync.cli import main
from qclocksync.ensemble import (
    TYPE_I,
    TYPE_II,
    Ensemble,
    SamplingSchedule,
    alice_collapse_all,
    pos_probability,
    sample_batch,
    select_subensemble,
)
from qclocksync.errors import ConfigError
from qclocksync.estimation import (
    BeatSeries,
    beat_difference,
    first_envelope_maximum,
)
from qclocksync.ensemble import PopulationSeries
from qclocksync.protocol import (
    PartyConfig,
    ProtocolSchedules,
    TimeOriginConfig,
    establish_time_origin,
    run_single_frequency,
    run_two_frequency,
)
from qclocksync.quantum import ClockSpecies, circular_difference

import yaml


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"acceptance criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


# ---------------------------------------------------------------- criterion 1

def test_01_dark_state_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    s = singlet_state(0.0)
    worst_fid = 0.0
    worst_phase = 0.0
    for _ in range(1000):
        u = haar_random_unitary(rng)
        out = apply_local(s, u, u)
        worst_fid = max(worst_fid, abs(out.fidelity(s) - 1.0))
        extracted = float(np.angle(np.vdot(s.amps, out.amps)))
        expected = dark_state_phase(u)
        worst_phase = max(worst_phase,
                          abs(circular_difference(extracted, expected)))
    elapsed = time.perf_counter() - start
    _verdict(1, "dark-state invariance",
             worst_fid < 1e-12 and worst_phase < 1e-9 and elapsed < 1.0)


# ---------------------------------------------------------------- criterion 2

def test_02_no_signalling():
    start = time.perf_counter()
    species = ClockSpecies("cs", 2.0)
    batch = 10_000
    times = np.linspace(0.1, 3.0, 10)
    sigma4 = 4.0 * math.sqrt(0.25 / batch)
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        ens = Ensemble(batch * len(times), species,
                       eta=rng.uniform(0, 2 * math.pi))
        alice_collapse_all(ens, 0.0, rng.uniform(0, 2 * math.pi), rng)
        # Bob holds the whole ensemble: no label partition has reached him
        handle = select_subensemble(ens, np.arange(1, ens.n_pairs + 1))
        for t in times:
            n_pos, n = sample_batch(handle, float(t), batch, "B", 0.4, rng)
            if abs(n_pos / n - 0.5) > sigma4:
                ok = False
    elapsed = time.perf_counter() - start
    _verdict(2, "no-signalling", ok and elapsed < 30.0)


# -------------------------------------------------------- criteria 3 and 4

def _single_frequency_runs(delta: float, n_seeds: int):
    species = ClockSpecies("cs", 2.0)
    period = 2 * math.pi / species.omega
    times = tuple(np.linspace(0.05, 0.05 + period, 20))
    schedules = ProtocolSchedules(alice=SamplingSchedule(times, 10_000),
                                  bob=SamplingSchedule(times, 10_000))
    alice = PartyConfig("A", 0.9)
    bob = PartyConfig("B", 0.9 - delta)
    channel = ChannelModel()
    outcomes = []
    for seed in range(n_seeds):
        ens = Ensemble(1_000_000, species)
        result = run_single_frequency(ens, alice, bob, channel, schedules,
                                      np.random.default_rng(3000 + seed),
                                      np.random.default_rng(1))
        assert result.status == "ok"
        outcomes.append(result.species_outcomes["cs"])
    return outcomes


def test_03_synchrony_at_zero_delta():
    start = time.perf_counter()
    outcomes = _single_frequency_runs(0.0, 100)
    hits = 0
    for out in outcomes:
        gap = circular_difference(out.bob_phase.phase, out.alice_phase.phase)
        sigma = math.hypot(out.alice_phase.sigma, out.bob_phase.sigma)
        if abs(gap) < 3 * sigma:
            hits += 1
    elapsed = time.perf_counter() - start
    _verdict(3, "synchrony at delta = 0", hits >= 95 and elapsed < 120.0)


def test_04_offset_recovery():
    outcomes = _single_frequency_runs(0.7, 100)
    gaps = [circular_difference(o.bob_phase.phase - o.alice_phase.phase, 0.7)
            for o in outcomes]
    mean_err = float(np.mean(gaps))
    sem = float(np.std(gaps, ddof=1)) / math.sqrt(len(gaps))
    _verdict(4, "offset recovery", abs(mean_err) < 3 * sem + 1e-12)


# ---------------------------------------------------------------- criterion 5

TF_SPECIES = (ClockSpecies("tone1", 2.0), ClockSpecies("tone2", 2.2))


def _two_frequency_run(delta: float, quantum_seed: int):
    alice = PartyConfig("A", 0.9)
    bob = PartyConfig("B", 0.9 - delta)
    ensembles = tuple(Ensemble(80_000, s) for s in TF_SPECIES)
    times = tuple(np.linspace(0.05, 20.0, 120))
    schedules = ProtocolSchedules(alice=SamplingSchedule(times, 300),
                                  bob=SamplingSchedule(times, 300))
    return run_two_frequency(ensembles, alice, bob, ChannelModel(), schedules,
                             np.random.default_rng(quantum_seed),
                             np.random.default_rng(2))


def test_05_delta_immunity():
    deltas = np.linspace(0.0, 2 * math.pi, 8, endpoint=False)
    bob_phases, bob_sigmas = [], []
    agree = True
    for delta in deltas:
        result = _two_frequency_run(float(delta), quantum_seed=5005)
        assert result.status == "ok"
        bob_phases.append(result.envelope_b.phase)
        bob_sigmas.append(result.envelope_b.sigma)
        ab_gap = circular_difference(result.envelope_a.phase,
                                     result.envelope_b.phase, period=math.pi)
        ab_sigma = math.hypot(result.envelope_a.sigma, result.envelope_b.sigma)
        if abs(ab_gap) > 3 * ab_sigma:
            agree = False
    center = bob_phases[0]
    residuals = np.array([circular_difference(p, center, period=math.pi)
                          for p in bob_phases])
    residuals -= residuals.mean()
    # spread consistent with the reported sigma: chi-square on 7 dof at 1%.
    # A real delta dependence (envelope tracking delta/2) would overshoot
    # this by two orders of magnitude in spread.
    chi2_stat = float(np.sum((residuals / np.asarray(bob_sigmas)) ** 2))
    spread_ok = chi2_stat < chi2.ppf(0.99, len(residuals) - 1)
    _verdict(5, "delta immunity of the envelope", spread_ok and agree)


# ---------------------------------------------------------------- criterion 6

def test_06_time_origin():
    # analytic placement of the noiseless first envelope maximum
    omega1, omega2 = 2.0, 2.2
    times = np.linspace(0.02, 25.0, 600)
    batch = 10_000.0
    series = []
    for omega in (omega1, omega2):
        p = 0.5 * (1.0 + np.cos(omega * times + 0.35))
        series.append(PopulationSeries(times, p * batch, (1 - p) * batch,
                                       np.full_like(times, batch)))
    beats = beat_difference(series[0], series[1])
    t_exact, _ = first_envelope_maximum(beats, omega1, omega2)
    noiseless_ok = abs(t_exact - math.pi / 0.2) < 1e-6

    # full noisy protocol agreement between the parties
    cfg = TimeOriginConfig(omega1=2.0, delta_omega=0.2, protocol_duration_T=7.0)
    alice = PartyConfig("A", 0.9)
    bob = PartyConfig("B", 0.4)
    grid = tuple(np.linspace(0.05, 20.0, 120))
    schedules = ProtocolSchedules(alice=SamplingSchedule(grid, 300),
                                  bob=SamplingSchedule(grid, 300))
    hits = 0
    for seed in range(100):
        ensembles = tuple(Ensemble(80_000, s) for s in TF_SPECIES)
        result = establish_time_origin(cfg, ensembles, alice, bob, ChannelModel(),
                                       schedules, np.random.default_rng(6000 + seed),
                                       np.random.default_rng(3))
        if result.status != "ok":
            continue
        sigma = math.hypot(result.t_origin_sigma_a, result.t_origin_sigma_b)
        if abs(result.t_origin_a - result.t_origin_b) < 3 * sigma:
            hits += 1

    # the uniqueness window is a load-time constraint
    with pytest.raises(ConfigError):
        TimeOriginConfig(omega1=2.0, delta_omega=0.2,
                         protocol_duration_T=math.pi / 0.4)
    _verdict(6, "common time origin", noiseless_ok and hits >= 95)


# ---------------------------------------------------------------- criterion 7

def _channel_run(channel: ChannelModel, quantum_seed: int):
    species = ClockSpecies("cs", 2.0)
    times = tuple(np.linspace(0.1, 4.0, 12))
    # absolute pre-agreed schedule placed after the worst-case delivery
    bob_times = tuple(t + 2e6 for t in times)
    schedules = ProtocolSchedules(alice=SamplingSchedule(times, 400),
                                  bob=SamplingSchedule(bob_times, 400))
    alice = PartyConfig("A", 0.9)
    bob = PartyConfig("B", 0.2)
    ens = Ensemble(12_000, species)
    result = run_single_frequency(ens, alice, bob, channel, schedules,
                                  np.random.default_rng(quantum_seed),
                                  np.random.default_rng(4))
    assert result.status == "ok"
    out = result.species_outcomes["cs"]
    return out.alice_phase, out.bob_phase


def test_07_channel_independence():
    start = time.perf_counter()
    channels = [ChannelModel(base_delay=d, jitter_sigma=j)
                for d in (0.0, 1e3, 1e6) for j in (0.0, 50.0)]
    estimates = [_channel_run(ch, quantum_seed=7007) for ch in channels]
    bit_identical = all(e == estimates[0] for e in estimates[1:])

    sigma_grid = (1e-6, 1e-5, 1e-4, 1e-3)
    es_rms = [es_rms_error(MediumModel(distance=1e7, mean_index=1.2,
                                       index_fluctuation_sigma=s),
                           3000, np.random.default_rng(70))
              for s in sigma_grid]
    es_monotone = all(a < b for a, b in zip(es_rms, es_rms[1:]))

    # protocol error samples per medium cell, same quantum seeds throughout
    from qclocksync.channels import SPEED_OF_LIGHT
    from qclocksync.protocol import score_single_frequency
    species = ClockSpecies("cs", 2.0)
    qcs_samples = []
    for s in sigma_grid:
        delay = 1e7 * 1.2 / SPEED_OF_LIGHT
        jitter = 1e7 * s / SPEED_OF_LIGHT
        ch = ChannelModel(base_delay=delay, jitter_sigma=jitter)
        times = tuple(np.linspace(0.1, 4.0, 12))
        bob_times = tuple(t + delay + 10 * jitter + 1.0 for t in times)
        schedules = ProtocolSchedules(alice=SamplingSchedule(times, 400),
                                      bob=SamplingSchedule(bob_times, 400))
        alice = PartyConfig("A", 0.9)
        bob = PartyConfig("B", 0.2)
        errs = []
        for seed in range(50):
            ens = Ensemble(12_000, species)
            result = run_single_frequency(ens, alice, bob, ch, schedules,
                                          np.random.default_rng(7100 + seed),
                                          np.random.default_rng(5))
            score_single_frequency(result, alice, bob, species)
            errs.append(result.sync_error)
        qcs_samples.append(np.asarray(errs))
    ks_ok = all(ks_2samp(qcs_samples[0], other).pvalue > 0.05
                for other in qcs_samples[1:])
    elapsed = time.perf_counter() - start
    _verdict(7, "channel independence",
             bit_identical and es_monotone and ks_ok and elapsed < 300.0)


# ---------------------------------------------------------------- criterion 8

def test_08_oracle_equivalence():
    rng = np.random.default_rng(8008)
    worst = 0.0
    for _ in range(10_000):
        party = "A" if rng.random() < 0.5 else "B"
        pair_type = TYPE_I if rng.random() < 0.5 else TYPE_II
        omega = rng.uniform(0.1, 10.0)
        tau = rng.uniform(0.0, 20.0)
        phi_a = rng.uniform(0, 2 * math.pi)
        eta = rng.uniform(0, 2 * math.pi)
        phi_m = rng.uniform(0, 2 * math.pi)
        closed = pos_probability(party, pair_type, omega, tau, phi_a, eta, phi_m)
        outcome, post = measure_dual(singlet_state(eta), "A", phi_a,
                                     0.25 if pair_type == TYPE_I else 0.75)
        u = evolution_unitary(ClockSpecies("o", omega), tau)
        evolved = apply_local(post, u, u)
        oracle = dual_projection_probability(evolved, party, phi_m)
        worst = max(worst, abs(closed - oracle))
    _verdict(8, "closed-form vs state-vector oracle", worst < 1e-12)


# ---------------------------------------------------------------- criterion 9

def test_09_artifact_determinism(tmp_path):
    scenario = {
        "mode": "single_frequency",
        "n_pairs": 12_000,
        "species": [{"name": "cs", "omega": 2.0}],
        "delta": 0.7,
        "schedule": {"start": 0.1, "stop": 4.0, "n_points": 12, "batch_size": 400},
        "channel": {"base_delay": 0.5, "jitter_sigma": 0.01},
        "bob_schedule": {"start": 2.0, "stop": 6.0, "n_points": 12,
                         "batch_size": 400},
        "seeds": {"quantum": 11, "channel": 12},
    }
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(scenario))
    artifacts = []
    for sub in ("o1", "o2"):
        out = tmp_path / sub
        assert main(["run", str(path), "-o", str(out)]) == 0
        artifacts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    _verdict(9, "byte-identical reruns", artifacts[0] == artifacts[1])
