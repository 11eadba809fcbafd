"""Scenario configuration: loading, validation, resolution, and execution.

A scenario is a human-editable YAML file. Running it writes a deterministic
artifact set into the output directory:

    config_echo.yaml   resolved configuration (reloads to an equivalent config)
    events.jsonl       ordered event transcript (line-delimited records)
    series_*.csv       per-party, per-species population series
    result.json        SyncResult (or baseline summary) as a structured record

Identical configuration and seeds produce byte-identical artifacts: no
wall-clock timestamps are ever written, and every file header documents the
seeds and package version instead.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .channels import SPEED_OF_LIGHT, ChannelModel, MediumModel, es_rms_error
from .ensemble import SamplingSchedule, create_ensemble
from .errors import ConfigError, QcsError
from .protocol import (
    PartyConfig,
    ProtocolSchedules,
    SyncResult,
    TimeOriginConfig,
    Transcript,
    establish_time_origin,
    run_single_frequency,
    run_two_frequency,
    score_envelope,
    score_single_frequency,
    score_time_origin,
)
from .quantum import TWO_PI, ClockSpecies, normalize_phase

MODES = ("single_frequency", "two_frequency", "time_origin", "baseline_sweep")

EXIT_OK = 0
EXIT_INVALID_CONFIG = 1
EXIT_RUNTIME_ERROR = 2
EXIT_INCONCLUSIVE = 3


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding: which field, what constraint, what was seen."""

    field: str
    constraint: str
    observed: object
    severity: str = "error"  # 'error' blocks the run, 'warning' does not

    def to_dict(self) -> dict:
        return {"field": self.field, "constraint": self.constraint,
                "observed": self.observed, "severity": self.severity}


@dataclass
class ScenarioConfig:
    mode: str
    n_pairs: int = 0
    eta: float = 0.0
    species: list[dict] = field(default_factory=list)  # [{'name':..., 'omega':...}]
    alice_phase: float = 0.0
    bob_phase: float | None = None  # derived from delta when None
    delta: object = None  # float | 'random' | None
    alice_clock_offset: float = 0.0
    bob_clock_offset: float = 0.0
    schedule: dict = field(default_factory=dict)  # start, stop, n_points, batch_size
    bob_schedule: dict | None = None
    collapse_time: float = 0.0
    send_time: float | None = None
    channel: dict = field(default_factory=dict)
    time_origin: dict | None = None  # omega1, delta_omega, duration_T
    baseline: dict | None = None
    seeds: dict = field(default_factory=lambda: {"quantum": 0, "channel": 0, "delta": 0})
    output_dir: str | None = None

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "mode" not in raw:
            raise ConfigError("config field 'mode' is required")
        if not isinstance(raw.get("seeds") or {}, dict):
            raise ConfigError("config field 'seeds' must be a mapping")
        cfg = cls(**raw)
        cfg.seeds = {"quantum": 0, "channel": 0, "delta": 0, **(cfg.seeds or {})}
        return cfg

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


def load_config(path) -> ScenarioConfig:
    with open(path) as fh:
        raw = yaml.safe_load(fh)
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return ScenarioConfig.from_dict(raw)


def _schedule_from(d: dict) -> SamplingSchedule:
    times = np.linspace(float(d["start"]), float(d["stop"]), int(d["n_points"]))
    return SamplingSchedule(tuple(float(t) for t in times), int(d["batch_size"]))


def _is_count(value, low: int) -> bool:
    """True for an integer (an integral float included, bool excluded) >= low."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return float(value).is_integer() and value >= low


def _is_finite(value) -> bool:
    """True for a finite int or float (bool and numeric strings excluded)."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _to_float(value) -> float | None:
    """value as a float, or None if it is not a number (bool excluded).

    Numeric strings count: YAML reads an exponent without a sign (1.0e6) as
    a string."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _medium_fault(**fields) -> str | None:
    """MediumModel's objection to these fields (the others at a valid
    default), or None; the medium's rules live in MediumModel alone."""
    try:
        MediumModel(**{"distance": 1.0, **fields})
    except ValueError as exc:
        return str(exc)
    return None


def _budget_limit(n_pairs: int) -> float:
    # Subensemble size is Binomial(N, 1/2); allow expectation minus 5 sigma.
    return n_pairs / 2.0 - 2.5 * math.sqrt(n_pairs)


def validate_config(config: ScenarioConfig) -> list[Diagnostic]:
    """All load-time diagnostics; the config is runnable iff none has
    severity 'error'."""
    diags: list[Diagnostic] = []

    def err(field_, constraint, observed):
        diags.append(Diagnostic(field_, constraint, observed, "error"))

    def warn(field_, constraint, observed):
        diags.append(Diagnostic(field_, constraint, observed, "warning"))

    if config.mode not in MODES:
        err("mode", f"one of {MODES}", config.mode)
        return diags

    for key in ("quantum", "channel", "delta"):
        if not _is_count(config.seeds[key], 0):
            err(f"seeds.{key}", "an integer >= 0", config.seeds[key])

    if config.mode == "baseline_sweep":
        base = config.baseline or {}
        if not isinstance(base, dict):
            err("baseline", "a mapping with sigma_grid, distance_grid, n_trials", base)
            return diags
        for key, param in (("sigma_grid", "index_fluctuation_sigma"),
                           ("distance_grid", "distance")):
            grid = base.get(key)
            if not grid or not isinstance(grid, (list, tuple)):
                err(f"baseline.{key}", "non-empty list required", grid)
                continue
            vals = [_to_float(v) for v in grid]
            if None in vals:
                err(f"baseline.{key}", "numeric values required", grid)
                continue
            fault = next(filter(None, (_medium_fault(**{param: v}) for v in vals)), None)
            if fault:
                err(f"baseline.{key}", fault, grid)
        mean_index = _to_float(base.get("mean_index", 1.0))
        fault = ("a finite number >= 1" if mean_index is None
                 else _medium_fault(mean_index=mean_index))
        if fault:
            err("baseline.mean_index", fault, base.get("mean_index"))
        if not _is_count(base.get("n_trials"), 1):
            err("baseline.n_trials", "an integer >= 1", base.get("n_trials"))
        if not _is_count(base.get("n_qcs_seeds", 20), 1):
            err("baseline.n_qcs_seeds", "an integer >= 1", base.get("n_qcs_seeds"))
        if not diags:
            diags.extend(_qcs_cell_diagnostics(config, base))
        return diags

    # quantum-protocol modes
    to_ok = False
    if config.mode == "time_origin":
        to = config.time_origin
        if not isinstance(to, dict):
            err("time_origin", "a mapping with omega1, delta_omega, duration_T", to)
        else:
            n_before = len(diags)
            for key in ("omega1", "delta_omega", "duration_T"):
                if key not in to:
                    err(f"time_origin.{key}", "required", None)
                elif not (_is_finite(to[key]) and to[key] > 0):
                    err(f"time_origin.{key}", "a finite number > 0", to[key])
            to_ok = len(diags) == n_before
            if to_ok and not to["delta_omega"] * to["duration_T"] < math.pi / 2.0:
                err("time_origin", "delta_omega * duration_T < pi/2 (strict)",
                    to["delta_omega"] * to["duration_T"])
                to_ok = False
    else:
        want = 2 if config.mode == "two_frequency" else 1
        species = config.species if isinstance(config.species, list) else []
        if not isinstance(config.species, list) or len(species) != want:
            err("species", f"a list of exactly {want} species for mode {config.mode}",
                config.species)
        for i, sp in enumerate(species):
            if not isinstance(sp, dict):
                err(f"species[{i}]", "a mapping with name and omega", sp)
                continue
            if not (isinstance(sp.get("name"), str) and sp["name"]):
                err(f"species[{i}].name", "a non-empty string", sp.get("name"))
            if not (_is_finite(sp.get("omega")) and sp["omega"] > 0):
                err(f"species[{i}].omega", "a finite number > 0", sp.get("omega"))
        if want == 2 and len(species) == 2 and all(isinstance(sp, dict) for sp in species):
            if species[0].get("omega") == species[1].get("omega"):
                err("species", "two distinct frequencies required", species[0].get("omega"))
            if species[0].get("name") == species[1].get("name"):
                err("species", "two distinct names required", species[0].get("name"))

    for key in ("eta", "alice_phase", "alice_clock_offset", "bob_clock_offset",
                "collapse_time", "bob_phase", "send_time"):
        value = getattr(config, key)
        if key in ("bob_phase", "send_time") and value is None:
            continue  # derived when the scenario leaves it out
        if not _is_finite(value):
            err(key, "a finite number", value)

    n_pairs_ok = _is_count(config.n_pairs, 1)
    if not n_pairs_ok:
        err("n_pairs", "an integer >= 1", config.n_pairs)

    envelope = config.mode in ("two_frequency", "time_origin")
    min_points = ((5, "an integer >= 5 (an envelope fit needs 5 points)") if envelope
                  else (3, "an integer >= 3 (distinct times needed for a phase fit)"))
    schedules = [("schedule", config.schedule)]
    if config.bob_schedule is not None:  # else Bob uses Alice's, checked once
        schedules.append(("bob_schedule", config.bob_schedule))
    for name, sched in schedules:
        if not isinstance(sched, dict):
            err(name, "a mapping with start, stop, n_points, batch_size", sched)
            continue
        missing = [k for k in ("start", "stop", "n_points", "batch_size") if k not in sched]
        if missing:
            err(name, f"missing keys {missing}", sched)
            continue
        bad_bounds = [k for k in ("start", "stop") if not _is_finite(sched[k])]
        for key in bad_bounds:
            err(f"{name}.{key}", "a finite number", sched[key])
        counts_ok = True
        for key, low, constraint in (("n_points", *min_points),
                                     ("batch_size", 1, "an integer >= 1")):
            if not _is_count(sched[key], low):
                err(f"{name}.{key}", constraint, sched[key])
                counts_ok = False
        if not bad_bounds and sched["stop"] <= sched["start"]:
            err(f"{name}.stop", "> start", (sched["start"], sched["stop"]))
        elif not bad_bounds and counts_ok:
            try:  # e.g. fine spacing at 1e20 s gives repeated linspace times
                _schedule_from(sched)
            except ValueError as exc:
                err(name, str(exc), sched)
        budget = sched["n_points"] * sched["batch_size"] if counts_ok else 0
        if n_pairs_ok and budget > _budget_limit(config.n_pairs):
            err(f"{name}", "n_points * batch_size within N/2 minus 5-sigma margin",
                {"requested": budget, "limit": _budget_limit(config.n_pairs)})

    # Alice's collapse, her send and her first sample, all in her local time
    collapse = config.collapse_time
    if _is_finite(collapse):
        if _is_finite(config.send_time) and config.send_time < collapse:
            err("send_time", ">= collapse_time (labels follow the collapse)",
                {"send_time": config.send_time, "collapse_time": collapse})
        start = config.schedule.get("start") if isinstance(config.schedule, dict) else None
        if _is_finite(start) and start < collapse:
            err("collapse_time", "<= schedule.start (Alice samples after her collapse)",
                {"collapse_time": collapse, "start": start})

    ch = config.channel or {}
    try:
        # the channel rules live in ChannelModel alone
        channel = ChannelModel(**ch)
    except (TypeError, ValueError) as exc:
        err("channel", str(exc), ch)
    else:
        if channel.loss_probability >= 1.0:
            warn("channel.loss_probability", "< 1 (protocol will always abort)",
                 channel.loss_probability)

    if config.delta == "random":
        if config.bob_phase is not None:
            # a drawn delta cannot be known to agree with a fixed bob_phase
            err("delta", "'random' excludes bob_phase (give one)",
                {"delta": config.delta, "bob_phase": config.bob_phase})
    elif config.delta is not None and not _is_finite(config.delta):
        err("delta", "a finite number, 'random', or null", config.delta)
    elif (config.delta is not None and _is_finite(config.bob_phase)
          and _is_finite(config.alice_phase)):
        # both may appear in an echoed config, but only if they agree
        implied = normalize_phase(config.alice_phase - float(config.delta))
        if abs(implied - normalize_phase(config.bob_phase)) > 1e-9:
            err("delta", "delta and bob_phase disagree (give one, or consistent values)",
                {"delta": config.delta, "bob_phase": config.bob_phase})

    if envelope and not any(d.severity == "error" for d in diags):
        diags.extend(_envelope_spacing_diagnostics(config))

    if to_ok and not diags:
        t_max = math.pi / config.time_origin["delta_omega"]
        sched = config.bob_schedule or config.schedule
        if sched.get("stop", 0) < t_max:
            warn("schedule.stop", "should bracket the first envelope maximum pi/delta_omega",
                 {"stop": sched.get("stop"), "t_max": t_max})
    return diags


def _envelope_spacing_diagnostics(config: ScenarioConfig) -> list[Diagnostic]:
    """envelope_phase's resolution rule, max gap < pi/(omega1 + omega2), on
    the local times each party's beat series will carry: its schedule taken
    to global time and back, as the run does, so the two tests agree to the
    last bit. Called once the rest of a two-species config is valid."""
    species = (_time_origin_species_dicts(config.time_origin)
               if config.mode == "time_origin" else config.species)
    limit = math.pi / (float(species[0]["omega"]) + float(species[1]["omega"]))
    bob_field = "schedule" if config.bob_schedule is None else "bob_schedule"
    gaps: dict[str, float] = {}
    for name, sched, offset in (
            ("schedule", config.schedule, config.alice_clock_offset),
            (bob_field, config.bob_schedule or config.schedule, config.bob_clock_offset)):
        local = np.asarray(_schedule_from(sched).times) - float(offset) + float(offset)
        gap = float(np.max(np.diff(local)))
        if gap >= limit:
            gaps.setdefault(name, gap)
    return [Diagnostic(name, f"sample spacing < pi/(omega1 + omega2) = {limit:.4g} s "
                       "(an envelope fit must resolve the fast oscillation)", {"max_gap": gap})
            for name, gap in gaps.items()]


def _qcs_cell_diagnostics(config: ScenarioConfig, base: dict) -> list[Diagnostic]:
    """Faults of a baseline sweep's QCS cell, reported under
    baseline.qcs_scenario, then of the cell as each grid point builds it
    (Bob's schedule shifted past the worst-case delivery), reported under
    baseline.distance_grid. Called once the rest of the baseline is valid."""
    name = "baseline.qcs_scenario"
    raw = base.get("qcs_scenario") or _default_qcs_cell(config)
    if not isinstance(raw, dict):
        return [Diagnostic(name, "a single_frequency scenario mapping", raw)]
    try:
        cell = ScenarioConfig.from_dict(raw)
    except ConfigError as exc:
        return [Diagnostic(name, str(exc), raw)]
    if cell.mode != "single_frequency":
        return [Diagnostic(f"{name}.mode", "single_frequency", cell.mode)]
    # _qcs_cell replaces both from the medium, so a given value would be ignored
    overridden = [Diagnostic(f"{name}.{key}", "left out: each grid cell derives it from "
                             "the medium", raw[key]) for key in ("channel", "bob_schedule")
                  if raw.get(key) is not None]
    if overridden:
        return overridden
    diags = [dataclasses.replace(d, field=f"{name}.{d.field}") for d in validate_config(cell)]
    if any(d.severity == "error" for d in diags):
        return diags
    mean_index = float(base.get("mean_index", 1.0))
    for sigma in base["sigma_grid"]:
        for distance in base["distance_grid"]:
            medium = MediumModel(distance=float(distance), mean_index=mean_index,
                                 index_fluctuation_sigma=float(sigma))
            try:
                with np.errstate(all="ignore"):
                    _protocol_setup(_qcs_cell(cell, medium))
            except (ValueError, QcsError) as exc:
                diags.append(Diagnostic(
                    "baseline.distance_grid",
                    "Bob's QCS schedule shifted by distance * (mean_index + 10 * sigma) / c "
                    f"must stay finite and strictly increasing ({exc})",
                    {"distance": float(distance), "sigma": float(sigma)}))
                return diags
    return diags


def _time_origin_species_dicts(to: dict) -> list[dict]:
    return [
        {"name": "tone1", "omega": float(to["omega1"])},
        {"name": "tone2", "omega": float(to["omega1"]) + float(to["delta_omega"])},
    ]


def resolve_config(config: ScenarioConfig) -> ScenarioConfig:
    """Fill derived fields: random delta (own seed) and Bob's basis phase."""
    resolved = ScenarioConfig.from_dict(config.to_dict())
    if resolved.mode == "baseline_sweep":
        return resolved
    if resolved.mode == "time_origin":
        resolved.species = _time_origin_species_dicts(resolved.time_origin)
    if resolved.delta == "random":
        rng = np.random.default_rng(int(resolved.seeds["delta"]))
        resolved.delta = float(rng.uniform(0.0, TWO_PI))
    if resolved.bob_phase is None:
        delta = float(resolved.delta) if resolved.delta is not None else 0.0
        resolved.bob_phase = normalize_phase(resolved.alice_phase - delta)
        resolved.delta = delta
    if resolved.send_time is None:
        resolved.send_time = resolved.collapse_time
    if resolved.bob_schedule is None:
        resolved.bob_schedule = dict(resolved.schedule)
    return resolved


def _protocol_setup(config: ScenarioConfig):
    """Species, parties, schedules and channel of a resolved quantum-mode config."""
    species = [ClockSpecies(s["name"], float(s["omega"])) for s in config.species]
    names = [s.name for s in species]
    alice = PartyConfig("A", {n: config.alice_phase for n in names},
                        config.alice_clock_offset)
    bob = PartyConfig("B", {n: config.bob_phase for n in names},
                      config.bob_clock_offset)
    schedules = ProtocolSchedules(
        alice=_schedule_from(config.schedule),
        bob=_schedule_from(config.bob_schedule),
        collapse_time=float(config.collapse_time),
        send_time=float(config.send_time),
    )
    channel = ChannelModel(**(config.channel or {}))
    return species, alice, bob, schedules, channel


def _header(config: ScenarioConfig) -> str:
    s = config.seeds
    return (f"qclocksync {__version__} seeds: quantum={s['quantum']} "
            f"channel={s['channel']} delta={s['delta']}")


def run_scenario(config: ScenarioConfig, output_dir: str | None = None) -> tuple[int, dict]:
    """Validate, resolve, execute, and write artifacts.

    Returns (exit_code, result_record). Exit codes: 0 success, 1 invalid
    config, 2 runtime error, 3 inconclusive/no-sync protocol outcome.
    """
    diags = validate_config(config)
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        return EXIT_INVALID_CONFIG, {"diagnostics": [d.to_dict() for d in diags]}

    out_dir = output_dir or config.output_dir
    if out_dir is None:
        return EXIT_INVALID_CONFIG, {"diagnostics": [
            Diagnostic("output_dir", "required (config field or CLI flag)", None).to_dict()
        ]}
    os.makedirs(out_dir, exist_ok=True)

    resolved = resolve_config(config)
    with open(os.path.join(out_dir, "config_echo.yaml"), "w") as fh:
        fh.write(f"# {_header(resolved)}\n")
        yaml.safe_dump(resolved.to_dict(), fh, sort_keys=True)

    try:
        if resolved.mode == "baseline_sweep":
            record = _run_baseline_sweep(resolved, out_dir)
            status = "ok"
        else:
            record, status = _run_quantum_mode(resolved, out_dir)
    except Exception as exc:  # hard failure: distinct exit code from inconclusive
        record = {"error": f"{type(exc).__name__}: {exc}"}
        _write_result(out_dir, resolved, record)
        return EXIT_RUNTIME_ERROR, record

    _write_result(out_dir, resolved, record)
    if status != "ok":
        return EXIT_INCONCLUSIVE, record
    return EXIT_OK, record


def _write_result(out_dir: str, config: ScenarioConfig, record: dict) -> None:
    payload = {"version": __version__, "seeds": config.seeds, "result": record}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_series(out_dir: str, config: ScenarioConfig, result: SyncResult) -> None:
    header = _header(config)
    for name, out in sorted(result.species_outcomes.items()):
        if out.alice_series is not None:
            out.alice_series.to_csv(os.path.join(out_dir, f"series_alice_{name}.csv"),
                                    header_comment=header)
        if out.bob_series is not None:
            out.bob_series.to_csv(os.path.join(out_dir, f"series_bob_{name}.csv"),
                                  header_comment=header)


def _run_quantum_mode(config: ScenarioConfig, out_dir: str) -> tuple[dict, str]:
    species, alice, bob, schedules, channel = _protocol_setup(config)
    qrng = np.random.default_rng(int(config.seeds["quantum"]))
    crng = np.random.default_rng(int(config.seeds["channel"]))
    transcript = Transcript()

    if config.mode == "single_frequency":
        ens = create_ensemble(config.n_pairs, species[0], config.eta)
        result = run_single_frequency(ens, alice, bob, channel, schedules,
                                      qrng, crng, transcript)
        score_single_frequency(result, alice, bob, species[0], config.eta)
    elif config.mode == "two_frequency":
        ens = tuple(create_ensemble(config.n_pairs, sp, config.eta) for sp in species)
        result = run_two_frequency(ens, alice, bob, channel, schedules,
                                   qrng, crng, transcript)
        score_envelope(result, alice, bob, species[0].omega, species[1].omega)
    else:  # time_origin
        to = config.time_origin
        to_cfg = TimeOriginConfig(float(to["omega1"]), float(to["delta_omega"]),
                                  float(to["duration_T"]))
        ens = tuple(create_ensemble(config.n_pairs, sp, config.eta) for sp in species)
        result = establish_time_origin(to_cfg, ens, alice, bob, channel, schedules,
                                       qrng, crng, transcript)
        score_time_origin(result, alice, bob)

    with open(os.path.join(out_dir, "events.jsonl"), "w") as fh:
        meta = {"kind": "meta", "version": __version__, "seeds": config.seeds}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        fh.write(transcript.to_jsonl())
    _write_series(out_dir, config, result)
    return result.to_dict(), result.status


def _run_baseline_sweep(config: ScenarioConfig, out_dir: str) -> dict:
    """Grid sweep comparing Einstein-synchronization RMS error against the
    entanglement protocol's, with the classical channel driven by the same
    medium (delay = distance * n / c, jitter = distance * sigma / c)."""
    base = config.baseline
    n_trials = int(base["n_trials"])
    mean_index = float(base.get("mean_index", 1.0))
    n_qcs_seeds = int(base.get("n_qcs_seeds", 20))
    qcs_cell = ScenarioConfig.from_dict(base.get("qcs_scenario") or _default_qcs_cell(config))

    rows = []
    crng = np.random.default_rng(int(config.seeds["channel"]))
    for sigma in [float(v) for v in base["sigma_grid"]]:
        for distance in [float(v) for v in base["distance_grid"]]:
            medium = MediumModel(distance=float(distance), mean_index=mean_index,
                                 index_fluctuation_sigma=float(sigma))
            rms_es = es_rms_error(medium, n_trials, crng)
            rms_qcs = _qcs_rms(qcs_cell, medium, n_qcs_seeds,
                               int(config.seeds["quantum"]),
                               int(config.seeds["channel"]))
            rows.append((float(sigma), float(distance), rms_es, rms_qcs, n_trials))

    path = os.path.join(out_dir, "baseline.csv")
    with open(path, "w") as fh:
        fh.write(f"# {_header(config)}\n")
        fh.write("sigma,distance,rms_error_es,rms_error_qcs,n_trials\n")
        for sigma, distance, rms_es, rms_qcs, n in rows:
            fh.write(f"{sigma!r},{distance!r},{rms_es!r},{rms_qcs!r},{n}\n")
    return {"n_cells": len(rows),
            "cells": [{"sigma": r[0], "distance": r[1], "rms_error_es": r[2],
                       "rms_error_qcs": r[3], "n_trials": r[4]} for r in rows]}


def _default_qcs_cell(config: ScenarioConfig) -> dict:
    return {
        "mode": "single_frequency",
        "n_pairs": 20000,
        "species": [{"name": "cs", "omega": 1.0}],
        "delta": 0.0,
        "schedule": {"start": 0.0, "stop": 6.0, "n_points": 10, "batch_size": 500},
        "seeds": dict(config.seeds),
    }


def _qcs_cell(cell: ScenarioConfig, medium: MediumModel) -> ScenarioConfig:
    """The resolved QCS cell for one medium: the label channel inherits the
    medium's delay and jitter, and Bob's measurements start after worst-case
    delivery so the schedule is reachable for every cell in the sweep."""
    base_delay = medium.distance * medium.mean_index / SPEED_OF_LIGHT
    jitter = medium.distance * medium.index_fluctuation_sigma / SPEED_OF_LIGHT
    margin = base_delay + 10.0 * jitter
    sched = cell.schedule
    return resolve_config(dataclasses.replace(
        cell,
        channel={"base_delay": base_delay, "jitter_sigma": jitter, "loss_probability": 0.0},
        bob_schedule={**sched, "start": sched["start"] + margin,
                      "stop": sched["stop"] + margin}))


def _qcs_rms(cell: ScenarioConfig, medium: MediumModel, n_seeds: int,
             quantum_seed: int, channel_seed: int) -> float:
    """RMS entanglement-protocol sync error across quantum seeds, with the
    label channel inheriting the medium's delay and jitter."""
    cell = _qcs_cell(cell, medium)
    all_species, alice, bob, schedules, channel = _protocol_setup(cell)
    species = all_species[0]
    errs = []
    children = np.random.SeedSequence(quantum_seed).spawn(n_seeds)
    for i in range(n_seeds):
        qrng = np.random.default_rng(children[i])
        crng = np.random.default_rng(np.random.SeedSequence(channel_seed).spawn(1)[0])
        ens = create_ensemble(cell.n_pairs, species, cell.eta)
        result = run_single_frequency(ens, alice, bob, channel, schedules, qrng, crng)
        score_single_frequency(result, alice, bob, species, cell.eta)
        if result.sync_error is not None:
            errs.append(result.sync_error)
    if not errs:
        return math.nan
    return float(np.sqrt(np.mean(np.square(errs))))
