"""Scenario configuration: loading, validation, resolution, and execution.

A scenario is a human-editable YAML file. Running it writes a deterministic
artifact set into the output directory:

    config_echo.yaml   resolved scenario, every field (reloads to the same run)
    events.jsonl       ordered event transcript (line-delimited records)
    series_*.csv       per-party, per-species population series
    result.json        SyncResult (or baseline summary) as a structured record

Identical configuration and seeds produce byte-identical artifacts: no
wall-clock timestamps are ever written, and every file header documents the
seeds and package version instead.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import yaml

from . import __version__
from .channels import SPEED_OF_LIGHT, ChannelModel, MediumModel, es_rms_error
from .ensemble import Ensemble, SamplingSchedule
from .errors import ConfigError, QcsError
from .estimation import check_envelope_grid, check_phase_grid
from .protocol import (
    PartyConfig,
    ProtocolSchedules,
    SyncResult,
    TimeOriginConfig,
    Transcript,
    check_distinct_species,
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
        return dataclasses.asdict(self)


# A scenario is the mapping its YAML file holds. These are its fields, each
# with the value it takes when the scenario leaves it out.
FIELDS = {
    "mode": None,  # one of MODES; required
    "n_pairs": 0,
    "eta": 0.0,
    "species": [],  # [{'name':..., 'omega':...}]
    "alice_phase": 0.0,
    "bob_phase": None,  # derived from delta when None
    "delta": None,  # float | 'random' | None
    "alice_clock_offset": 0.0,
    "bob_clock_offset": 0.0,
    "schedule": {},  # start, stop, n_points, batch_size
    "bob_schedule": None,
    "collapse_time": 0.0,
    "send_time": None,
    "channel": {},
    "time_origin": None,  # omega1, delta_omega, duration_T
    "baseline": None,
    "seeds": {"quantum": 0, "channel": 0, "delta": 0},
    "output_dir": None,
}


# libyaml's parser where PyYAML was built with it: the same mappings as
# yaml.safe_load, in a fraction of the time. The echo keeps yaml.safe_dump,
# since libyaml's emitter folds long quoted strings at other places.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path) -> dict:
    with open(path) as fh:
        raw = yaml.load(fh, Loader=_YAML_LOADER)
    if not isinstance(raw, dict):
        raise ConfigError("config file must contain a mapping")
    return raw


def _schedule_from(d: dict) -> SamplingSchedule:
    times = np.linspace(float(d["start"]), float(d["stop"]), int(d["n_points"]))
    return SamplingSchedule(tuple(float(t) for t in times), int(d["batch_size"]))


def _budget_limit(n_pairs: int) -> float:
    # Subensemble size is Binomial(N, 1/2); allow expectation minus 5 sigma.
    return n_pairs / 2.0 - 2.5 * math.sqrt(n_pairs)


@dataclass
class Scenario:
    """A valid scenario as its run uses it: the resolved mapping (what
    config_echo.yaml holds) and the objects built from it."""

    config: dict
    species: list[ClockSpecies] = field(default_factory=list)
    alice: PartyConfig | None = None
    bob: PartyConfig | None = None
    schedules: ProtocolSchedules | None = None
    channel: ChannelModel | None = None
    time_origin: TimeOriginConfig | None = None
    # baseline_sweep: (medium, its QCS cell) per grid point, sigma-major
    grid: list[tuple[MediumModel, Scenario]] = field(default_factory=list)
    n_trials: int = 0
    n_qcs_seeds: int = 0


def _as_float(value, strings: bool = False) -> float:
    """value as a float if it is an int or a float (not a bool), or a string
    where strings is set (YAML reads 1.0e6 as one); else, or on overflow, NaN."""
    try:
        return float(value if type(value) in (int, float)
                     or strings and isinstance(value, str) else math.nan)
    except (ValueError, OverflowError):
        return math.nan


class _Schema:
    """One scenario's diagnostics, and the field parsers that record them:
    each returns the parsed value, or None once it has recorded a
    Diagnostic. A field keeps its first diagnostic only."""

    def __init__(self, prefix: str = ""):
        self.prefix, self.diags = prefix, []

    @property
    def ok(self) -> bool:
        return all(d.severity != "error" for d in self.diags)

    def error(self, field_: str, constraint: str, observed, severity: str = "error") -> None:
        field_ = self.prefix + field_
        if all(d.field != field_ for d in self.diags):
            self.diags.append(Diagnostic(field_, constraint, observed, severity))

    def number(self, field_: str, value, strings: bool = False,
               constraint: str = "a finite number") -> float | None:
        x = _as_float(value, strings)
        if math.isfinite(x):
            return x
        self.error(field_, constraint, value)

    def count(self, field_: str, value, low: int, high: int | None = None) -> int | None:
        """value as an int >= low (and <= high, if given): an int or an
        integral float."""
        if _as_float(value).is_integer() and value >= low and (high is None or value <= high):
            return int(value)
        self.error(field_, f"an integer >= {low}" if high is None
                   else f"an integer in [{low}, {high}]", value)

    def mapping(self, field_: str, value, keys: tuple | dict,
                required: bool = False) -> dict | None:
        """value if it is a mapping with no key outside keys, and with all of
        them if required; field_ is "" for the scenario itself."""
        if not isinstance(value, dict):
            return self.error(field_, f"a mapping of {', '.join(keys)}", value)
        missing = [k for k in keys if k not in value] if required else []
        if missing:
            self.error(field_, f"missing keys {missing}", value)
        unknown = [k for k in value if k not in keys]
        for key in unknown:
            self.error(f"{field_}.{key}" if field_ else str(key), f"one of {', '.join(keys)}",
                       value[key])
        return None if missing or unknown else value

    def build(self, fields, make, *args, observed=None, rule: str = ""):
        """make(*args): a constructor or check of the run. Its objection is
        recorded under fields, a field or a map from the argument the error
        names (errors.blame) to a field, with None for any other."""
        try:
            return make(*args)
        except (TypeError, ValueError, QcsError) as exc:
            if not isinstance(fields, str):
                fields = fields[getattr(exc, "param", None)]
            self.error(fields, f"{rule} ({exc})" if rule else str(exc), observed)


_SEEDS = ("quantum", "channel", "delta")
_SCHEDULE = ("start", "stop", "n_points", "batch_size")
_TIME_ORIGIN = ("omega1", "delta_omega", "duration_T")
_BASELINE = ("sigma_grid", "distance_grid", "n_trials", "mean_index", "n_qcs_seeds",
             "qcs_scenario")
# a baseline sweep's QCS cell where the scenario gives none; its run takes the
# sweep's seeds
_DEFAULT_QCS_CELL = {
    "mode": "single_frequency",
    "n_pairs": 20000,
    "species": [{"name": "cs", "omega": 1.0}],
    "delta": 0.0,
    "schedule": {"start": 0.0, "stop": 6.0, "n_points": 10, "batch_size": 500},
}


def parse_config(raw: dict,
                 prefix: str = "") -> tuple[Scenario | None, list[Diagnostic]]:
    """The Scenario that the mapping raw describes (None if a diagnostic has
    severity 'error') and every diagnostic, each field name led by prefix.

    Field parsers check each field. The rules that tie fields together are
    those of the objects the run uses, which are built once the fields pass.
    raw itself is left as it is: the resolved mapping is a new one.
    """
    schema = _Schema(prefix)
    if schema.mapping("", raw, FIELDS) is None:
        return None, schema.diags
    config = copy.deepcopy({**FIELDS, **raw})
    if config["mode"] not in MODES:
        schema.error("mode", f"one of {MODES}", config["mode"])
        return None, schema.diags
    config["seeds"], diags = parse_seeds(config["seeds"], prefix)
    schema.diags.extend(diags)
    output_dir = config["output_dir"]
    if not (output_dir is None or isinstance(output_dir, str) and output_dir):
        schema.error("output_dir", "a non-empty string (a directory path) or null", output_dir)
    parse = _parse_baseline if config["mode"] == "baseline_sweep" else _parse_protocol
    scenario = parse(schema, config)
    return (scenario if schema.ok else None), schema.diags


def validate_config(config: dict) -> list[Diagnostic]:
    """All load-time diagnostics; the config runs iff none is an 'error'."""
    return parse_config(config)[1]


def parse_seeds(raw, prefix: str = "") -> tuple[dict | None, list[Diagnostic]]:
    """A scenario's seeds, each one left out 0 (all of them for seeds: null),
    and their diagnostics as validate_config reports them: a sweep derives its
    cells' seeds from them before any cell is validated."""
    schema = _Schema(prefix)
    seeds = schema.mapping("seeds", {} if raw is None else raw, _SEEDS)
    if seeds is None:
        return None, schema.diags
    seeds = {**FIELDS["seeds"], **seeds}
    for key in _SEEDS:
        schema.count(f"seeds.{key}", seeds[key], 0)
    return seeds, schema.diags


def _parse_schedule(schema: _Schema, name: str, raw, n_pairs: int | None):
    sched = schema.mapping(name, raw, _SCHEDULE, required=True)
    if sched is None:
        return None
    start, stop = (schema.number(f"{name}.{k}", sched[k]) for k in ("start", "stop"))
    n_points = schema.count(f"{name}.n_points", sched["n_points"], 1)
    batch_size = schema.count(f"{name}.batch_size", sched["batch_size"], 1)
    if None in (start, stop, n_points, batch_size, n_pairs):
        return None
    if n_points * batch_size > _budget_limit(n_pairs):
        return schema.error(name, "n_points * batch_size within N/2 minus 5-sigma margin",
                            {"requested": n_points * batch_size,
                             "limit": _budget_limit(n_pairs)})
    return schema.build(name, _schedule_from, sched, observed=sched)


def _parse_protocol(schema: _Schema, config: dict) -> Scenario | None:
    """A quantum-protocol mode: species, parties, schedules and channel. The
    derived fields (bob_phase and a drawn delta, send_time, bob_schedule,
    the time-origin tones) are written into config."""
    to_cfg = None
    mode = config["mode"]
    if mode == "time_origin":
        to = schema.mapping("time_origin", config["time_origin"], _TIME_ORIGIN)
        values = [None] if to is None else [
            schema.number(f"time_origin.{k}", to.get(k)) for k in _TIME_ORIGIN]
        if None not in values:
            to_cfg = schema.build(
                {"omega1": "time_origin.omega1", "delta_omega": "time_origin.delta_omega",
                 "protocol_duration_T": "time_origin.duration_T", None: "time_origin"},
                TimeOriginConfig, *values, observed=to)
    else:
        want = 2 if mode == "two_frequency" else 1
        listed = config["species"] if isinstance(config["species"], list) else []
        if len(listed) != want or listed is not config["species"]:
            schema.error("species", f"a list of exactly {want} species for mode {mode}",
                         config["species"])
        for i, sp in enumerate(listed):
            if schema.mapping(f"species[{i}]", sp, ("name", "omega")) is not None:
                schema.number(f"species[{i}].omega", sp.get("omega"))
    for key in ("eta", "alice_phase", "alice_clock_offset", "bob_clock_offset",
                "collapse_time", "bob_phase", "send_time"):
        if config[key] is not None or key not in ("bob_phase", "send_time"):  # else derived
            schema.number(key, config[key])
    delta = config["delta"]
    if delta not in (None, "random"):
        schema.number("delta", delta, constraint="a finite number, 'random', or null")
    # a pair's masks are indexed by numpy, whose lengths are at most intp's maximum
    n_pairs = schema.count("n_pairs", config["n_pairs"], 1, int(np.iinfo(np.intp).max))
    alice_sched = _parse_schedule(schema, "schedule", config["schedule"], n_pairs)
    bob_field = "schedule" if config["bob_schedule"] is None else "bob_schedule"
    bob_sched = (alice_sched if bob_field == "schedule"  # Bob samples on Alice's grid
                 else _parse_schedule(schema, "bob_schedule", config["bob_schedule"], n_pairs))
    channel = schema.build("channel", lambda: ChannelModel(**(config["channel"] or {})),
                           observed=config["channel"])
    if channel is not None and channel.loss_probability >= 1.0:
        schema.error("channel.loss_probability", "< 1 (protocol will always abort)",
                     channel.loss_probability, "warning")
    if not schema.ok:
        return None
    if config["bob_phase"] is None:  # derived: bob_phase = alice_phase - delta
        if delta == "random":  # drawn from its own seed
            delta = float(np.random.default_rng(int(config["seeds"]["delta"])).uniform(
                0.0, TWO_PI))
        delta = 0.0 if delta is None else float(delta)
        config["bob_phase"] = schema.build("delta", normalize_phase, config["alice_phase"] - delta,
                                           observed=config["delta"])  # fails on overflow
        config["delta"] = delta
    elif delta is not None:
        # both are given in an echoed config, and must agree; a drawn delta cannot
        implied = math.nan if delta == "random" else config["alice_phase"] - delta
        if not (math.isfinite(implied) and abs(
                normalize_phase(implied) - normalize_phase(config["bob_phase"])) <= 1e-9):
            schema.error("delta", "a number that agrees with bob_phase, when both are given",
                         {"delta": delta, "bob_phase": config["bob_phase"]})

    if to_cfg:
        config["species"] = [{"name": "tone1", "omega": to_cfg.omega1},
                             {"name": "tone2", "omega": to_cfg.omega2}]
    species = []
    for i, sp in enumerate(config["species"]):
        fields = "time_origin" if to_cfg else {"name": f"species[{i}].name",
                                                "omega": f"species[{i}].omega"}
        species.append(schema.build(fields, ClockSpecies, sp.get("name"), float(sp["omega"]),
                                    observed=sp))
    if not schema.ok:
        return None
    alice = PartyConfig("A", config["alice_phase"], config["alice_clock_offset"])
    bob = PartyConfig("B", config["bob_phase"], config["bob_clock_offset"])
    if config["send_time"] is None:
        config["send_time"] = config["collapse_time"]
    schedules = schema.build(
        {"send_time": "send_time", "collapse_time": "collapse_time"}, ProtocolSchedules,
        alice_sched, bob_sched, float(config["collapse_time"]), float(config["send_time"]),
        observed={"collapse_time": config["collapse_time"], "send_time": config["send_time"]})
    if len(species) == 2:
        schema.build("time_origin" if to_cfg else "species", check_distinct_species,
                     *species, observed=[sp.omega for sp in species])
    for name, sched, party in (("schedule", alice_sched, alice), (bob_field, bob_sched, bob)):
        # the local times that the party's fits get, as the run computes them
        local = [party.to_local(party.to_global(t)) for t in sched.times]
        fields = {"n_points": f"{name}.n_points", None: name}
        schema.build(fields, check_phase_grid, local, observed=config[name])
        if len(species) == 2:
            schema.build(fields, check_envelope_grid, local, species[0].omega,
                         species[1].omega, observed=config[name])
    t_max = math.pi / to_cfg.delta_omega if to_cfg else 0.0
    if not schema.diags and bob_sched.times[-1] < t_max:
        schema.error("schedule.stop", "should bracket the first envelope maximum pi/delta_omega",
                     {"stop": bob_sched.times[-1], "t_max": t_max}, "warning")
    if config["bob_schedule"] is None:
        config["bob_schedule"] = dict(config["schedule"])
    return Scenario(config, species, alice, bob, schedules, channel, to_cfg)


def _parse_baseline(schema: _Schema, config: dict) -> Scenario | None:
    """A baseline sweep: the medium grid and each grid point's QCS cell."""
    base = schema.mapping("baseline", config["baseline"] or {}, _BASELINE)
    if base is None:
        return None
    grids = {}
    for key in ("sigma_grid", "distance_grid"):
        grid = base.get(key)
        if not grid or not isinstance(grid, (list, tuple)):
            schema.error(f"baseline.{key}", "a non-empty list", grid)
        else:
            grids[key] = [schema.number(f"baseline.{key}", v, strings=True) for v in grid]
    mean_index = schema.number("baseline.mean_index", base.get("mean_index", 1.0),
                               strings=True)
    n_trials = schema.count("baseline.n_trials", base.get("n_trials"), 1)
    n_qcs_seeds = schema.count("baseline.n_qcs_seeds", base.get("n_qcs_seeds", 20), 1)
    if not schema.ok:
        return None
    media = [schema.build({"distance": "baseline.distance_grid",
                           "mean_index": "baseline.mean_index",
                           "index_fluctuation_sigma": "baseline.sigma_grid"},
                          MediumModel, distance, mean_index, sigma,
                          observed={"distance": distance, "mean_index": mean_index,
                                    "sigma": sigma})
             for sigma in grids["sigma_grid"] for distance in grids["distance_grid"]]
    cell = _parse_qcs_cell(schema, base.get("qcs_scenario") or _DEFAULT_QCS_CELL)
    if not schema.ok:
        return None
    grid = [(medium, schema.build(
        "baseline.distance_grid", _qcs_cell, cell, medium,
        observed={"distance": medium.distance, "sigma": medium.index_fluctuation_sigma},
        rule="Bob's QCS schedule shifted by distance * (mean_index + 10 * sigma) / c "
             "must stay finite and strictly increasing")) for medium in media]
    return Scenario(config, grid=grid, n_trials=n_trials, n_qcs_seeds=n_qcs_seeds)


def _parse_qcs_cell(schema: _Schema, raw) -> Scenario | None:
    """A baseline sweep's QCS cell: a single_frequency scenario, reported
    under baseline.qcs_scenario."""
    name = "baseline.qcs_scenario"
    if not isinstance(raw, dict):
        return schema.error(name, "a single_frequency scenario mapping", raw)
    if raw.get("mode") != "single_frequency":
        schema.error(f"{name}.mode", "single_frequency", raw.get("mode"))
    for key in ("channel", "bob_schedule"):  # _qcs_cell replaces both, per medium
        if raw.get(key) is not None:
            schema.error(f"{name}.{key}", "left out: each grid cell derives it from the medium",
                         raw[key])
    seeds = raw.get("seeds")
    for key in ("quantum", "channel"):  # _qcs_rms derives both from the sweep's seeds
        if isinstance(seeds, dict) and seeds.get(key) is not None:
            schema.error(f"{name}.seeds.{key}", "left out: each grid cell derives it from "
                         "the sweep's seeds", seeds[key])
    if not schema.ok:
        return None
    scenario, diags = parse_config(raw, f"{name}.")
    schema.diags.extend(diags)
    return scenario


def _header(config: dict) -> str:
    s = config["seeds"]
    return (f"qclocksync {__version__} seeds: quantum={s['quantum']} "
            f"channel={s['channel']} delta={s['delta']}")


def run_scenario(config: dict, output_dir: str | None = None) -> tuple[int, dict]:
    """Parse, execute, and write artifacts.

    Returns (exit_code, result_record). Exit codes: 0 success, 1 invalid
    config, 2 runtime error, 3 inconclusive/no-sync protocol outcome.
    """
    scenario, diags = parse_config(config)
    if scenario is None:
        return EXIT_INVALID_CONFIG, {"diagnostics": [d.to_dict() for d in diags]}

    resolved = scenario.config
    out_dir = output_dir or resolved["output_dir"]
    if out_dir is None:
        return EXIT_INVALID_CONFIG, {"diagnostics": [
            Diagnostic("output_dir", "required (config field or CLI flag)", None).to_dict()
        ]}
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "config_echo.yaml"), "w") as fh:
        fh.write(f"# {_header(resolved)}\n")
        yaml.safe_dump(resolved, fh, sort_keys=True)

    try:
        run = _run_baseline_sweep if resolved["mode"] == "baseline_sweep" else _run_quantum_mode
        record, status = run(scenario, out_dir)
    except Exception as exc:  # hard failure: distinct exit code from inconclusive
        record = {"error": f"{type(exc).__name__}: {exc}"}
        _write_result(out_dir, resolved, record)
        return EXIT_RUNTIME_ERROR, record

    _write_result(out_dir, resolved, record)
    if status != "ok":
        return EXIT_INCONCLUSIVE, record
    return EXIT_OK, record


def _write_result(out_dir: str, config: dict, record: dict) -> None:
    payload = {"version": __version__, "seeds": config["seeds"], "result": record}
    with open(os.path.join(out_dir, "result.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_series(out_dir: str, config: dict, result: SyncResult) -> None:
    header = _header(config)
    for name, out in sorted(result.species_outcomes.items()):
        for party, series in (("alice", out.alice_series), ("bob", out.bob_series)):
            if series is not None:
                series.to_csv(os.path.join(out_dir, f"series_{party}_{name}.csv"),
                              header_comment=header)


def _run_protocol(scenario: Scenario, qrng: np.random.Generator, crng: np.random.Generator,
                  transcript: Transcript | None = None) -> SyncResult:
    """One run of a quantum-protocol scenario, scored against its hidden truth."""
    config, species, alice, bob = scenario.config, scenario.species, scenario.alice, scenario.bob
    ens = tuple(Ensemble(config["n_pairs"], sp, config["eta"]) for sp in species)
    args = (alice, bob, scenario.channel, scenario.schedules, qrng, crng, transcript)
    if config["mode"] == "single_frequency":
        result = run_single_frequency(ens[0], *args)
        score_single_frequency(result, alice, bob, species[0], config["eta"])
    elif config["mode"] == "two_frequency":
        result = run_two_frequency(ens, *args)
        score_envelope(result, alice, bob, species[0].omega, species[1].omega)
    else:  # time_origin
        result = establish_time_origin(scenario.time_origin, ens, *args)
        score_time_origin(result, alice, bob)
    return result


def _run_quantum_mode(scenario: Scenario, out_dir: str) -> tuple[dict, str]:
    config = scenario.config
    transcript = Transcript()
    result = _run_protocol(scenario, np.random.default_rng(int(config["seeds"]["quantum"])),
                           np.random.default_rng(int(config["seeds"]["channel"])), transcript)

    with open(os.path.join(out_dir, "events.jsonl"), "w") as fh:
        meta = {"kind": "meta", "version": __version__, "seeds": config["seeds"]}
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        fh.write(transcript.to_jsonl())
    _write_series(out_dir, config, result)
    return result.to_dict(), result.status


def _run_baseline_sweep(scenario: Scenario, out_dir: str) -> tuple[dict, str]:
    """Grid sweep comparing Einstein-synchronization RMS error against the
    entanglement protocol's, with the classical channel driven by the same
    medium (delay = distance * n / c, jitter = distance * sigma / c)."""
    config, n_trials = scenario.config, scenario.n_trials
    rows = []
    crng = np.random.default_rng(int(config["seeds"]["channel"]))
    for medium, cell in scenario.grid:
        rms_es = es_rms_error(medium, n_trials, crng)
        rms_qcs = _qcs_rms(cell, scenario.n_qcs_seeds, int(config["seeds"]["quantum"]),
                           int(config["seeds"]["channel"]))
        rows.append((medium.index_fluctuation_sigma, medium.distance, rms_es, rms_qcs,
                     n_trials))

    path = os.path.join(out_dir, "baseline.csv")
    with open(path, "w") as fh:
        fh.write(f"# {_header(config)}\n")
        fh.write("sigma,distance,rms_error_es,rms_error_qcs,n_trials\n")
        for sigma, distance, rms_es, rms_qcs, n in rows:
            fh.write(f"{sigma!r},{distance!r},{rms_es!r},{rms_qcs!r},{n}\n")
    return {"n_cells": len(rows),
            "cells": [{"sigma": r[0], "distance": r[1], "rms_error_es": r[2],
                       "rms_error_qcs": r[3], "n_trials": r[4]} for r in rows]}, "ok"


def _qcs_cell(cell: Scenario, medium: MediumModel) -> Scenario:
    """The QCS cell for one medium: the label channel inherits the medium's
    delay and jitter, and Bob's measurements start after worst-case delivery
    so the schedule is reachable for every cell in the sweep."""
    base_delay = medium.distance * medium.mean_index / SPEED_OF_LIGHT
    jitter = medium.distance * medium.index_fluctuation_sigma / SPEED_OF_LIGHT
    margin = base_delay + 10.0 * jitter
    sched = cell.config["schedule"]
    with np.errstate(all="ignore"):  # an infinite margin gives NaN times, rejected below
        bob = _schedule_from({**sched, "start": sched["start"] + margin,
                              "stop": sched["stop"] + margin})
    s = cell.schedules
    return dataclasses.replace(
        cell, channel=ChannelModel(base_delay, jitter, 0.0),
        schedules=ProtocolSchedules(s.alice, bob, s.collapse_time, s.send_time))


def _qcs_rms(cell: Scenario, n_seeds: int, quantum_seed: int, channel_seed: int) -> float:
    """RMS entanglement-protocol sync error of one QCS cell across quantum seeds."""
    errs = []
    for child in np.random.SeedSequence(quantum_seed).spawn(n_seeds):
        crng = np.random.default_rng(np.random.SeedSequence(channel_seed).spawn(1)[0])
        result = _run_protocol(cell, np.random.default_rng(child), crng)
        if result.sync_error is not None:
            errs.append(result.sync_error)
    if not errs:
        return math.nan
    return float(np.sqrt(np.mean(np.square(errs))))
