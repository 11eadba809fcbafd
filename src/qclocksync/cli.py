"""Command-line entry point: run, validate, and sweep scenarios.

Exit codes: 0 success, 1 invalid config, 2 runtime error, 3 inconclusive
protocol outcome.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import json
import os
import sys

import numpy as np
import yaml

from .config import (
    EXIT_INVALID_CONFIG,
    EXIT_OK,
    EXIT_RUNTIME_ERROR,
    FIELDS,
    Diagnostic,
    load_config,
    parse_seeds,
    run_scenario,
    validate_config,
)
from .errors import ConfigError


def _load(path: str) -> dict:
    try:
        return load_config(path)
    except (ConfigError, OSError, ValueError, yaml.YAMLError) as exc:
        raise SystemExit(_invalid("config", "loadable YAML mapping", str(exc)))


def _invalid(field: str, constraint: str, observed) -> int:
    """Report one diagnostic, as validate and run report theirs; returns exit code 1."""
    return _report([Diagnostic(field, constraint, observed)])


def _apply_overrides(config: dict, args) -> dict:
    """The seeds given as flags replace the scenario's; a seeds that is not a
    mapping (nor null) is left for validation to report."""
    flags = {"quantum": args.quantum_seed, "channel": args.channel_seed}
    seeds = config.get("seeds")
    if seeds is None or isinstance(seeds, dict):
        given = {k: v for k, v in flags.items() if v is not None}
        config["seeds"] = {**(seeds or {}), **given}
    return config


def cmd_run(args) -> int:
    config = _apply_overrides(_load(args.config), args)
    code, record = run_scenario(config, output_dir=args.output_dir)
    print(json.dumps(record, sort_keys=True))
    return code


def _report(diags: list[Diagnostic]) -> int:
    """Print diagnostics as validate and run print them; returns the exit code."""
    print(json.dumps({"diagnostics": [d.to_dict() for d in diags]}, sort_keys=True))
    return EXIT_INVALID_CONFIG if any(d.severity == "error" for d in diags) else EXIT_OK


def cmd_validate(args) -> int:
    return _report(validate_config(_load(args.config)))


def cmd_sweep(args) -> int:
    """Run one scenario per value of a swept field, with derived independent
    seeds per cell, and merge a summary CSV in cell-index order."""
    config = _apply_overrides(_load(args.config), args)
    if args.param in ("seeds", "seeds.quantum", "seeds.channel"):
        return _invalid("--param", "not seeds, seeds.quantum or seeds.channel, which each "
                        "cell derives from the base seeds", args.param)
    try:
        values = json.loads(args.values)
    except json.JSONDecodeError as exc:
        return _invalid("--values", "a JSON list", str(exc))
    if not isinstance(values, list) or not values:
        return _invalid("--values", "a non-empty JSON list", values)

    out_dir = args.output_dir or config.get("output_dir")
    if not (isinstance(out_dir, str) and out_dir):
        return _invalid("output_dir", "required: a non-empty string (config field or -o)",
                        out_dir)
    seeds, diags = parse_seeds(config.get("seeds"))  # the cells' seeds derive from them
    if diags:
        return _report(diags)

    q_children = np.random.SeedSequence(int(seeds["quantum"])).spawn(len(values))
    c_children = np.random.SeedSequence(int(seeds["channel"])).spawn(len(values))
    cells = []
    for i, value in enumerate(values):
        cell = copy.deepcopy(config)
        cell["seeds"] = {**seeds, "quantum": int(q_children[i].generate_state(1)[0]),
                         "channel": int(c_children[i].generate_state(1)[0])}
        if not _set_dotted(cell, args.param, value):
            return _invalid("--param", "a dotted path to a config field (list items by index)",
                            args.param)
        cells.append(cell)
    os.makedirs(out_dir, exist_ok=True)

    rows = []
    worst = EXIT_OK
    for i, (value, cell) in enumerate(zip(values, cells)):
        cell_dir = os.path.join(out_dir, f"cell_{i:03d}")
        code, record = run_scenario(cell, output_dir=cell_dir)
        worst = max(worst, code)
        rows.append({"cell": i, "param": args.param, "value": value,
                     "exit_code": code,
                     "status": record.get("status"),
                     "sync_error": record.get("sync_error")})

    with open(os.path.join(out_dir, "sweep_summary.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["cell", "param", "value",
                                                "exit_code", "status", "sync_error"])
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps({"cells": rows}, sort_keys=True))
    return worst


def _set_dotted(raw: dict, path: str, value) -> bool:
    """Set the field of a scenario mapping at a dotted path, indexing lists by
    integer; False if the path leads to no field (a new key may be set in a
    nested mapping, where validation judges it)."""
    *parents, last = path.split(".")
    target = raw
    try:
        for key in parents:
            target = target[int(key) if isinstance(target, list) else key]
        if isinstance(target, list):
            target[int(last)] = value
        elif isinstance(target, dict) and (target is not raw or last in FIELDS):
            target[last] = value
        else:
            return False
    except (KeyError, IndexError, TypeError, ValueError):
        return False
    return True


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qclocksync",
        description="Simulate entanglement-based quantum clock synchronization scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="scenario YAML file")
        p.add_argument("--output-dir", "-o", default=None)
        p.add_argument("--quantum-seed", type=int, default=None)
        p.add_argument("--channel-seed", type=int, default=None)

    p_run = sub.add_parser("run", help="run one scenario and write artifacts")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_sweep = sub.add_parser("sweep", help="run a scenario grid over one field")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True,
                         help="dotted config field to sweep, e.g. 'delta'")
    p_sweep.add_argument("--values", required=True, help="JSON list of values")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
