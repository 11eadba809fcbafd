"""Scenario generation and output checks for the three benchmark workloads.

Every input is drawn from the workload seed with Python's own ``random``
module, so the program under test receives only generated scenario files.
Every check recomputes what the result should be from the generated inputs
and the protocol's closed forms; it never calls into ``qclocksync``.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299792458.0  # m/s, as in the SI definition

WORKLOADS = ("sync_1m", "time_origin_dense", "baseline_sweep")


@dataclass
class Scenario:
    """One scenario file and the hidden truth its outputs are checked against."""

    name: str
    config: dict
    pairs: int  # entangled pairs the scenario creates
    truth: dict = field(default_factory=dict)
    twin: str | None = None  # scenarios sharing a twin key share a quantum seed


def make_scenarios(workload: str, seed: int, short: bool = False) -> list[Scenario]:
    """The round of scenarios a run repeats, drawn from ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sync_1m":
        return _sync_1m(rng, short)
    if workload == "time_origin_dense":
        return _time_origin_dense(rng, short)
    if workload == "baseline_sweep":
        return _baseline_sweep(rng, short)
    raise ValueError(f"unknown workload {workload!r}")


def _seeds(rng: random.Random) -> dict:
    return {k: rng.randrange(1, 2**31) for k in ("quantum", "channel", "delta")}


def _sync_1m(rng: random.Random, short: bool) -> list[Scenario]:
    # Two quantum seeds, each run under a fast and a slow label channel: the
    # paired scenarios must give bit-identical phases.
    n_pairs = 100_000 if short else 1_000_000
    n_points = 20
    batch = n_pairs // 50  # 40 % of the pairs per party, inside the 5-sigma budget
    channels = [
        {"base_delay": rng.uniform(0.01, 0.1), "jitter_sigma": rng.uniform(0.001, 0.01),
         "loss_probability": 0.0},
        {"base_delay": rng.uniform(0.2, 0.4), "jitter_sigma": rng.uniform(0.02, 0.05),
         "loss_probability": 0.0},
    ]
    out = []
    for q in range(2):
        omega = rng.uniform(1.5, 3.0)
        delta = rng.uniform(0.0, 2.0 * math.pi)
        seeds = _seeds(rng)
        for c, channel in enumerate(channels):
            cfg = {
                "mode": "single_frequency",
                "n_pairs": n_pairs,
                "species": [{"name": "cs", "omega": omega}],
                "delta": delta,
                # Bob's first sample sits 10 jitter sigmas past the slow delivery
                "schedule": {"start": 1.0, "stop": 6.0, "n_points": n_points,
                             "batch_size": batch},
                "channel": channel,
                "seeds": {**seeds, "channel": seeds["channel"] + c},
            }
            out.append(Scenario(f"q{q}_ch{c}", cfg, n_pairs,
                                {"omega": omega, "delta": delta, "n_pairs": n_pairs,
                                 "n_points": n_points, "batch_size": batch},
                                twin=f"q{q}"))
    return out


def _time_origin_dense(rng: random.Random, short: bool) -> list[Scenario]:
    n_points = 100 if short else 400
    batch = 50
    # per party and species n_points * batch pairs, plus the 5-sigma margin
    n_pairs = 2 * n_points * batch + 2000
    out = []
    for i in range(8):
        omega1 = rng.uniform(1.5, 2.5)
        d_omega = rng.uniform(0.15, 0.25)
        t_max = math.pi / d_omega
        stop = 1.5 * t_max
        off_b = rng.uniform(-1.0, 1.0)
        cfg = {
            "mode": "time_origin",
            "n_pairs": n_pairs,
            "time_origin": {"omega1": omega1, "delta_omega": d_omega,
                            "duration_T": 1.2 / d_omega},
            "delta": "random",
            "bob_clock_offset": off_b,
            "schedule": {"start": 0.2, "stop": stop, "n_points": n_points,
                         "batch_size": batch},
            # Bob's grid in his own clock: the same global instants, after delivery
            "bob_schedule": {"start": 0.5 + off_b, "stop": stop + off_b,
                             "n_points": n_points, "batch_size": batch},
            "channel": {"base_delay": rng.uniform(0.01, 0.1),
                        "jitter_sigma": rng.uniform(0.001, 0.01), "loss_probability": 0.0},
            "seeds": _seeds(rng),
        }
        out.append(Scenario(f"to{i}", cfg, 2 * n_pairs,
                            {"t_max": t_max, "bob_clock_offset": off_b}))
    return out


def _baseline_sweep(rng: random.Random, short: bool) -> list[Scenario]:
    # about half of a run in the es_rms_error loop, the rest in 80 QCS runs
    n_trials = 2000 if short else 80_000
    n_qcs_seeds = 8 if short else 20
    qcs_pairs = 20_000  # the program's default QCS cell
    out = []
    for i in range(2):
        sigmas = [rng.uniform(1.0, 3.0) * 1e-6, rng.uniform(1.0, 3.0) * 1e-4]
        # up to 10^7 m: a label delay of at most 33 ms keeps Bob's QCS grid,
        # and so rms_error_qcs, nearly the same in every cell
        distances = [10.0 ** rng.uniform(e, e + 0.5) for e in (3.0, 6.5)]
        cfg = {
            "mode": "baseline_sweep",
            "baseline": {"sigma_grid": sigmas, "distance_grid": distances,
                         "n_trials": n_trials, "n_qcs_seeds": n_qcs_seeds},
            "seeds": _seeds(rng),
        }
        cells = len(sigmas) * len(distances)
        out.append(Scenario(f"bs{i}", cfg, cells * n_qcs_seeds * qcs_pairs,
                            {"n_trials": n_trials, "n_qcs_seeds": n_qcs_seeds,
                             "qcs_omega": 1.0, "qcs_points": 10, "qcs_batch": 500}))
    return out


# ---------------------------------------------------------------------------
# Output checks. Each returns a list of failure messages; empty means correct.
# ---------------------------------------------------------------------------

def _wrap(x: float) -> float:
    """x folded into [-pi, pi)."""
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def check(workload: str, sc: Scenario, code: int, record: dict, seen: dict) -> list[str]:
    """Failures of one scenario's exit code and result record.

    ``seen`` maps keys to earlier records of this run; it carries the
    twin and repeat comparisons across scenarios.
    """
    if code != 0:
        return [f"exit code {code}"]
    if workload == "baseline_sweep":
        fails = check_baseline_sweep(sc, record)
    else:
        if record.get("status") != "ok":
            return [f"status {record.get('status')!r} ({record.get('reason')})"]
        if workload == "sync_1m":
            fails = check_sync(sc, record)
        else:
            fails = check_time_origin(sc, record)
    text = json.dumps(record, sort_keys=True)
    first = seen.setdefault(("repeat", sc.name), text)
    if first != text:
        fails.append("rerun of the same scenario gave a different result")
    if sc.twin is not None:
        sp = record["species"]["cs"]
        phases = [sp["alice_phase"], sp["bob_phase"], sp["n_type_i"]]
        ref = seen.setdefault(("twin", sc.twin), phases)
        if ref != phases:
            fails.append("phases differ between channel models on one quantum seed")
    return fails


def check_sync(sc: Scenario, record: dict) -> list[str]:
    t = sc.truth
    n = t["n_pairs"]
    fails = []
    sp = record["species"]["cs"]
    if sp["n_type_i"] + sp["n_type_ii"] != n:
        fails.append("n_type_i + n_type_ii != N")
    if abs(sp["n_type_i"] - n / 2.0) > 2.5 * math.sqrt(n):
        fails.append(f"n_type_i {sp['n_type_i']} too far from N/2")
    # Fisher information of the cosine law is one per measured pair
    fisher = 1.0 / math.sqrt(t["n_points"] * t["batch_size"])
    a, b = sp["alice_phase"], sp["bob_phase"]
    for who, est in (("alice", a), ("bob", b)):
        if not 0.5 * fisher <= est["sigma"] <= 2.0 * fisher:
            fails.append(f"{who} sigma {est['sigma']:.3g} off the Fisher scale {fisher:.3g}")
    # Alice's clock reads cos(w t) from her collapse; Bob's Type-II half reads
    # cos(w t + delta) in his own clock (offset 0 here).
    if abs(_wrap(a["phase"])) > 5.0 * a["sigma"]:
        fails.append(f"alice phase {a['phase']:.4g} is not 0 within 5 sigma")
    if abs(_wrap(b["phase"] - t["delta"])) > 5.0 * b["sigma"]:
        fails.append(f"bob phase {b['phase']:.4g} is not delta within 5 sigma")
    err = _wrap(b["phase"] - a["phase"] - t["delta"]) / t["omega"]
    bound = 5.0 * math.hypot(a["sigma"], b["sigma"]) / t["omega"]
    if abs(err) > bound:
        fails.append(f"sync error {err:.3g} s beyond 5 sigma {bound:.3g} s")
    se = record.get("sync_error")
    if se is None or abs(se - err) > 1e-9:
        fails.append(f"reported sync_error {se} != recomputed {err}")
    return fails


def check_time_origin(sc: Scenario, record: dict) -> list[str]:
    t = sc.truth
    fails = []
    ta, sa = record["t_origin_a"], record["t_origin_sigma_a"]
    tb, sb = record["t_origin_b"], record["t_origin_sigma_b"]
    if not (sa > 0 and sb > 0):
        fails.append(f"non-positive origin sigma ({sa}, {sb})")
    if abs(ta - t["t_max"]) > 5.0 * sa:
        fails.append(f"t_origin_a {ta:.5g} is not pi/d_omega {t['t_max']:.5g} within 5 sigma")
    want_b = t["t_max"] + t["bob_clock_offset"]
    if abs(tb - want_b) > 5.0 * sb:
        fails.append(f"t_origin_b {tb:.5g} is not {want_b:.5g} within 5 sigma")
    err = (tb - ta) - t["bob_clock_offset"]
    if abs(err) > 5.0 * math.hypot(sa, sb):
        fails.append(f"sync error {err:.3g} s beyond 5 sigma")
    se = record.get("sync_error")
    if se is None or abs(se - err) > 1e-9:
        fails.append(f"reported sync_error {se} != recomputed {err}")
    return fails


# RMS of the midpoint-rule error for a vacuum-floored Gaussian index of mean 1:
# the error is d (X1 - X2) / 2c with X = sigma * max(0, Z), so
# E[(X1 - X2)^2] = sigma^2 (1 - 1/pi); the relative standard error of an RMS
# over n trials is sqrt(E[Y^4] / E[Y^2]^2 - 1) / (2 sqrt(n)) with
# E[Y^4] = sigma^4 (9/2 - 8/pi).
_ES_SHAPE = math.sqrt(1.0 - 1.0 / math.pi)
_ES_REL_SE = 0.5 * math.sqrt((4.5 - 8.0 / math.pi) / (1.0 - 1.0 / math.pi) ** 2 - 1.0)
QCS_SPREAD_FACTOR = 1.5  # largest max/min ratio of rms_error_qcs across distances


def check_baseline_sweep(sc: Scenario, record: dict) -> list[str]:
    t = sc.truth
    base = sc.config["baseline"]
    fails = []
    cells = record.get("cells", [])
    if len(cells) != len(base["sigma_grid"]) * len(base["distance_grid"]):
        return [f"{len(cells)} cells for a {len(base['sigma_grid'])} x "
                f"{len(base['distance_grid'])} grid"]
    tol = 5.0 * _ES_REL_SE / math.sqrt(t["n_trials"])
    # one QCS run has sync error sd sqrt(2) / (w sqrt(n_points * batch))
    qcs_scale = math.sqrt(2.0 / (t["qcs_points"] * t["qcs_batch"])) / t["qcs_omega"]
    for sigma in base["sigma_grid"]:
        row = [c for c in cells if c["sigma"] == sigma]
        if [c["distance"] for c in row] != base["distance_grid"]:
            fails.append(f"sigma {sigma}: cells do not follow the distance grid")
            continue
        for c in row:
            want = c["distance"] * sigma * _ES_SHAPE / (2.0 * SPEED_OF_LIGHT)
            if abs(c["rms_error_es"] / want - 1.0) > tol:
                fails.append(f"cell ({sigma}, {c['distance']}): rms_error_es "
                             f"{c['rms_error_es']:.4g} vs closed form {want:.4g}")
        es = [c["rms_error_es"] for c in row]
        if any(b <= a for a, b in zip(es, es[1:])):
            fails.append(f"sigma {sigma}: rms_error_es does not grow with distance")
        qcs = [c["rms_error_qcs"] for c in row]
        if not all(math.isfinite(q) and q > 0 for q in qcs):
            fails.append(f"sigma {sigma}: rms_error_qcs not finite and positive: {qcs}")
            continue
        if max(qcs) / min(qcs) > QCS_SPREAD_FACTOR:
            fails.append(f"sigma {sigma}: rms_error_qcs varies with distance: {qcs}")
        # chi with n_qcs_seeds degrees of freedom: a factor of 3 is far outside
        if not all(qcs_scale / 3.0 <= q <= 3.0 * qcs_scale for q in qcs):
            fails.append(f"sigma {sigma}: rms_error_qcs {qcs} off the scale {qcs_scale:.3g}")
    return fails
