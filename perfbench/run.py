"""Benchmark of qclocksync: one workload per invocation, closed loop.

    python3 perfbench/run.py --workload sync_1m --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. One process runs the workload's round of scenarios through
``qclocksync.cli.main(["run", ...])``, one scenario after another with one
BLAS thread, repeating whole rounds until ``--seconds`` have passed. Every
scenario's output is checked against values computed apart from the
program. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` rounds alternate between
untraced and traced, and the metrics are the per-layer ones (per traced
scenario) plus the tracing overhead. See README.md.
"""

from __future__ import annotations

import os
import sys
import time

T_IMPORT = time.perf_counter()
# One BLAS thread; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from spans import SPAN_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, check, make_scenarios  # noqa: E402

MAX_REPORTED_FAILURES = 5


def process_age() -> float:
    """Seconds since this process started, from the kernel's start time;
    falls back to the time since this module was first executed."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        age = -1.0
    since_import = time.perf_counter() - T_IMPORT
    return age if since_import <= age < since_import + 60.0 else since_import


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed; every scenario input is drawn from it")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for this long, in whole rounds of scenarios")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true",
                   help="small scenarios that finish in seconds (for the self-tests)")
    return p.parse_args(argv)


def _load_program():
    if not os.path.isfile(os.path.join(SRC, "qclocksync", "cli.py")):
        raise SystemExit(f"error: no qclocksync sources under {SRC}; run from a checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from qclocksync import cli, config, estimation, protocol
    return {"cli": cli, "config": config, "protocol": protocol, "estimation": estimation}


def lower_decile(times: list[float]) -> float:
    """10th percentile of per-scenario wall times.

    On a shared host, stretches of slow execution lasting seconds move a
    run's median by 15-20 % between 30-second runs; the fast end of the
    distribution moves by well under half of that (see README.md).
    """
    if len(times) == 1:
        return times[0]
    return statistics.quantiles(times, n=10, method="inclusive")[0]


def fastest_tenth_rate(samples: list[tuple[float, int]]) -> float:
    """Pairs per second over the fastest tenth of the scenarios (at least one)."""
    fastest = sorted(samples)[:max(1, len(samples) // 10)]
    return sum(p for _, p in fastest) / sum(t for t, _ in fastest)


def _run_one(main, path: str, out_dir: str, tracer: Tracer | None):
    argv = ["run", path, "-o", out_dir]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
    elapsed = time.perf_counter() - start
    lines = buf.getvalue().splitlines()
    try:
        record = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        record = {}
    return elapsed, code, record


def _events_samples(out_dir: str) -> tuple[int, int]:
    """(sample records, pairs they consumed) in a run's events.jsonl."""
    n = pairs = 0
    with open(os.path.join(out_dir, "events.jsonl")) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "sample":
                n += 1
                pairs += rec["batch_size"]
    return n, pairs


def _artifact_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def _expected_samples(workload: str, sc, out_dir: str) -> tuple[int, int]:
    """(sample_batch calls, pairs) the program's own outputs imply."""
    if workload != "baseline_sweep":
        return _events_samples(out_dir)
    t = sc.truth
    base = sc.config["baseline"]
    calls = (len(base["sigma_grid"]) * len(base["distance_grid"])
             * t["n_qcs_seeds"] * 2 * t["qcs_points"])
    return calls, calls * t["qcs_batch"]


def run(argv=None, work_dir: str | None = None) -> dict:
    """Run one workload; returns the result object printed as the last line."""
    args = parse_args(argv)
    modules = _load_program()
    main = modules["cli"].main
    import yaml

    work = work_dir or os.path.join(HERE, "out", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    scenarios = make_scenarios(args.workload, args.seed, args.short)
    paths, outs = [], []
    for sc in scenarios:
        paths.append(os.path.join(work, f"{sc.name}.yaml"))
        outs.append(os.path.join(work, sc.name))
        with open(paths[-1], "w") as fh:
            yaml.safe_dump(sc.config, fh, sort_keys=True)
    setup_s = process_age()

    tracer = Tracer() if args.trace else None
    # (wall time, pairs created) per scenario, keyed by traced
    samples: dict[bool, list[tuple[float, int]]] = {False: [], True: []}
    attempted = 0
    failures: dict[int, list[str]] = {}
    seen: dict = {}
    traced_ids: list[int] = []
    expected: dict[int, tuple[int, int]] = {}
    artifact_bytes: dict[int, int] = {}
    start = time.perf_counter()
    rounds = 0
    min_rounds = 2 if tracer else 1  # a traced run needs one round of each kind
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install(modules)
        try:
            for sc, path, out in zip(scenarios, paths, outs):
                k = attempted
                attempted += 1
                if traced:
                    tracer.scenario = k
                elapsed, code, record = _run_one(main, path, out, tracer if traced else None)
                samples[traced].append((elapsed, sc.pairs))
                try:
                    fails = check(args.workload, sc, code, record, seen)
                except (KeyError, TypeError, ValueError) as exc:
                    fails = [f"malformed result: {type(exc).__name__}: {exc}"]
                if traced:
                    try:
                        expected[k] = _expected_samples(args.workload, sc, out)
                        artifact_bytes[k] = _artifact_bytes(out)
                        traced_ids.append(k)
                    except (KeyError, ValueError, OSError) as exc:
                        fails.append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
                if fails:
                    failures[k] = fails
        finally:
            if traced:
                tracer.uninstall()
        rounds += 1
    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "scenario_s": (lower_decile([t for t, _ in samples[False]]), "s"),
            "pairs_per_s": (fastest_tenth_rate(samples[False]), "pairs/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = _layer_metrics(args.workload, tracer, traced_ids, expected,
                                 artifact_bytes, samples, failures)
        tracer.write(os.path.join(work, "trace.json"),
                     {k: v[0] for k, v in metrics.items()})

    for k in sorted(failures)[:MAX_REPORTED_FAILURES]:
        sc = scenarios[k % len(scenarios)]
        print(f"FAILED scenario {k} ({sc.name}): {'; '.join(failures[k])}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _layer_metrics(workload, tracer, traced_ids, expected, artifact_bytes,
                   samples, failures) -> dict:
    """Per-layer metrics per traced scenario; checks the wrapper counts against
    the program's outputs and records mismatches as failures."""
    n = len(traced_ids) or 1
    stats = tracer.layer_stats(traced_ids)
    calls = tracer.calls_by_scenario("ensemble.sample_batch")
    envelope = tracer.calls_by_scenario("estimation.envelope_phase")
    for k in traced_ids:
        got = (calls[k], tracer.counters[k]["sample_batch.pairs"])
        fails = []
        if got != expected[k]:
            fails.append(f"sample_batch (calls, pairs) {got} != program outputs {expected[k]}")
        if workload == "time_origin_dense" and envelope[k] != 4:
            fails.append(f"{envelope[k]} envelope_phase calls, expected 4")
        if fails:
            failures.setdefault(k, []).extend(fails)

    metrics = {}
    for name, (span, stat) in SPAN_METRICS.items():
        st = stats.get(span, {"total": 0.0, "self": 0.0, "calls": 0})
        metrics[name] = (st[stat] / n, "count" if stat == "calls" else "s")
    metrics["protocol.label_message_bytes"] = (
        sum(tracer.counters[k]["label_message_bytes"] for k in traced_ids) / n, "bytes")
    metrics["config.artifact_bytes"] = (sum(artifact_bytes.values()) / n, "bytes")
    metrics["trace.overhead_s"] = (
        lower_decile([t for t, _ in samples[True]])
        - lower_decile([t for t, _ in samples[False]]), "s")
    return metrics


if __name__ == "__main__":
    print(json.dumps(run(sys.argv[1:])))
