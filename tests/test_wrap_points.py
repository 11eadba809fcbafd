"""The benchmark's tracer wraps module functions by name (perfbench/spans.py
WRAP_POINTS). A rename or deletion in the package would make a traced
benchmark run fail; this test catches it in the tier-1 suite."""

import importlib
import importlib.util
import json
import os

import yaml

from qclocksync import cli, estimation, protocol

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.WRAP_POINTS


def test_every_wrap_point_resolves():
    points = _wrap_points()
    assert points
    for module, attr, _span in points:
        fn = getattr(importlib.import_module(f"qclocksync.{module}"), attr, None)
        assert callable(fn), f"qclocksync.{module}.{attr} is gone"


# a small time-origin scenario: 2 species x 2 parties x 60 batches of 50
TIME_ORIGIN_RUN = {
    "mode": "time_origin",
    "n_pairs": 8000,
    "delta": "random",
    "bob_clock_offset": 0.3,
    "schedule": {"start": 0.2, "stop": 21.0, "n_points": 60, "batch_size": 50},
    "bob_schedule": {"start": 1.0, "stop": 21.8, "n_points": 60, "batch_size": 50},
    "channel": {"base_delay": 0.01, "jitter_sigma": 0.005},
    "time_origin": {"omega1": 2.2, "delta_omega": 0.2, "duration_T": 5.0},
    "seeds": {"quantum": 8, "channel": 9, "delta": 10},
}


def test_traced_counts_match_the_transcript(tmp_path, monkeypatch, capsys):
    # The traced benchmark counts one sample_batch call per sample record of
    # events.jsonl, the pairs those records name, and 4 envelope fits per
    # time-origin run; a refactor that breaks its check fails here too.
    counts = {"sample_batch": 0, "pairs": 0, "envelope_phase": 0}
    sample_batch, envelope_phase = protocol.sample_batch, estimation.envelope_phase

    def traced_sample_batch(*args, **kwargs):
        counts["sample_batch"] += 1  # a span is counted even if the call raises
        out = sample_batch(*args, **kwargs)
        counts["pairs"] += out[1]
        return out

    def traced_envelope_phase(*args, **kwargs):
        counts["envelope_phase"] += 1
        return envelope_phase(*args, **kwargs)

    monkeypatch.setattr(protocol, "sample_batch", traced_sample_batch)
    monkeypatch.setattr(estimation, "envelope_phase", traced_envelope_phase)
    path, out = tmp_path / "to.yaml", tmp_path / "out"
    path.write_text(yaml.safe_dump(TIME_ORIGIN_RUN))
    assert cli.main(["run", str(path), "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "ok"
    with open(out / "events.jsonl") as fh:
        samples = [rec for rec in map(json.loads, fh) if rec["kind"] == "sample"]
    assert len(samples) == 240
    assert counts == {"sample_batch": len(samples),
                      "pairs": sum(rec["batch_size"] for rec in samples),
                      "envelope_phase": 4}


# a small baseline sweep: 2 cells x 3 runs of the default QCS cell, whose
# 2 parties each take 10 batches of 500 pairs
SWEEP_RUN = {
    "mode": "baseline_sweep",
    "baseline": {"sigma_grid": [1e-6], "distance_grid": [1e3, 1e6], "n_trials": 10,
                 "n_qcs_seeds": 3},
    "seeds": {"quantum": 8, "channel": 9},
}


def test_traced_sweep_counts_match_the_benchmarks(tmp_path, monkeypatch, capsys):
    # A sweep writes no transcript: the traced benchmark expects cells x
    # n_qcs_seeds x 2 parties x n_points sample_batch calls, each of
    # batch_size pairs (perfbench/run.py, _expected_samples).
    counts = {"sample_batch": 0, "pairs": 0}
    sample_batch = protocol.sample_batch

    def traced_sample_batch(*args, **kwargs):
        counts["sample_batch"] += 1
        out = sample_batch(*args, **kwargs)
        counts["pairs"] += out[1]
        return out

    monkeypatch.setattr(protocol, "sample_batch", traced_sample_batch)
    path, out = tmp_path / "bs.yaml", tmp_path / "out"
    path.write_text(yaml.safe_dump(SWEEP_RUN))
    assert cli.main(["run", str(path), "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["n_cells"] == 2
    calls = 2 * 3 * 2 * 10
    assert counts == {"sample_batch": calls, "pairs": calls * 500}
