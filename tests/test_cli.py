import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from qclocksync import config as config_module
from qclocksync.cli import main
from qclocksync.config import load_config, parse_config, validate_config

BASE = {
    "mode": "single_frequency",
    "n_pairs": 12_000,
    "species": [{"name": "cs", "omega": 2.0}],
    "delta": 0.7,
    "schedule": {"start": 0.1, "stop": 4.0, "n_points": 12, "batch_size": 400},
    "channel": {},
    "seeds": {"quantum": 5, "channel": 6},
}


TWO_SPECIES = [{"name": "a", "omega": 2.0}, {"name": "b", "omega": 2.2}]
TIME_ORIGIN = {"omega1": 2.0, "delta_omega": 0.2, "duration_T": 1.0}


def _write(tmp_path, overrides=None, name="scenario.yaml"):
    cfg = {**BASE, **(overrides or {})}
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _read_artifacts(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


class TestValidate:
    def test_good_config_passes(self, tmp_path, capsys):
        code = main(["validate", _write(tmp_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["diagnostics"] == []

    def test_bad_omega_reported(self, tmp_path, capsys):
        path = _write(tmp_path, {"species": [{"name": "cs", "omega": -1.0}]})
        code = main(["validate", path])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        fields = [d["field"] for d in report["diagnostics"]]
        assert "species[0].omega" in fields

    def test_budget_overrun_reported(self, tmp_path, capsys):
        path = _write(tmp_path, {"n_pairs": 1000})
        code = main(["validate", path])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert any("5-sigma" in d["constraint"] for d in report["diagnostics"])

    def test_certain_loss_is_warning_only(self, tmp_path, capsys):
        path = _write(tmp_path, {"channel": {"loss_probability": 1.0}})
        code = main(["validate", path])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert [d["severity"] for d in report["diagnostics"]] == ["warning"]

    @pytest.mark.parametrize("value", ["abc", 12.5, True])
    def test_non_integer_n_pairs_reported(self, tmp_path, capsys, value):
        code = main(["validate", _write(tmp_path, {"n_pairs": value})])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["n_pairs"]

    # start/stop must be finite numbers, the counts integers
    @pytest.mark.parametrize("key,value", [("n_points", 12.5), ("batch_size", "many"),
                                           ("start", "a"), ("stop", float("nan")),
                                           ("stop", float("inf"))])
    def test_non_integer_schedule_counts_reported(self, tmp_path, capsys, key, value):
        path = _write(tmp_path, {"schedule": {**BASE["schedule"], key: value}})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == [f"schedule.{key}"]

    # without a bob_schedule Bob samples on Alice's grid: one fault, one report
    @pytest.mark.parametrize("schedule", [None, "0.1..4.0"])
    def test_non_mapping_schedule_reported(self, tmp_path, capsys, schedule):
        assert main(["validate", _write(tmp_path, {"schedule": schedule})]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["schedule"]

    def test_bad_bob_schedule_reported(self, tmp_path, capsys):
        bob = {**BASE["schedule"], "n_points": 2}
        assert main(["validate", _write(tmp_path, {"bob_schedule": bob})]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["bob_schedule.n_points"]

    @pytest.mark.parametrize("channel", [
        {"correlation_time": 1.0},
        {"jitter_sigma": -0.1},
        {"loss_probability": 1.5},
        {"base_delay": float("nan")},
        {"jitter_sigma": float("nan")},
    ], ids=["unknown-key", "negative-jitter", "loss-above-1", "nan-delay", "nan-jitter"])
    def test_bad_channel_reported(self, tmp_path, capsys, channel):
        path = _write(tmp_path, {"channel": channel})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["channel"]
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 1

    # each was a raw exception, exit 2 or exit 3 before it was validated
    @pytest.mark.parametrize("overrides,field", [
        ({"delta": float("inf")}, "delta"),
        ({"delta": float("nan")}, "delta"),
        ({"species": [{"name": "cs", "omega": "2"}]}, "species[0].omega"),
        ({"species": [{"name": "cs", "omega": float("nan")}]}, "species[0].omega"),
        ({"species": "cs"}, "species"),
        ({"species": [2.0]}, "species[0]"),
        ({"species": [{"omega": 2.0}]}, "species[0].name"),
        ({"bob_clock_offset": float("nan")}, "bob_clock_offset"),
        ({"alice_phase": "x"}, "alice_phase"),
        ({"eta": "0.1"}, "eta"),
        ({"seeds": {"quantum": -1}}, "seeds.quantum"),
        ({"seeds": {"channel": "a"}}, "seeds.channel"),
        ({"collapse_time": 1.0}, "collapse_time"),
        ({"collapse_time": 0.05, "send_time": 0.0}, "send_time"),
        ({"mode": "time_origin", "time_origin": {
            "omega1": "2", "delta_omega": 0.2, "duration_T": 1.0}}, "time_origin.omega1"),
        ({"mode": "two_frequency", "species": [{"name": "a", "omega": 2.0},
                                               {"name": "a", "omega": 3.0}]}, "species"),
        # envelope_phase's own rejections: under-resolved spacing, < 5 points
        ({"mode": "two_frequency", "species": TWO_SPECIES, "schedule": {
            "start": 0.0, "stop": 40.0, "n_points": 20, "batch_size": 200}}, "schedule"),
        ({"mode": "two_frequency", "species": TWO_SPECIES, "schedule": {
            **BASE["schedule"], "n_points": 4}}, "schedule.n_points"),
        ({"mode": "time_origin", "time_origin": TIME_ORIGIN, "bob_schedule": {
            **BASE["schedule"], "stop": 40.0}}, "bob_schedule"),
        ({"schedule": {"start": 1e20, "stop": 1.00000000000001e20, "n_points": 1000,
                       "batch_size": 4}}, "schedule"),
        ({"bob_phase": 0.0}, "delta"),  # 0.7 given too: the two disagree
        # more pairs than numpy can index, in a float and in an int
        ({"n_pairs": 1.0e300}, "n_pairs"),
        ({"n_pairs": 2**63}, "n_pairs"),
        # Alice's local times round to one value: her phase fit had no 3 distinct times
        ({"alice_clock_offset": 2.0**70}, "schedule.n_points"),
        # the scenario's own fields: an unknown key, seeds and mode
        ({"n_pair": 5}, "n_pair"),
        ({"seeds": 5}, "seeds"),
        ({"mode": None}, "mode"),
        # unknown keys inside nested mappings
        ({"seeds": {"quantm": 9, "channel": 6}}, "seeds.quantm"),
        ({"schedule": {**BASE["schedule"], "step": 0.1}}, "schedule.step"),
        ({"bob_schedule": {**BASE["schedule"], "offset": 1.0}}, "bob_schedule.offset"),
        ({"species": [{"name": "cs", "omega": 2.0, "eta": 0.1}]}, "species[0].eta"),
        ({"mode": "time_origin", "time_origin": {**TIME_ORIGIN, "T": 1.0}}, "time_origin.T"),
        ({"mode": "baseline_sweep", "baseline": {
            "sigma_grid": [1e-6], "distance_grid": [1e3], "n_trials": 10,
            "n_qcs_seed": 1}}, "baseline.n_qcs_seed"),
        # no directory path: rejected even where -o would override it
        ({"output_dir": 5}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
    ], ids=["inf-delta", "nan-delta", "string-omega", "nan-omega", "string-species",
            "number-species", "nameless-species", "nan-bob-offset", "string-alice-phase",
            "string-eta", "negative-seed", "string-seed", "collapse-after-sample",
            "send-before-collapse", "string-omega1", "same-species-names",
            "unresolved-fast-oscillation", "too-few-envelope-points",
            "unresolved-bob-schedule", "indistinct-schedule-times",
            "delta-disagrees-with-bob-phase", "huge-float-n-pairs", "n-pairs-beyond-intp",
            "offset-collapses-local-times", "unknown-top-level-key", "non-mapping-seeds",
            "null-mode", "unknown-seed",
            "unknown-schedule-key", "unknown-bob-schedule-key", "unknown-species-key",
            "unknown-time-origin-key", "unknown-baseline-key", "number-output-dir",
            "empty-output-dir"])
    def test_malformed_scenario_exits_1(self, tmp_path, capsys, overrides, field):
        path = _write(tmp_path, overrides)
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == [field]
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == [field]
        assert not (tmp_path / "out").exists()

    # spacings within a few ulps of pi/(omega1 + omega2): validate rejects
    # exactly the schedules whose envelope fit would fail (run exit 2)
    def test_envelope_spacing_rule_matches_the_fit(self, tmp_path, capsys):
        limit = math.pi / 4.2
        codes = set()
        for k in range(-6, 7):
            stop = 0.1 + 20 * limit * (1.0 + k * 2.0**-52)
            path = _write(tmp_path, {
                "mode": "two_frequency", "species": TWO_SPECIES, "bob_clock_offset": -0.3,
                "schedule": {"start": 0.1, "stop": stop, "n_points": 21, "batch_size": 50}})
            code = main(["run", path, "-o", str(tmp_path / f"out{k}")])
            codes.add(code)
            out = capsys.readouterr().out
            if code == 1:
                assert [d["field"] for d in json.loads(out)["diagnostics"]] == ["schedule"]
        assert codes == {0, 1}

    def test_integral_float_n_pairs_accepted(self, tmp_path, capsys):
        assert main(["validate", _write(tmp_path, {"n_pairs": 12000.0})]) == 0

    def test_unknown_field_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, {"frobnicate": 1})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["frobnicate"]

    def test_missing_mode_reported(self, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({k: v for k, v in BASE.items() if k != "mode"}))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "-o", str(out)]):
            assert main(argv) == 1
            report = json.loads(capsys.readouterr().out)
            assert [d["field"] for d in report["diagnostics"]] == ["mode"]
        assert not out.exists()

    def test_unparseable_yaml_rejected(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("mode: [unclosed\n")
        assert main(["validate", str(path)]) == 1


class TestRun:
    def test_successful_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", _write(tmp_path), "-o", str(out)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "ok"
        assert abs(record["sync_error"]) < 0.05
        names = sorted(os.listdir(out))
        assert names == ["config_echo.yaml", "events.jsonl", "result.json",
                         "series_alice_cs.csv", "series_bob_cs.csv"]

    def test_rerun_is_byte_identical(self, tmp_path):
        path = _write(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", path, "-o", str(out1)]) == 0
        assert main(["run", path, "-o", str(out2)]) == 0
        assert _read_artifacts(out1) == _read_artifacts(out2)

    def test_seed_override_changes_outcomes(self, tmp_path):
        path = _write(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", path, "-o", str(out1)]) == 0
        assert main(["run", path, "-o", str(out2), "--quantum-seed", "999"]) == 0
        a = _read_artifacts(out1)
        b = _read_artifacts(out2)
        assert a["series_alice_cs.csv"] != b["series_alice_cs.csv"]

    @pytest.mark.parametrize("overrides", [
        {},
        {"mode": "two_frequency", "species": TWO_SPECIES},
        {"mode": "time_origin", "n_pairs": 40_000, "time_origin": TIME_ORIGIN,
         "schedule": {"start": 0.05, "stop": 20.0, "n_points": 60, "batch_size": 300}},
        {"mode": "baseline_sweep", "baseline": {
            "sigma_grid": [1e-6], "distance_grid": [1e3, 1e5], "n_trials": 50,
            "n_qcs_seeds": 2}},
    ], ids=["single_frequency", "two_frequency", "time_origin", "baseline_sweep"])
    def test_config_echo_reloads_and_reproduces(self, tmp_path, overrides):
        path = _write(tmp_path, overrides)
        out1 = tmp_path / "o1"
        assert main(["run", path, "-o", str(out1)]) == 0
        echoed = load_config(out1 / "config_echo.yaml")
        echoed["output_dir"] = None
        out2 = tmp_path / "o2"
        assert main(["run", _write(tmp_path, echoed, "echo.yaml"), "-o", str(out2)]) == 0
        assert _read_artifacts(out1) == _read_artifacts(out2)

    def test_unfittable_phase_is_inconclusive(self, tmp_path, capsys):
        # cos(omega t) is 1 at every sample: the phase fit cannot be made
        path = _write(tmp_path, {"species": [{"name": "cs", "omega": 1.0e-300}]})
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "inconclusive"
        assert record["reason"] == "alice_phase fit failed: design matrix is rank deficient"

    def test_invalid_config_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, {"n_pairs": 0})
        out = tmp_path / "out"
        assert main(["run", path, "-o", str(out)]) == 1
        assert not out.exists()

    # without -o, os.makedirs raised TypeError on these: exit 2
    @pytest.mark.parametrize("value", [5, ""])
    def test_bad_output_dir_exits_1(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.chdir(tmp_path)
        path = _write(tmp_path, {"output_dir": value})
        for argv in (["validate", path], ["run", path],
                     ["sweep", path, "--param", "delta", "--values", "[0.1]"]):
            assert main(argv) == 1
            report = json.loads(capsys.readouterr().out)
            assert [d["field"] for d in report["diagnostics"]] == ["output_dir"]
        assert os.listdir(tmp_path) == ["scenario.yaml"]

    @pytest.mark.parametrize("value", ["abc", 12.5])
    def test_non_integer_n_pairs_exits_1(self, tmp_path, capsys, value):
        out = tmp_path / "out"
        assert main(["run", _write(tmp_path, {"n_pairs": value}), "-o", str(out)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in record["diagnostics"]] == ["n_pairs"]
        assert not out.exists()

    def test_random_delta_with_bob_phase_exits_1(self, tmp_path, capsys):
        path = _write(tmp_path, {"delta": "random", "bob_phase": 0.3})
        out = tmp_path / "out"
        assert main(["run", path, "-o", str(out)]) == 1
        record = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in record["diagnostics"]] == ["delta"]
        assert not out.exists()

    def test_random_delta_echo_reloads(self, tmp_path):
        path = _write(tmp_path, {"delta": "random",
                                 "seeds": {"quantum": 5, "channel": 6, "delta": 77}})
        out1 = tmp_path / "o1"
        assert main(["run", path, "-o", str(out1)]) == 0
        echoed = load_config(out1 / "config_echo.yaml")
        assert isinstance(echoed["delta"], float)
        assert validate_config(echoed) == []
        echoed["output_dir"] = None
        out2 = tmp_path / "o2"
        assert main(["run", _write(tmp_path, echoed, "echo.yaml"), "-o", str(out2)]) == 0
        assert _read_artifacts(out1)["result.json"] == _read_artifacts(out2)["result.json"]

    def test_no_sync_exits_3(self, tmp_path, capsys):
        path = _write(tmp_path, {"channel": {"loss_probability": 1.0}})
        out = tmp_path / "out"
        assert main(["run", path, "-o", str(out)]) == 3
        record = json.loads(capsys.readouterr().out)
        assert record["status"] == "no_sync"
        assert record["sync_error"] is None

    def test_random_delta_resolved_from_seed(self, tmp_path):
        cfg = load_config(_write(tmp_path, {"delta": "random",
                                            "seeds": {"quantum": 5, "channel": 6,
                                                      "delta": 77}}))
        r1 = parse_config(cfg)[0].config
        r2 = parse_config(cfg)[0].config
        assert isinstance(r1["delta"], float)
        assert r1["delta"] == r2["delta"]
        assert r1["bob_phase"] == pytest.approx(
            (r1["alice_phase"] - r1["delta"]) % (2 * 3.141592653589793), abs=1e-9)


class TestTimeOriginMode:
    def test_time_origin_run(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "mode": "time_origin",
            "species": [],
            "n_pairs": 80_000,
            "delta": 0.4,
            "schedule": {"start": 0.05, "stop": 20.0, "n_points": 120,
                         "batch_size": 300},
            "time_origin": {"omega1": 2.0, "delta_omega": 0.2, "duration_T": 7.0},
        })
        out = tmp_path / "out"
        assert main(["run", path, "-o", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["t_origin_a"] == pytest.approx(15.708, abs=0.2)
        assert record["t_origin_b"] == pytest.approx(15.708, abs=0.2)

    def test_window_violation_rejected_at_load(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "mode": "time_origin",
            "species": [],
            "time_origin": {"omega1": 2.0, "delta_omega": 0.2, "duration_T": 8.0},
        })
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert any("pi/2" in d["constraint"] for d in report["diagnostics"])


QCS_CELL = {"mode": "single_frequency", "n_pairs": 20_000,
            "species": [{"name": "cs", "omega": 1.0}],
            "schedule": {"start": 0.0, "stop": 6.0, "n_points": 10, "batch_size": 500}}


class TestBaselineMode:
    def test_small_baseline_sweep(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "mode": "baseline_sweep",
            "baseline": {
                "sigma_grid": [1e-6, 1e-4],
                "distance_grid": [1e3],
                "n_trials": 200,
                "n_qcs_seeds": 2,
            },
        })
        out = tmp_path / "out"
        assert main(["run", path, "-o", str(out)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["n_cells"] == 2
        cells = record["cells"]
        assert cells[0]["rms_error_es"] < cells[1]["rms_error_es"]
        text = (out / "baseline.csv").read_text()
        assert "sigma,distance,rms_error_es,rms_error_qcs,n_trials" in text

    def test_fixed_seed_qcs_errors_are_pinned(self, tmp_path, capsys, monkeypatch):
        # Each party asks for 1000 of 2040 pairs, so a seed whose Type-I count
        # falls short of either party's need ends budget_exhausted and leaves
        # a gap among the cell's fits. The parser rejects any schedule beyond
        # the 5-sigma budget, where exhaustion is a 1-in-3e6 event; widen it.
        monkeypatch.setattr(config_module, "_budget_limit", lambda n_pairs: n_pairs)
        reasons = []
        score = config_module.score_single_frequency

        def spy(result, *args):
            reasons.append(result.reason)
            return score(result, *args)

        monkeypatch.setattr(config_module, "score_single_frequency", spy)
        qcs = {**QCS_CELL, "n_pairs": 2040, "delta": 0.3,
               "schedule": {**QCS_CELL["schedule"], "batch_size": 100}}
        baseline = {"sigma_grid": [1e-6, 1e-4], "distance_grid": [1e3, 1e6],
                    "n_trials": 10, "n_qcs_seeds": 6, "qcs_scenario": qcs}
        path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline,
                                 "seeds": {"quantum": 11, "channel": 12}})
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 0
        cells = json.loads(capsys.readouterr().out)["cells"]
        assert len(reasons) == 24
        assert {None, "budget_exhausted"} == set(reasons)
        assert [repr(c["rms_error_qcs"]) for c in cells] == [
            "0.05992290841421914", "0.05878112498616813",
            "0.05992291032823209", "0.05878303828482835"]

    def test_qcs_seeds_are_the_per_run_seeds(self):
        # derived once per sweep, they seed every cell's runs as a fresh
        # SeedSequence spawn per run would
        quantum, channel = config_module._qcs_seeds({"quantum": 11, "channel": 12}, 6)
        for _cell in range(3):
            for i, seed in enumerate(quantum):
                per_run = np.random.SeedSequence(11).spawn(6)[i]
                assert (np.random.default_rng(seed).bit_generator.state
                        == np.random.default_rng(per_run).bit_generator.state)
                per_run = np.random.SeedSequence(12).spawn(1)[0]
                assert (np.random.default_rng(channel).bit_generator.state
                        == np.random.default_rng(per_run).bit_generator.state)

    @pytest.mark.parametrize("value", ["abc", 12.5])
    def test_non_integer_n_trials_rejected(self, tmp_path, capsys, value):
        path = _write(tmp_path, {
            "mode": "baseline_sweep",
            "baseline": {"sigma_grid": [1e-6], "distance_grid": [1e3],
                         "n_trials": value},
        })
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["baseline.n_trials"]

    @pytest.mark.parametrize("key,value", [
        ("sigma_grid", [1e-6, float("nan")]),
        ("sigma_grid", [float("inf")]),
        ("distance_grid", [float("nan")]),
        ("distance_grid", [1e3, float("inf")]),
        ("mean_index", 0.5),
        ("mean_index", float("nan")),
        ("mean_index", "dense"),
        ("n_qcs_seeds", "a"),
        ("n_qcs_seeds", 0),
    ])
    def test_bad_baseline_field_reported(self, tmp_path, capsys, key, value):
        baseline = {"sigma_grid": [1e-6], "distance_grid": [1e3], "n_trials": 10,
                    "n_qcs_seeds": 1, key: value}
        path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == [f"baseline.{key}"]
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("qcs,fields", [
        ({"mode": "single_frequency", "n_pairs": 100},
         ["baseline.qcs_scenario.species", "baseline.qcs_scenario.schedule"]),
        ({"mode": "time_origin"}, ["baseline.qcs_scenario.mode"]),
        ({"n_pairs": 100}, ["baseline.qcs_scenario.mode"]),
        ([1], ["baseline.qcs_scenario"]),
        ({**QCS_CELL, "channel": {"loss_probability": 1.0}}, ["baseline.qcs_scenario.channel"]),
        ({**QCS_CELL, "bob_schedule": QCS_CELL["schedule"]},
         ["baseline.qcs_scenario.bob_schedule"]),
        ({**QCS_CELL, "seeds": {"quantum": 1}}, ["baseline.qcs_scenario.seeds.quantum"]),
        ({**QCS_CELL, "seeds": {"channel": 2, "delta": 3}},
         ["baseline.qcs_scenario.seeds.channel"]),
        ({**QCS_CELL, "seeds": {"quantum": 0, "channel": 0}},
         ["baseline.qcs_scenario.seeds.quantum", "baseline.qcs_scenario.seeds.channel"]),
    ], ids=["no-schedule", "wrong-mode", "no-mode", "not-a-mapping", "own-channel",
            "own-bob-schedule", "own-quantum-seed", "own-channel-seed", "own-both-seeds"])
    def test_bad_qcs_scenario_reported(self, tmp_path, capsys, qcs, fields):
        baseline = {"sigma_grid": [1e-6], "distance_grid": [1e3], "n_trials": 10,
                    "n_qcs_seeds": 1, "qcs_scenario": qcs}
        path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == fields
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 1

    # finite grid values whose Bob-schedule margin overflows (inf) or swamps
    # the schedule's spacing (start + margin == stop + margin)
    @pytest.mark.parametrize("sigma,distance", [(1e10, 1e300), (1e-6, 1e300)])
    def test_grid_margin_overflow_reported(self, tmp_path, capsys, sigma, distance):
        baseline = {"sigma_grid": [sigma], "distance_grid": [1e3, distance],
                    "n_trials": 10, "n_qcs_seeds": 1}
        path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline})
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["baseline.distance_grid"]
        assert report["diagnostics"][0]["observed"] == {"distance": distance, "sigma": sigma}
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 1

    def test_qcs_delta_seed_resolves_random_delta(self, tmp_path, capsys):
        # the cell's seeds.delta is its own: it draws the cell's delta
        outs = []
        for seed in (4, 5):
            qcs = {**QCS_CELL, "delta": "random", "seeds": {"delta": seed}}
            baseline = {"sigma_grid": [1e-6], "distance_grid": [1e3], "n_trials": 10,
                        "n_qcs_seeds": 1, "qcs_scenario": qcs}
            path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline})
            assert main(["validate", path]) == 0
            assert main(["run", path, "-o", str(tmp_path / f"out{seed}")]) == 0
            outs.append((tmp_path / f"out{seed}" / "baseline.csv").read_bytes())
        capsys.readouterr()
        assert outs[0] != outs[1]

    def test_given_qcs_scenario_runs(self, tmp_path, capsys):
        baseline = {"sigma_grid": [1e-6], "distance_grid": [1e3], "n_trials": 10,
                    "n_qcs_seeds": 2, "qcs_scenario": QCS_CELL}
        path = _write(tmp_path, {"mode": "baseline_sweep", "baseline": baseline})
        assert main(["validate", path]) == 0
        assert main(["run", path, "-o", str(tmp_path / "out")]) == 0

    def test_string_grid_values_rejected(self, tmp_path, capsys):
        path = _write(tmp_path, {
            "mode": "baseline_sweep",
            "baseline": {"sigma_grid": ["bogus"], "distance_grid": [1e3],
                         "n_trials": 10},
        })
        assert main(["validate", path]) == 1


class TestSweep:
    def test_sweep_over_delta(self, tmp_path, capsys):
        path = _write(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", path, "-o", str(out),
                     "--param", "delta", "--values", "[0.0, 0.5, 1.0]"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["cells"]) == 3
        assert all(c["status"] == "ok" for c in report["cells"])
        for i in range(3):
            assert (out / f"cell_{i:03d}" / "result.json").exists()
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "cell,param,value,exit_code,status,sync_error"
        assert len(summary) == 4

    def test_sweep_indexes_lists(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", _write(tmp_path), "-o", str(out),
                     "--param", "species.0.omega", "--values", "[1.0, 3.0]"]) == 0
        for i, omega in enumerate((1.0, 3.0)):
            echo = load_config(out / f"cell_{i:03d}" / "config_echo.yaml")
            assert echo["species"] == [{"name": "cs", "omega": omega}]

    @pytest.mark.parametrize("param", ["species.1.omega", "species.x.omega", "n_pairs.x",
                                       "frobnicate", "bob_schedule.start"])
    def test_sweep_rejects_missing_path(self, tmp_path, capsys, param):
        assert main(["sweep", _write(tmp_path), "-o", str(tmp_path / "s"),
                     "--param", param, "--values", "[1.0]"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["--param"]

    def test_sweep_checks_seeds_first(self, tmp_path, capsys):
        # the cells' seeds are derived from the base seeds: run's diagnostic, exit 1
        path = _write(tmp_path, {"seeds": {"quantum": -1, "channel": 6}})
        assert main(["run", path, "-o", str(tmp_path / "r")]) == 1
        expected = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in expected["diagnostics"]] == ["seeds.quantum"]
        out = tmp_path / "s"
        assert main(["sweep", path, "-o", str(out),
                     "--param", "delta", "--values", "[0.1]"]) == 1
        assert json.loads(capsys.readouterr().out) == expected
        assert not out.exists()

    # each cell's quantum and channel seeds are derived from the base seeds,
    # so sweeping them would be ignored; the delta seed sweeps
    @pytest.mark.parametrize("param", ["seeds", "seeds.quantum", "seeds.channel"])
    def test_sweep_rejects_derived_seeds(self, tmp_path, capsys, param):
        out = tmp_path / "s"
        assert main(["sweep", _write(tmp_path), "-o", str(out),
                     "--param", param, "--values", "[1, 2]"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert [d["field"] for d in report["diagnostics"]] == ["--param"]
        assert not out.exists()

    def test_sweep_over_delta_seed(self, tmp_path, capsys):
        out = tmp_path / "s"
        assert main(["sweep", _write(tmp_path, {"delta": "random"}), "-o", str(out),
                     "--param", "seeds.delta", "--values", "[1, 2]"]) == 0
        echoes = [load_config(out / f"cell_{i:03d}" / "config_echo.yaml") for i in (0, 1)]
        assert [echo["seeds"]["delta"] for echo in echoes] == [1, 2]
        assert echoes[0]["delta"] != echoes[1]["delta"]

    def test_sweep_rejects_bad_values(self, tmp_path):
        path = _write(tmp_path)
        assert main(["sweep", path, "-o", str(tmp_path / "s"),
                     "--param", "delta", "--values", "not json"]) == 1
        assert main(["sweep", path, "-o", str(tmp_path / "s2"),
                     "--param", "delta", "--values", "[]"]) == 1


# The README example, scaled down from 1M pairs to 20,000 (batches of 200)
README_SCENARIO = {
    "mode": "single_frequency",
    "n_pairs": 20_000,
    "species": [{"name": "cs", "omega": 2.0}],
    "delta": 0.7,
    "alice_clock_offset": 0.0,
    "bob_clock_offset": 0.0,
    "schedule": {"start": 0.1, "stop": 4.0, "n_points": 20, "batch_size": 200},
    "channel": {"base_delay": 0.0, "jitter_sigma": 0.0, "loss_probability": 0.0},
    "seeds": {"quantum": 1, "channel": 2, "delta": 3},
}


def _readme_example():
    """The first yaml block of README.md, as a mapping."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return yaml.safe_load(fh.read().split("```yaml\n", 1)[1].split("```", 1)[0])


def test_readme_example_validates_and_is_the_property_base(tmp_path, capsys):
    example = _readme_example()
    path = tmp_path / "readme.yaml"
    path.write_text(yaml.safe_dump(example))
    assert main(["validate", str(path)]) == 0
    # the scaled-down fields aside, the hypothesis property mutates this example
    scaled = copy.deepcopy(README_SCENARIO)
    for scenario in (example, scaled):
        scenario.pop("n_pairs")
        scenario.pop("output_dir", None)
        scenario["schedule"].pop("batch_size")
    assert example == scaled


def _paths(node, prefix=()):
    """Every key and list index path in a scenario, the root included."""
    yield prefix
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, prefix + (key,))


# fields the example leaves out, so that mutations can also add them
PATHS = list(_paths(README_SCENARIO)) + [
    (key,) for key in ("eta", "alice_phase", "bob_phase", "collapse_time", "send_time",
                       "bob_schedule", "time_origin")]
BAD_VALUES = ["x", math.nan, math.inf, -1.0, 0, "", [], {}, None, True]
VALID_VALUES = [0.5, 1, 2.0, 3, 10, "random", "time_origin",
                {"start": 0.2, "stop": 3.0, "n_points": 8, "batch_size": 100}]

mutations = st.lists(st.tuples(
    st.sampled_from(PATHS),
    st.one_of(st.sampled_from(["delete", "extra key"]),
              st.tuples(st.just("set"), st.sampled_from(BAD_VALUES + VALID_VALUES)))),
    min_size=1, max_size=2)


def _mutate(scenario, path, action):
    """Delete the field at path, add an unknown key to the mapping there, or
    set it to a value; KeyError, IndexError or TypeError if path is gone."""
    node = scenario
    for key in path[:-1]:
        node = node[key]
    if action == "extra key":
        target = node[path[-1]] if path else node
        if isinstance(target, dict):
            target["extra"] = 1
    elif path and action == "delete":
        del node[path[-1]]
    elif path:
        node[path[-1]] = copy.deepcopy(action[1])


class TestScenarioProperties:
    # validate never raises (main turns any exception into exit 2), run never
    # exits 2, and the two agree: exit 1 from one is exit 1 from the other
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(mutations)
    def test_validate_passing_means_the_run_can_be_built(self, muts):
        scenario = copy.deepcopy(README_SCENARIO)
        for path, action in muts:
            try:
                _mutate(scenario, path, action)
            except (KeyError, IndexError, TypeError):
                pass  # an earlier mutation removed or replaced the parent
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            path = os.path.join(tmp, "scenario.yaml")
            with open(path, "w") as fh:
                yaml.safe_dump(scenario, fh)
            validated = main(["validate", path])
            ran = main(["run", path, "-o", os.path.join(tmp, "out")])
        assert validated in (0, 1), scenario
        assert ran in ((0, 3) if validated == 0 else (1,)), scenario


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only: the run's one minimization is in-tree
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, qclocksync.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_in_process_reuse_keeps_runs_identical(tmp_path, capsys):
    # one process keeps the CLI parser, and each transcript its record
    # templates: neither may carry anything from one call into the next
    a = _write(tmp_path, name="a.yaml")
    renamed = _write(tmp_path, {"species": [{"name": 'rb "%s" \\ é', "omega": 2.0}]},
                     name="renamed.yaml")
    b = _write(tmp_path, {"mode": "two_frequency", "species": TWO_SPECIES}, name="b.yaml")

    def run(path, out):
        code = main(["run", path, "-o", str(tmp_path / out)])
        return code, capsys.readouterr().out, _read_artifacts(tmp_path / out)

    first = run(a, "a1")
    assert first[0] == 0
    assert main(["validate", b]) == 0
    assert main(["sweep", a, "-o", str(tmp_path / "sweep"), "--param", "delta",
                 "--values", "[0.1, 0.2]"]) == 0
    capsys.readouterr()
    assert run(a, "a2") == first
    other = run(renamed, "r")
    assert other[0] == 0 and 'rb \\"%s\\"' in other[2]["events.jsonl"].decode()
    assert run(a, "a3") == first


# resolved scenarios with any species names and output directory: the echo's
# safe_dump text
echoes = st.builds(
    lambda names, output_dir: parse_config({
        **README_SCENARIO, "mode": "two_frequency", "output_dir": output_dir,
        "species": [{"name": names[0], "omega": 2.0}, {"name": names[1], "omega": 2.2}],
    })[0].config,
    st.lists(st.text(min_size=1), min_size=2, max_size=2, unique=True),
    st.text(min_size=1))


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML without libyaml")
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(echoes)
def test_libyaml_loads_echoes_as_the_pure_loader(resolved):
    text = yaml.safe_dump(resolved, sort_keys=True)
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=config_module._YAML_LOADER) == resolved


def test_cli_tests_pass_on_the_pure_loader():
    # where PyYAML lacks libyaml, load_config takes yaml.SafeLoader: run this
    # file's other tests again in a process that loads with it, counting loads
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, pytest, yaml\n"
            "from qclocksync import config\n"
            "class Counted(yaml.SafeLoader):\n"
            "    loads = 0\n"
            "    def __init__(self, stream):\n"
            "        Counted.loads += 1\n"
            "        super().__init__(stream)\n"
            "config._YAML_LOADER = Counted\n"
            "code = pytest.main(sys.argv[1:])\n"
            "print('loads', Counted.loads)\n"
            "sys.exit(code)\n")
    out = subprocess.run(
        [sys.executable, "-c", code, "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not pure_loader"],  # neither this test nor the parity one loads a scenario
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert " failed" not in out.stdout and " passed" in out.stdout
    assert int(out.stdout.rsplit("loads ", 1)[1]) > 100
