"""Self-tests of the benchmark: every output check rejects a perturbed result,
and every workload has a short mode that runs in seconds.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from workloads import WORKLOADS, check, make_scenarios  # noqa: E402


def _program_record(workload: str, index: int, tmp_path) -> tuple:
    """(scenario, exit code, record) of one short scenario run by the program."""
    import yaml

    main = run._load_program()["cli"].main
    sc = make_scenarios(workload, 7, short=True)[index]
    path = tmp_path / f"{sc.name}.yaml"
    path.write_text(yaml.safe_dump(sc.config))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["run", str(path), "-o", str(tmp_path / sc.name)])
    return sc, code, json.loads(buf.getvalue().splitlines()[-1])


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("records")
    return {
        "sync_1m": [_program_record("sync_1m", i, tmp) for i in (0, 1)],
        "time_origin_dense": [_program_record("time_origin_dense", 0, tmp)],
        "baseline_sweep": [_program_record("baseline_sweep", 0, tmp)],
    }


def _fails(workload, sc, code, record, seen=None):
    return check(workload, sc, code, record, {} if seen is None else seen)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_unperturbed_results_pass(records, workload):
    seen = {}
    for sc, code, record in records[workload]:
        assert _fails(workload, sc, code, record, seen) == []


def _sync_cs(record):
    return record["species"]["cs"]


SYNC_PERTURBATIONS = {
    "type counts do not add up": lambda r: _sync_cs(r).update(n_type_i=_sync_cs(r)["n_type_i"] + 1),
    "type split far from half": lambda r: _sync_cs(r).update(
        n_type_i=_sync_cs(r)["n_type_i"] + 5000, n_type_ii=_sync_cs(r)["n_type_ii"] - 5000),
    "sigma off the Fisher scale": lambda r: _sync_cs(r)["bob_phase"].update(
        sigma=3.0 * _sync_cs(r)["bob_phase"]["sigma"]),
    "alice phase shifted": lambda r: _sync_cs(r)["alice_phase"].update(
        phase=_sync_cs(r)["alice_phase"]["phase"] + 10 * _sync_cs(r)["alice_phase"]["sigma"]),
    "bob phase shifted": lambda r: _sync_cs(r)["bob_phase"].update(
        phase=_sync_cs(r)["bob_phase"]["phase"] + 10 * _sync_cs(r)["bob_phase"]["sigma"]),
    "sync error misreported": lambda r: r.update(sync_error=r["sync_error"] + 1e-6),
    "status inconclusive": lambda r: r.update(status="inconclusive"),
}


@pytest.mark.parametrize("name", sorted(SYNC_PERTURBATIONS))
def test_sync_check_rejects(records, name):
    sc, code, record = records["sync_1m"][0]
    bad = copy.deepcopy(record)
    SYNC_PERTURBATIONS[name](bad)
    assert _fails("sync_1m", sc, code, bad)


def test_sync_check_rejects_exit_code(records):
    sc, _code, record = records["sync_1m"][0]
    assert _fails("sync_1m", sc, 2, record)


def test_sync_check_rejects_channel_dependent_phase(records):
    (sc0, c0, r0), (sc1, c1, r1) = records["sync_1m"]
    assert sc0.twin == sc1.twin
    bad = copy.deepcopy(r1)
    phase = _sync_cs(bad)["bob_phase"]["phase"]
    _sync_cs(bad)["bob_phase"]["phase"] = math.nextafter(phase, math.inf)
    seen = {}
    assert _fails("sync_1m", sc0, c0, r0, seen) == []
    assert _fails("sync_1m", sc1, c1, bad, seen)


def test_check_rejects_changed_rerun(records):
    sc, code, record = records["time_origin_dense"][0]
    seen = {}
    assert _fails("time_origin_dense", sc, code, record, seen) == []
    bad = copy.deepcopy(record)
    bad["envelope_a"]["residual"] += 1.0
    assert _fails("time_origin_dense", sc, code, bad, seen)


TIME_ORIGIN_PERTURBATIONS = {
    "alice origin shifted": lambda r: r.update(t_origin_a=r["t_origin_a"] + 10 * r["t_origin_sigma_a"]),
    "bob origin ignores his offset": lambda r: r.update(t_origin_b=r["t_origin_a"]),
    "zero sigma": lambda r: r.update(t_origin_sigma_b=0.0),
    "sync error misreported": lambda r: r.update(sync_error=r["sync_error"] + 1e-6),
    "status no_sync": lambda r: r.update(status="no_sync"),
}


@pytest.mark.parametrize("name", sorted(TIME_ORIGIN_PERTURBATIONS))
def test_time_origin_check_rejects(records, name):
    sc, code, record = records["time_origin_dense"][0]
    bad = copy.deepcopy(record)
    TIME_ORIGIN_PERTURBATIONS[name](bad)
    assert _fails("time_origin_dense", sc, code, bad)


def _cell(record, i):
    return record["cells"][i]


BASELINE_PERTURBATIONS = {
    "es off the closed form": lambda r: _cell(r, 1).update(
        rms_error_es=1.5 * _cell(r, 1)["rms_error_es"]),
    "es flat in distance": lambda r: _cell(r, 2).update(
        rms_error_es=_cell(r, 1)["rms_error_es"]),
    "qcs not finite": lambda r: _cell(r, 0).update(rms_error_qcs=math.nan),
    "qcs grows with distance": lambda r: _cell(r, 2).update(
        rms_error_qcs=2.0 * _cell(r, 2)["rms_error_qcs"]),
    "qcs off its scale": lambda r: [c.update(rms_error_qcs=10.0 * c["rms_error_qcs"])
                                    for c in r["cells"]],
    "cell missing": lambda r: r["cells"].pop(),
}


@pytest.mark.parametrize("name", sorted(BASELINE_PERTURBATIONS))
def test_baseline_check_rejects(records, name):
    sc, code, record = records["baseline_sweep"][0]
    bad = copy.deepcopy(record)
    BASELINE_PERTURBATIONS[name](bad)
    assert _fails("baseline_sweep", sc, code, bad)


def test_inputs_follow_the_seed():
    for workload in WORKLOADS:
        a = [s.config for s in make_scenarios(workload, 3)]
        assert a == [s.config for s in make_scenarios(workload, 3)]
        assert a != [s.config for s in make_scenarios(workload, 4)]


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_mode(tmp_path, workload, trace):
    out = run.run(["--workload", workload, "--seed", "2", "--seconds", "0.5",
                   "--trace", str(trace), "--short"], work_dir=str(tmp_path / "w"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    if trace:
        assert os.path.isfile(tmp_path / "w" / "trace.json")
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_trace_count_check_rejects_mismatch(tmp_path, monkeypatch):
    real = run._expected_samples
    monkeypatch.setattr(run, "_expected_samples",
                        lambda *a: tuple(x + 1 for x in real(*a)))
    out = run.run(["--workload", "sync_1m", "--seed", "2", "--seconds", "0.1",
                   "--trace", "1", "--short"], work_dir=str(tmp_path / "w"))
    assert not out["correct"] and out["failed"] >= 1


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sync_1m",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
