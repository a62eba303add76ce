import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_keys_and_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"][:2] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert len((run.ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for group, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[group]] == list(table)


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(
        run, "WORKLOADS", {name: w.scaled(1, 30) for name, w in WORKLOADS.items()}
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(small, capsys, tmp_path, trace):
    argv = ["--workload", "chain20-resume", "--seed", "4", "--seconds", "0.01"]
    assert run.main(argv + ["--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in expected
    ]
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert not (tmp_path / "work").exists() or not any((tmp_path / "work").iterdir())
    record_path = tmp_path / "results" / f"chain20-resume-seed4-trace{trace}.json"
    record = json.loads(record_path.read_text())
    assert len(record["outputs_sha256"]) == 64


def test_fails_without_the_program(tmp_path):
    skip = shutil.ignore_patterns("tests", ".*", "results", "__pycache__")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=skip)
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "arms-k3", "--seed", "1"]
    proc = subprocess.run(
        argv + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
