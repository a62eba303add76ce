"""Command line behavior: subcommands, exit codes, output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seedsched
from seedsched.cli import main


def _write_config(tmp_path, **overrides):
    cfg = {
        "environment": {"arms": [0.4, 0.9]},
        "schedulers": ["sample"],
        "trials": 1,
        "steps": 1,
        "base_seed": 0,
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_simulate_single_step_trial(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    log = (tmp_path / "out" / "sample-trial0000.csv").read_text().splitlines()
    assert len(log) == 2  # header plus exactly one step row
    assert (tmp_path / "out" / "summary.csv").exists()


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body",
    [b'{"trials": \xff}', b'{"trials": ' + b"1" * 5000 + b"}", b"[" * 100_000],
    ids=["not-utf8", "int-beyond-digit-limit", "nested-too-deep"],
)
@pytest.mark.parametrize("where", ["config", "target"])
def test_simulate_undecodable_file_exits_2(tmp_path, capsys, where, body):
    # each raised a ValueError or RecursionError, which exited 3 as a
    # runtime failure
    bad = tmp_path / "bad.json"
    bad.write_bytes(body)
    cfg = bad if where == "config" else _write_config(tmp_path, environment={"target": str(bad)})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert f"config error: cannot load {where} file" in capsys.readouterr().err


def test_simulate_target_path_with_a_nul_exits_2(tmp_path, capsys):
    # open() raised ValueError, which exited 3 as a runtime failure
    cfg = _write_config(tmp_path, environment={"target": "target\u0000.json"})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "config error: cannot load target file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides,line",
    [
        ({"steps": 0}, "config error: 'steps' must be an integer >= 1, got 0"),
        (
            {"environment": {"edges": [{"id": 0, "p": "0.5"}]}},
            "config error: edge #0: 'p' must be a finite number, got '0.5'",
        ),
    ],
    ids=["config-value", "edge-value"],
)
def test_simulate_bad_value_names_its_location_once(tmp_path, capsys, overrides, line):
    # the config's own messages carry no location word: "config error: "
    # names the config, and an edge's message names the edge
    assert main(["simulate", "--config", str(_write_config(tmp_path, **overrides))]) == 2
    assert capsys.readouterr().err == line + "\n"


def test_simulate_unknown_scheduler_names_it(tmp_path, capsys):
    cfg = _write_config(tmp_path, schedulers=["warp-drive"])
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "warp-drive" in capsys.readouterr().err


def test_simulate_rejects_bad_jobs(tmp_path, capsys):
    cfg = _write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--jobs", "0"]) == 2
    capsys.readouterr()


def test_simulate_bad_snapshot_step_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=10)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "10"]) == 2
    capsys.readouterr()


def test_replay_prints_full_table(capsys):
    assert main(["replay-fig2"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 29  # header + 7 steps x 4 nodes
    assert lines[0].split() == ["step", "node", "alpha", "beta", "pbar"]


def test_replay_csv_output(tmp_path, capsys):
    out_csv = tmp_path / "demo.csv"
    assert main(["replay-fig2", "--csv", str(out_csv)]) == 0
    capsys.readouterr()
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "step,node,alpha,beta,pbar"
    assert len(rows) == 29
    assert rows[1] == "0,line3,1,1,0.25"


def test_resume_round_trip(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=30, trials=1)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "10"]) == 0
    snap = tmp_path / "out" / "snapshot-step10.json"
    assert snap.exists()
    assert main(["resume", "--snapshot", str(snap)]) == 0
    capsys.readouterr()
    full = (tmp_path / "out" / "sample-trial0000.csv").read_text().splitlines()
    suffix = (tmp_path / "out" / "sample-trial0000-resumed.csv").read_text().splitlines()
    assert suffix[1:] == full[11:]


def test_resume_missing_snapshot_exits_3(tmp_path, capsys):
    assert main(["resume", "--snapshot", str(tmp_path / "none.json")]) == 3
    assert "error" in capsys.readouterr().err


def test_resume_corrupt_snapshot_exits_3(tmp_path, capsys):
    cfg = _write_config(tmp_path, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    body = json.loads(snap.read_text())
    body["payload"]["snapshot_step"] = 7
    snap.write_text(json.dumps(body))
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert "checksum" in capsys.readouterr().err


def test_resume_invalid_embedded_config_exits_3(tmp_path, capsys):
    # a checksummed snapshot whose config fails to parse is a corrupt
    # snapshot (exit 3), not a bad config file (exit 2)
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    payload["config"]["trials"] = "x"
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    # the location is named once
    assert capsys.readouterr().err == (
        "error: snapshot holds an invalid config: 'trials' must be an integer >= 1, got 'x'\n"
    )
    assert not list((tmp_path / "out").glob("*-resumed.csv"))


def test_simulate_inline_edges_without_optional_keys(tmp_path, capsys):
    edges = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.5}]
    cfg = _write_config(tmp_path, environment={"edges": edges}, steps=5)
    assert main(["simulate", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert len((tmp_path / "out" / "sample-trial0000.csv").read_text().splitlines()) == 6


def test_simulate_inline_edge_unknown_key_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, environment={"edges": [{"id": 0, "p": 1.0, "bogus": 1}]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edge",
    [
        {"id": True, "p": 1.0},
        {"id": 0, "p": "0.5"},
        {"id": 0, "p": 1.0, "prereqs": "0"},
        {"id": 0, "p": 1.0, "size_range": [1.5, 7.9]},
    ],
)
def test_simulate_wrongly_typed_edge_exits_2(tmp_path, capsys, edge):
    (tmp_path / "target.json").write_text(json.dumps([edge]))
    cfg = _write_config(tmp_path, environment={"target": str(tmp_path / "target.json")})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "edge #0" in capsys.readouterr().err
    cfg = _write_config(tmp_path, environment={"edges": [edge]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "edge #0" in capsys.readouterr().err

def test_resume_malformed_runner_state_exits_3(tmp_path, capsys):
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    del payload["runners"][0]["state"]["scheduler"]["alpha"]
    write_snapshot(snap, payload)  # the checksum still matches
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key,value", [("step", "x"), ("step", 21), ("kind", 7)]
)
def test_resume_wrongly_typed_runner_state_exits_3(tmp_path, capsys, key, value):
    from seedsched.experiment import read_snapshot, write_snapshot

    edges = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]
    cfg = _write_config(tmp_path, environment={"edges": edges}, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    payload["runners"][0]["state"][key] = value
    write_snapshot(snap, payload)  # the checksum still matches
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("version", [2, 3, 4, 5])
def test_resume_rejects_an_earlier_snapshot_version(tmp_path, capsys, monkeypatch, version):
    from seedsched import experiment

    cfg = _write_config(tmp_path, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = experiment.read_snapshot(snap)
    # an earlier version's file, checksum and all: version 2 drew scores for
    # all K features, version 3 stored hit totals and seen buckets, version 4
    # stored the fuzz runner's discovered edges and input count, version 5
    # stored copies of the config's steps, seed and policy, unread counters
    # and the posterior as strings
    monkeypatch.setattr(experiment, "SNAPSHOT_VERSION", version)
    experiment.write_snapshot(snap, payload)
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    err = capsys.readouterr().err
    assert f"version {version}" in err and "expected 6" in err


@pytest.mark.parametrize(
    "change,needle",
    [
        (lambda c: c.remove(0), "corpus"),
        (lambda c: c.reverse(), "covered"),
        (lambda c: c.append(2), "covered"),
        (lambda c: c.append(1), "covered"),
    ],
    ids=["corpus-feature-uncovered", "unsorted", "out-of-range", "repeated"],
)
def test_resume_coverage_state_disagreeing_with_corpus_exits_3(tmp_path, capsys, change, needle):
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, schedulers=["sample"], steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    covered = payload["runners"][0]["state"]["scheduler"]["covered"]
    assert covered == [0, 1]
    change(covered)
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheduler,key,value",
    [
        ("round-robin", "cursor", "x"),
        ("round-robin", "cursor", -1),
        ("sample", "alpha", "x"),
        ("sample", "beta", [1.0]),
        ("greedy", "alpha", None),
        ("uniform", "covered", True),
    ],
)
def test_resume_wrongly_typed_scheduler_state_exits_3(tmp_path, capsys, scheduler, key, value):
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, schedulers=[scheduler], steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    payload["runners"][0]["state"]["scheduler"][key] = value
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert key in capsys.readouterr().err


def test_simulate_boolean_arm_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, environment={"arms": [True, 0.5]})
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "environment.arms" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["alpha", "beta"])
@pytest.mark.parametrize("value", [True, "1_0", " 2.5 "], ids=["true", "1_0", "spaced-2.5"])
def test_resume_non_number_posterior_entry_exits_3(tmp_path, capsys, key, value):
    # read with float(), these were 1.0, 10.0 and 2.5, and the run went on
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    payload["runners"][0]["state"]["scheduler"][key][1] = value
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert key in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*-resumed.csv"))


def test_simulate_negative_base_seed_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, base_seed=-5)
    assert main(["simulate", "--config", str(cfg)]) == 2
    assert "base_seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where,key,value",
    [
        ("env_rng", "state", -1),
        ("env_rng", "inc", 2**128),
        ("env_rng", "state", 1.5),
        ("rng", "state", -1),
        ("rng", "inc", 2**128),
    ],
)
def test_resume_out_of_range_rng_state_exits_3(tmp_path, capsys, where, key, value):
    # numpy's PCG64 setter raised OverflowError here, which resume printed
    # as a traceback, and took a float state as an int
    from seedsched.experiment import read_snapshot, write_snapshot

    edges = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]
    cfg = _write_config(tmp_path, environment={"edges": edges}, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    state = payload["runners"][0]["state"]
    rng = state[where] if where == "env_rng" else state["scheduler"][where]
    rng["state"][key] = value
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert "rng state" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change,needle",
    [
        (lambda rs: rs[0].__setitem__("trial", 99), "trial"),
        (lambda rs: rs[0].__setitem__("trial", -1), "trial"),
        (lambda rs: rs.append(rs[0]), "twice"),
    ],
    ids=["trial-99", "trial-negative", "duplicate"],
)
def test_resume_runner_entry_outside_the_config_exits_3(tmp_path, capsys, change, needle):
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, trials=2, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    change(payload["runners"])
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap)]) == 3
    assert needle in capsys.readouterr().err
    # nothing resumed; trial -1 used to write sample-trial-001-resumed.csv
    assert not list((tmp_path / "out").glob("*-resumed.csv"))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_resume_rejected_last_runner_exits_3_and_writes_nothing(tmp_path, capsys, jobs):
    # the trials resume in workers that write their own logs, so each
    # runner's state is loaded before any of them starts
    from seedsched.experiment import read_snapshot, write_snapshot

    cfg = _write_config(tmp_path, schedulers=["sample", "round-robin"], trials=2, steps=20)
    assert main(["simulate", "--config", str(cfg), "--snapshot-at", "5"]) == 0
    snap = tmp_path / "out" / "snapshot-step5.json"
    payload = read_snapshot(snap)
    payload["runners"][-1]["state"]["scheduler"]["cursor"] = -1
    write_snapshot(snap, payload)  # the checksum still matches
    capsys.readouterr()
    assert main(["resume", "--snapshot", str(snap), "--jobs", jobs]) == 3
    assert "cursor" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*-resumed.csv"))


@pytest.mark.parametrize(
    "environment",
    [
        {"arms": [0.4, 0.9]},
        {"edges": [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]},
    ],
    ids=["arms", "dag"],
)
def test_snapshot_bytes_do_not_depend_on_the_hash_seed(tmp_path, environment):
    # the snapshot's config copy walks the config table in order; a copy
    # built through a set would order its keys by the process's string hash
    cfg = _write_config(tmp_path, environment=environment, steps=20)
    src = str(Path(seedsched.__file__).resolve().parents[1])
    snapshots = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": src}
        argv = ["simulate", "--config", str(cfg), "--snapshot-at", "5"]
        proc = subprocess.run(
            [sys.executable, "-m", "seedsched.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        snapshots.append((tmp_path / "out" / "snapshot-step5.json").read_bytes())
    assert snapshots[0] == snapshots[1]


_POOL_PROBE = """
import sys
import seedsched, seedsched.cli
# kept at module level: a first snapshot otherwise loads OpenSSL mid-run
print("hashlib" in sys.modules)
assert seedsched.cli.main(["simulate", "--config", sys.argv[1], "--jobs", "1"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing")))
"""


def test_a_one_job_run_loads_no_process_pool(tmp_path):
    # the pool is imported only when a run starts workers, so a fresh
    # interpreter running one job never loads multiprocessing
    cfg = _write_config(tmp_path, schedulers=["sample", "uniform"], trials=2, steps=20)
    src = str(Path(seedsched.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_PROBE, str(cfg)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("True", "[]")
