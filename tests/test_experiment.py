"""Experiment config parsing, batch runs, CSV output, snapshot/resume."""

import concurrent.futures
import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from seedsched import (
    CfgTarget,
    ConfigError,
    Edge,
    FuzzCampaignRunner,
    SnapshotError,
    load_config,
    make_scheduler,
    parse_config,
    run_experiment,
)
from seedsched import experiment
from seedsched.experiment import (
    SUMMARY_COLUMNS,
    TRIAL_LOG_COLUMNS,
    WRITE_BLOCK_ROWS,
    open_trial_csv,
    read_snapshot,
    resume_experiment,
    trial_csv_name,
    write_snapshot,
    write_trial_csv,
)
from seedsched.simulator import TrialLog, _TrialRunner


def _base_config(out_dir, **overrides):
    cfg = {
        "environment": {"arms": [0.4, 0.9]},
        "schedulers": ["sample", "uniform"],
        "trials": 2,
        "steps": 40,
        "base_seed": 11,
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config(
            {
                "environment": {"arms": [0.5]},
                "schedulers": ["greedy"],
                "trials": 1,
                "steps": 1,
            }
        )
        assert cfg.base_seed == 0
        assert cfg.output_dir == "results"
        assert cfg.sampling_interval == 100
        assert cfg.interesting_policy == "new-feature"
        assert cfg.k_size == 1

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="extra"):
            parse_config(_base_config(".", extra=1))

    @pytest.mark.parametrize("missing", ["environment", "schedulers", "trials", "steps"])
    def test_missing_required_key(self, missing):
        cfg = _base_config(".")
        del cfg[missing]
        with pytest.raises(ConfigError, match=missing):
            parse_config(cfg)

    def test_environment_must_pick_one_kind(self):
        with pytest.raises(ConfigError):
            parse_config(_base_config(".", environment={}))
        with pytest.raises(ConfigError):
            parse_config(_base_config(".", environment={"arms": [0.5], "target": "x"}))

    def test_bad_arm_probability(self):
        with pytest.raises(ConfigError):
            parse_config(_base_config(".", environment={"arms": [0.5, 1.5]}))

    def test_unknown_scheduler_named_in_error(self):
        with pytest.raises(ConfigError, match="warp-drive"):
            parse_config(_base_config(".", schedulers=["warp-drive"]))

    def test_duplicate_schedulers_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            parse_config(_base_config(".", schedulers=["sample", "sample"]))

    @pytest.mark.parametrize("field,value", [("trials", 0), ("steps", 0), ("sampling_interval", 0)])
    def test_positive_integers_required(self, field, value):
        with pytest.raises(ConfigError):
            parse_config(_base_config(".", **{field: value}))

    @pytest.mark.parametrize("field", ["trials", "steps", "base_seed", "sampling_interval"])
    def test_booleans_are_not_integers(self, field):
        with pytest.raises(ConfigError, match=field):
            parse_config(_base_config(".", **{field: True}))

    def test_sampling_interval_beyond_int64_rejected(self, tmp_path):
        # the timeline takes int64 steps modulo the interval, which raised
        # OverflowError at 2**63 once every trial had run
        with pytest.raises(ConfigError, match="sampling_interval"):
            parse_config(_base_config(".", sampling_interval=2**63))
        cfg = parse_config(_base_config(str(tmp_path), sampling_interval=2**63 - 1, steps=5))
        assert [row["scheduler"] for row in run_experiment(cfg).summary] == ["sample", "uniform"]

    def test_negative_base_seed_rejected(self):
        with pytest.raises(ConfigError, match="base_seed"):
            parse_config(_base_config(".", base_seed=-1))

    def test_zero_arm_probability_rejected(self):
        with pytest.raises(ConfigError, match="arm"):
            parse_config(_base_config(".", environment={"arms": [0.0, 0.5]}))

    @pytest.mark.parametrize(
        "arm", [True, "0.5", None, float("nan"), pytest.param(10**400, id="int-beyond-float")]
    )
    def test_non_number_arm_probability_rejected(self, arm):
        # JSON true once parsed as probability 1.0; an int beyond float range
        # raised OverflowError
        with pytest.raises(ConfigError, match="arms"):
            parse_config(_base_config(".", environment={"arms": [arm, 0.5]}))

    def test_inline_edges_take_the_target_file_defaults(self, tmp_path):
        edges = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.5}]
        (tmp_path / "target.json").write_text(json.dumps(edges))
        from_file = parse_config(
            _base_config(".", environment={"target": "target.json"}), tmp_path
        )
        inline = parse_config(_base_config(".", environment={"edges": edges}))
        assert inline.target == from_file.target
        assert inline.target.edges[0].prereqs == frozenset()
        assert inline.target.edges[1].time_range == (1.0, 10.0)
        assert inline.target.edges[1].size_range == (10, 1000)

    @pytest.mark.parametrize(
        "edges,needle",
        [
            ([{"id": 0, "p": 1.0, "bogus": 1}], "bogus"),
            ([{"id": 0}], "edge #0"),
            ([{"id": 0, "p": 1.0, "time_range": 3}], "edge #0"),
            (["edge"], "edge #0"),
            ({"id": 0, "p": 1.0}, "list"),
            # beyond float range: OverflowError once, a traceback from the CLI
            ([{"id": 0, "p": 10**400}], "edge #0"),
        ],
    )
    def test_malformed_inline_edges_are_config_errors(self, edges, needle):
        with pytest.raises(ConfigError, match=needle):
            parse_config(_base_config(".", environment={"edges": edges}))

    def test_bad_policy(self):
        with pytest.raises(ConfigError):
            parse_config(_base_config(".", interesting_policy="everything"))

    # one bad value per config key, each of the right JSON shape where it can
    # be, so that only the key's own check rejects it
    BAD_VALUES = {
        "environment": "arms",
        "schedulers": "sample",
        "trials": 0,
        "steps": 1.5,
        "base_seed": -1,
        "output_dir": "",
        "sampling_interval": True,
        "interesting_policy": "everything",
    }

    def test_every_config_key_has_a_bad_value_case(self):
        assert list(self.BAD_VALUES) == list(experiment._CONFIG_FIELDS)

    @pytest.mark.parametrize("key,value", BAD_VALUES.items(), ids=list(BAD_VALUES))
    def test_bad_value_error_names_the_key_and_shows_the_value(self, key, value):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(_base_config(".", **{key: value}))
        message = str(excinfo.value)
        assert re.fullmatch(rf"'{key}' must be .+, got {re.escape(repr(value))}", message)

    def test_bad_edge_value_error_has_the_config_shape(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(_base_config(".", environment={"edges": [{"id": 0, "p": "0.5"}]}))
        message = str(excinfo.value)
        assert re.fullmatch(r"edge #0: 'p' must be .+, got '0\.5'", message)

    def test_unknown_scheduler_error_names_it_and_asks_for_no_repeats(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(_base_config(".", schedulers=["sample", "warp-drive"]))
        assert "warp-drive" in str(excinfo.value) and "repeat" in str(excinfo.value)

    def test_missing_keys_are_named_in_table_order(self):
        with pytest.raises(ConfigError) as excinfo:
            parse_config({"environment": {"arms": [0.5]}})
        assert str(excinfo.value) == "missing keys ['schedulers', 'trials', 'steps']"

    def test_snapshot_config_copy_holds_the_table_keys_in_order(self, tmp_path):
        for environment in ({"arms": [0.5]}, {"edges": [{"id": 0, "p": 0.5}]}):
            out = tmp_path / next(iter(environment))
            cfg = parse_config(_base_config(out, environment=environment))
            payload = read_snapshot(run_experiment(cfg, snapshot_at=20).snapshot_path)
            assert list(payload["config"]) == list(experiment._CONFIG_FIELDS)
            assert parse_config(payload["config"]) == cfg

    def test_target_path_resolves_relative_to_config(self, tmp_path):
        target = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.5}]
        (tmp_path / "target.json").write_text(json.dumps(target))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(_base_config(tmp_path, environment={"target": "target.json"}))
        )
        cfg = load_config(cfg_path)
        assert cfg.target is not None
        assert cfg.k_size == 2

    def test_malformed_target_is_config_error(self, tmp_path):
        (tmp_path / "target.json").write_text("[{\"id\": 0}]")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(_base_config(tmp_path, environment={"target": "target.json"}))
        )
        with pytest.raises(ConfigError):
            load_config(cfg_path)

    def test_config_file_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        with pytest.raises(ConfigError):
            load_config(bad)


def _row_by_row_csv(path, log):
    """Reference trial CSV writer: one csv row per step, cell by cell."""
    with path.open("w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_LOG_COLUMNS)
        for i in range(len(log)):
            writer.writerow(
                [
                    int(log.steps[i]),
                    log.scheduler,
                    log.trial,
                    int(log.actions[i]),
                    int(log.interesting[i]),
                    repr(float(log.regret[i])),
                    int(log.covered[i]),
                    int(log.corpus_size[i]),
                    int(log.select_ops[i]),
                    int(log.update_ops[i]),
                ]
            )


@pytest.mark.parametrize("scheduler", ["rare-plus", 'a "quoted", 100% name'])
@pytest.mark.parametrize(
    "n", [0, 1, 7, WRITE_BLOCK_ROWS - 1, WRITE_BLOCK_ROWS, WRITE_BLOCK_ROWS + 1, 2500]
)
def test_trial_csv_matches_a_row_by_row_writer(tmp_path, n, scheduler):
    # -0.0 beside 0.0, the non-finite values and the smallest subnormal,
    # each formatted as repr formats it; lengths either side of a block
    regrets = [
        0.1, 1e-17, 0.0, 0.19999999999999996, 1.0, 2.5e-300, 0.30000000000000004,
        -0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
    ]
    rng = np.random.default_rng(n)
    log = TrialLog(
        scheduler=scheduler,
        trial=3,
        steps=np.arange(41, 41 + n, dtype=np.int64),
        actions=rng.integers(0, 2000, n),
        interesting=rng.random(n) < 0.5,
        regret=np.resize(np.array(regrets), n),
        covered=rng.integers(0, 2**40, n),
        corpus_size=rng.integers(0, 100, n),
        select_ops=np.full(n, 6000, dtype=np.int64),
        update_ops=rng.integers(0, 50, n),
    )
    with open_trial_csv(tmp_path / "columns.csv") as fh:
        write_trial_csv(fh, log)
    _row_by_row_csv(tmp_path / "rows.csv", log)
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestRunExperiment:
    def test_writes_all_csvs_with_pinned_columns(self, tmp_path):
        cfg = parse_config(_base_config(tmp_path / "out"))
        result = run_experiment(cfg)
        for name in ("sample", "uniform"):
            for trial in (0, 1):
                path = result.output_dir / trial_csv_name(name, trial)
                lines = path.read_text().splitlines()
                assert lines[0] == ",".join(TRIAL_LOG_COLUMNS)
                assert len(lines) == 41
        summary = (result.output_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == ",".join(SUMMARY_COLUMNS)
        assert len(summary) == 3

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_a = parse_config(_base_config(tmp_path / "a"))
        cfg_b = parse_config(_base_config(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in ("sample-trial0000.csv", "uniform-trial0001.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg_a = parse_config(_base_config(tmp_path / "serial"))
        cfg_b = parse_config(_base_config(tmp_path / "parallel"))
        run_experiment(cfg_a, jobs=1)
        run_experiment(cfg_b, jobs=2)
        for name in ("sample-trial0000.csv", "summary.csv"):
            assert (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()

    def test_summary_regret_window(self, tmp_path):
        # each trial's final-window regret is the mean of its CSV's last
        # tenth of regrets, to the bit; the summary row averages them
        cfg = parse_config(_base_config(tmp_path / "out"))
        result = run_experiment(cfg)
        window = max(1, cfg.steps // 10)
        for row in result.summary:
            regrets = []
            for t in range(cfg.trials):
                path = result.output_dir / trial_csv_name(row["scheduler"], t)
                with path.open(newline="") as fh:
                    column = np.array([float(r["regret"]) for r in csv.DictReader(fh)])
                regrets.append(float(column[-window:].mean()))
                assert result.trials[(row["scheduler"], t)].final_regret == regrets[-1]
            assert row["mean_final_regret"] == pytest.approx(sum(regrets) / len(regrets))
        assert result.summary[0]["scheduler"] == "sample"
        assert result.summary[0]["mwu_p_vs_baseline"] == 1.0  # baseline vs itself

    def test_trial_seeds_offset_from_base(self, tmp_path):
        # trial i must depend only on base_seed + i: shifting both is a no-op
        import csv

        cfg_a = parse_config(_base_config(tmp_path / "a", base_seed=5, trials=3))
        cfg_b = parse_config(_base_config(tmp_path / "b", base_seed=6, trials=2))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        a_path = tmp_path / "a" / trial_csv_name("sample", 1)
        b_path = tmp_path / "b" / trial_csv_name("sample", 0)
        drop_trial = lambda rows: [r[:2] + r[3:] for r in rows]
        with a_path.open() as fa, b_path.open() as fb:
            # same underlying seed (6); only the trial column may differ
            assert drop_trial(list(csv.reader(fa))) == drop_trial(list(csv.reader(fb)))

    def test_both_interesting_policies_write_the_same_bytes(self, tmp_path):
        # every feature of an execution is hit once, so a new bucket is a
        # new feature: new-bucket retains exactly what new-feature retains
        gen = np.random.default_rng(7)
        edges = [{"id": i, "p": 0.5} for i in range(3)] + [
            {"id": i, "prereqs": [int(gen.integers(0, i))], "p": float(gen.uniform(0.02, 0.3))}
            for i in range(3, 120)
        ]
        schedulers = ["rare-minus", "rare-plus", "sample", "greedy", "uniform", "round-robin"]
        for policy in ("new-feature", "new-bucket"):
            cfg = _base_config(
                tmp_path / policy,
                environment={"edges": edges},
                schedulers=schedulers,
                trials=2,
                steps=150,
                interesting_policy=policy,
            )
            run_experiment(parse_config(cfg))
        names = sorted(p.name for p in (tmp_path / "new-feature").iterdir())
        assert len(names) == 13 and "summary.csv" in names
        for name in names:
            assert (tmp_path / "new-feature" / name).read_bytes() == (
                tmp_path / "new-bucket" / name
            ).read_bytes(), name

    def test_snapshot_bounds_checked(self, tmp_path):
        cfg = parse_config(_base_config(tmp_path / "out"))
        with pytest.raises(ConfigError):
            run_experiment(cfg, snapshot_at=0)
        with pytest.raises(ConfigError):
            run_experiment(cfg, snapshot_at=40)


class TestWorkerPool:
    """``--jobs`` is an upper bound: a pool starts no more workers than
    there are (scheduler, trial) tasks, and one task runs in-process."""

    @pytest.fixture
    def pools(self, monkeypatch):
        built = []

        class RecordingPool:
            # stands in for ProcessPoolExecutor, so no process starts
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # ``_map_tasks`` imports the pool when it starts workers, so the
        # fake goes where that import reads it
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return built

    def test_simulate_starts_a_worker_per_task_at_most(self, tmp_path, pools):
        run_experiment(parse_config(_base_config(tmp_path / "out")), jobs=64)
        assert pools == [4]

    def test_simulate_runs_a_single_task_in_process(self, tmp_path, pools):
        cfg = parse_config(_base_config(tmp_path / "out", schedulers=["sample"], trials=1))
        run_experiment(cfg, jobs=64)
        assert pools == []

    def test_resume_starts_a_worker_per_task_at_most(self, tmp_path, pools):
        result = run_experiment(parse_config(_base_config(tmp_path / "out")), snapshot_at=20)
        resume_experiment(result.snapshot_path, jobs=64)
        assert pools == [4]
        payload = read_snapshot(result.snapshot_path)
        del payload["runners"][1:]
        write_snapshot(result.snapshot_path, payload)
        resume_experiment(result.snapshot_path, jobs=64)
        assert pools == [4]


def _rename_scheduler(entry, name):
    entry["scheduler"] = name
    entry["state"]["scheduler"]["name"] = name


class TestSnapshotResume:
    def test_resume_reproduces_suffix_rows(self, tmp_path):
        cfg = parse_config(_base_config(tmp_path / "out", steps=60))
        result = run_experiment(cfg, snapshot_at=25)
        assert result.snapshot_path is not None
        resumed = resume_experiment(result.snapshot_path)
        for name in ("sample", "uniform"):
            for trial in (0, 1):
                full = (tmp_path / "out" / trial_csv_name(name, trial)).read_text().splitlines()
                suffix = (
                    (tmp_path / "out" / trial_csv_name(name, trial, resumed=True))
                    .read_text()
                    .splitlines()
                )
                assert suffix[0] == full[0]
                assert suffix[1:] == full[26:]

    def test_resume_with_fuzz_target_env(self, tmp_path):
        target = [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]
        (tmp_path / "t.json").write_text(json.dumps(target))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                _base_config(
                    tmp_path / "out",
                    environment={"target": "t.json"},
                    schedulers=["rare-plus"],
                    steps=50,
                )
            )
        )
        cfg = load_config(cfg_path)
        result = run_experiment(cfg, snapshot_at=20)
        # the snapshot embeds the edges, so resume needs no target file
        (tmp_path / "t.json").unlink()
        resume_experiment(result.snapshot_path)
        full = (tmp_path / "out" / trial_csv_name("rare-plus", 0)).read_text().splitlines()
        suffix = (
            (tmp_path / "out" / trial_csv_name("rare-plus", 0, resumed=True))
            .read_text()
            .splitlines()
        )
        assert suffix[1:] == full[21:]

    @pytest.mark.parametrize(
        "break_entry",
        [
            lambda e: e["state"]["scheduler"].pop("alpha"),
            lambda e: e["state"].pop("step"),
            lambda e: e["state"]["scheduler"].__setitem__("corpus", 7),
            lambda e: e.pop("state"),
        ],
        ids=["no-alpha", "no-step", "corpus-not-a-list", "no-state"],
    )
    def test_malformed_runner_state_is_snapshot_error(self, tmp_path, break_entry):
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"edges": [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]},
                schedulers=["rare-plus"],
                trials=1,
                steps=20,
            )
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        break_entry(payload["runners"][0])
        write_snapshot(result.snapshot_path, payload)  # a valid checksum
        with pytest.raises(SnapshotError, match="runner state"):
            resume_experiment(result.snapshot_path)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("step", "x"),
            ("step", True),
            ("step", -1),
            ("step", 21),
            ("step", 1.5),
            ("step", None),
            ("kind", "arms"),
            ("kind", None),
            ("scheduler", None),
        ],
    )
    def test_wrongly_typed_runner_state_is_snapshot_error(self, tmp_path, key, value):
        # every key is present and the checksum is valid; only the value is wrong
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"edges": [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]},
                schedulers=["rare-plus"],
                trials=1,
                steps=20,
            )
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        payload["runners"][0]["state"][key] = value
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match=key):
            resume_experiment(result.snapshot_path)

    @pytest.mark.parametrize(
        "change,needle",
        [
            # the next input would be named input2, then input3: a clash
            (lambda s: s["corpus"][1].__setitem__("id", "input3"), "corpus"),
            (lambda s: s["corpus"][1].__setitem__("id", "input1 "), "corpus"),
            (lambda s: s["corpus"].reverse(), "corpus"),
            (lambda s: s["corpus"].pop(0), "corpus"),
            (lambda s: s.__setitem__("corpus", []), "corpus"),
            # edge 2 would count as covered and never unlock
            (lambda s: s["covered"].append(2), "covered"),
        ],
        ids=["id-ahead", "id-unlike-a-name", "reordered", "seed-missing", "empty",
             "edge-covered-by-no-input"],
    )
    def test_fuzz_corpus_unlike_a_run_is_snapshot_error(self, tmp_path, change, needle):
        # the runner names its next input and finds unlockable edges from the
        # scheduler's corpus and coverage, so each must be one a run can leave
        edges = [
            {"id": 0, "p": 1.0},
            {"id": 1, "prereqs": [0], "p": 1.0},
            {"id": 2, "prereqs": [1], "p": 0.001},
        ]
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"edges": edges},
                schedulers=["sample"],
                trials=1,
                steps=20,
            )
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        sched = payload["runners"][0]["state"]["scheduler"]
        assert [r["id"] for r in sched["corpus"]] == ["seed0", "input1"]
        assert sched["covered"] == [0, 1]
        change(sched)
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match=needle):
            resume_experiment(result.snapshot_path)

    @pytest.mark.parametrize(
        "change,needle",
        [
            (lambda rs: rs[0].__setitem__("trial", 2), "trial"),
            (lambda rs: rs[0].__setitem__("trial", -1), "trial"),
            (lambda rs: rs[0].__setitem__("trial", "0"), "trial"),
            (lambda rs: rs[0].__setitem__("trial", 1.0), "trial"),
            # the same state layout under a scheduler the config does not run
            (lambda rs: _rename_scheduler(rs[0], "rare-plus"), "scheduler"),
            (lambda rs: rs[0].__setitem__("scheduler", ["sample"]), "scheduler"),
            (lambda rs: rs[0].pop("trial"), "runner"),
            (lambda rs: rs.__setitem__(0, "sample"), "runner"),
            (lambda rs: rs.append(rs[3]), "twice"),
            (lambda rs: rs[1].__setitem__("trial", 0), "twice"),
            # the config's run length bounds the step
            (lambda rs: rs[0]["state"].__setitem__("step", 21), "step"),
        ],
        ids=[
            "trial-at-trials", "trial-negative", "trial-str", "trial-float",
            "scheduler-not-configured", "scheduler-list", "no-trial", "not-an-object",
            "duplicate", "same-pair-twice", "step-beyond-the-config's-steps",
        ],
    )
    def test_runner_entry_outside_the_config_is_snapshot_error(self, tmp_path, change, needle):
        cfg = parse_config(_base_config(tmp_path / "out", steps=20))
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        assert [(e["scheduler"], e["trial"]) for e in payload["runners"]] == [
            ("sample", 0), ("sample", 1), ("uniform", 0), ("uniform", 1)
        ]
        change(payload["runners"])
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match=needle):
            resume_experiment(result.snapshot_path)
        assert not list((tmp_path / "out").glob("*-resumed.csv"))

    def test_runner_state_holds_no_copy_of_the_config(self, tmp_path):
        # the run length, seed and policy come from the config; a key left
        # over from an earlier layout changes nothing (a stored run length of
        # 10**12 once ran without end)
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"edges": [{"id": 0, "p": 1.0}, {"id": 1, "prereqs": [0], "p": 0.3}]},
                schedulers=["rare-plus", "round-robin"],
                trials=1,
                steps=20,
            )
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        posterior, baseline = (e["state"] for e in payload["runners"])
        assert set(posterior) == set(baseline) == {"kind", "step", "env_rng", "scheduler"}
        common = {"name", "k_size", "rng", "corpus", "covered"}
        assert set(posterior["scheduler"]) == common | {"alpha", "beta"}
        assert set(baseline["scheduler"]) == common | {"cursor"}
        for key in ("alpha", "beta"):
            assert all(type(v) is float for v in posterior["scheduler"][key])
        for entry in payload["runners"]:
            entry["state"].update(steps=10**12, seed=3, policy="bogus")
        write_snapshot(result.snapshot_path, payload)
        resume_experiment(result.snapshot_path)
        for name in ("rare-plus", "round-robin"):
            full = (tmp_path / "out" / trial_csv_name(name, 0)).read_text().splitlines()
            suffix = (
                (tmp_path / "out" / trial_csv_name(name, 0, resumed=True))
                .read_text()
                .splitlines()
            )
            assert suffix[1:] == full[11:]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_rejected_last_runner_resumes_nothing(self, tmp_path, jobs):
        # every runner is loaded before any trial resumes and writes its
        # log, so a bad state in the last entry leaves no suffix log at all
        cfg = parse_config(_base_config(tmp_path / "out", steps=20))
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        payload["runners"][-1]["state"]["env_rng"]["state"]["state"] = -1
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match="rng state"):
            resume_experiment(result.snapshot_path, jobs=jobs)
        assert not list((tmp_path / "out").glob("*-resumed.csv"))

    def test_each_runner_is_built_and_loaded_once(self, tmp_path, monkeypatch):
        # a resume checks an entry and loads its runner in one pass; a
        # second load per runner would cost every resume a second state check
        built, loaded = [], []
        build, load = experiment._build_runner, _TrialRunner.load_state

        def counting_build(config, name, trial):
            built.append((name, trial))
            return build(config, name, trial)

        def counting_load(runner, state):
            loaded.append(runner.scheduler.name)
            return load(runner, state)

        monkeypatch.setattr(experiment, "_build_runner", counting_build)
        monkeypatch.setattr(_TrialRunner, "load_state", counting_load)
        pairs = [("sample", 0), ("sample", 1), ("uniform", 0), ("uniform", 1)]
        result = run_experiment(parse_config(_base_config(tmp_path / "out")), snapshot_at=20)
        assert (built, loaded) == (pairs, [])
        del built[:]
        resume_experiment(result.snapshot_path, jobs=1)
        assert built == pairs
        assert loaded == [name for name, _ in pairs]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_the_first_faulty_entry_is_reported(self, tmp_path, jobs):
        # each entry is checked and loaded before the next is read, so a bad
        # state in entry 0 is reported before a repeated pair in entry 1
        cfg = parse_config(_base_config(tmp_path / "out", steps=20))
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        payload["runners"][0]["state"]["env_rng"]["state"]["state"] = -1
        payload["runners"][1]["trial"] = 0
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match="malformed runner state .*rng state"):
            resume_experiment(result.snapshot_path, jobs=jobs)
        assert not list((tmp_path / "out").glob("*-resumed.csv"))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "change",
        [
            lambda corpus: corpus[0].__setitem__("features", [0, 1]),
            lambda corpus: corpus[0].__setitem__("features", []),
            lambda corpus: corpus.pop(),
            lambda corpus: corpus.append(dict(corpus[0], id="arm3")),
            lambda corpus: corpus.reverse(),
            lambda corpus: corpus[1].__setitem__("exec_time", 2.0),
        ],
        ids=["two-arms", "no-arm", "arm-dropped", "arm-added", "reordered", "other-cost"],
    )
    def test_an_arms_corpus_other_than_the_arm_inputs_resumes_nothing(
        self, tmp_path, jobs, change
    ):
        # an arms step only re-observes the K inputs the runner made, one per
        # arm in arm order, so no other corpus can come from a run
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"arms": [0.7, 0.8, 0.9]},
                schedulers=["uniform", "sample"],
            )
        )
        result = run_experiment(cfg, snapshot_at=20)
        payload = read_snapshot(result.snapshot_path)
        change(payload["runners"][-1]["state"]["scheduler"]["corpus"])
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match="corpus"):
            resume_experiment(result.snapshot_path, jobs=jobs)
        assert not list((tmp_path / "out").glob("*-resumed.csv"))

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "key,value", [("alpha", 1e200), ("beta", 1e200), ("alpha", 23.0)]
    )
    def test_a_posterior_no_run_reaches_resumes_nothing(self, tmp_path, jobs, key, value):
        # Beta(1, 1), one bootstrap observation, then at most one per step:
        # alpha + beta never exceeds step + 3.  Loaded, 1e200 would overflow
        # alpha**2 partway through the resume.
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"arms": [0.7, 0.8, 0.9]},
                schedulers=["uniform", "sample"],
            )
        )
        result = run_experiment(cfg, snapshot_at=20)
        payload = read_snapshot(result.snapshot_path)
        state = payload["runners"][-1]["state"]
        assert state["step"] == 20
        state["scheduler"][key][0] = value
        state["scheduler"]["beta" if key == "alpha" else "alpha"][0] = 1.0
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match="step"):
            resume_experiment(result.snapshot_path, jobs=jobs)
        assert not list((tmp_path / "out").glob("*-resumed.csv"))

    def test_a_posterior_at_its_bound_resumes(self, tmp_path):
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"arms": [0.7, 0.8, 0.9]},
                schedulers=["sample"],
                trials=1,
            )
        )
        result = run_experiment(cfg, snapshot_at=20)
        payload = read_snapshot(result.snapshot_path)
        sched = payload["runners"][0]["state"]["scheduler"]
        sched["alpha"][0], sched["beta"][0] = 22.0, 1.0
        write_snapshot(result.snapshot_path, payload)
        resume_experiment(result.snapshot_path)
        assert len(list((tmp_path / "out").glob("*-resumed.csv"))) == 1

    def test_a_subset_of_the_runners_resumes(self, tmp_path):
        cfg = parse_config(_base_config(tmp_path / "out", steps=20))
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        del payload["runners"][1:3]
        write_snapshot(result.snapshot_path, payload)
        resumed = resume_experiment(result.snapshot_path)
        assert sorted(resumed.trials) == [("sample", 0), ("uniform", 1)]
        assert sorted(p.name for p in (tmp_path / "out").glob("*-resumed.csv")) == [
            trial_csv_name("sample", 0, resumed=True),
            trial_csv_name("uniform", 1, resumed=True),
        ]

    @pytest.mark.parametrize(
        "scheduler,change,needle",
        [
            ("rare-plus", lambda s: s["corpus"][0].__setitem__("id", 5), "id"),
            ("rare-plus", lambda s: s["corpus"][1].__setitem__("id", "arm0"), "unique"),
            ("rare-plus", lambda s: s["corpus"][0].__setitem__("size", -1), "size"),
            ("rare-plus", lambda s: s["corpus"][0].__setitem__("exec_time", "1"), "exec_time"),
            ("rare-plus", lambda s: s["corpus"][0].__setitem__("features", [7]), "features"),
            ("rare-plus", lambda s: s["corpus"][0].__setitem__("features", "ab"), "features"),
            ("uniform", lambda s: s["corpus"].__setitem__(0, "arm0"), "corpus"),
            ("rare-plus", lambda s: s.__setitem__("alpha", [1.0] * 3), "alpha"),
            ("rare-plus", lambda s: s["alpha"].__setitem__(0, float("inf")), "alpha"),
            ("sample", lambda s: s["beta"].__setitem__(1, float("nan")), "beta"),
            ("sample", lambda s: s.__setitem__("covered", [0, 1, 2]), "covered"),
            ("sample", lambda s: s.__setitem__("covered", [0, True]), "covered"),
            ("uniform", lambda s: s.__setitem__("covered", "01"), "covered"),
        ],
    )
    def test_wrongly_typed_scheduler_state_is_snapshot_error(
        self, tmp_path, scheduler, change, needle
    ):
        cfg = parse_config(
            _base_config(tmp_path / "out", schedulers=[scheduler], trials=1, steps=20)
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        change(payload["runners"][0]["state"]["scheduler"])
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match=needle):
            resume_experiment(result.snapshot_path)

    @pytest.mark.parametrize("scheduler", ["rare-plus", "uniform"])
    @pytest.mark.parametrize(
        "change,needle",
        [
            # a retained input covers a feature missing from 'covered'
            (lambda s: s["covered"].remove(0), "corpus"),
            (lambda s: s.__setitem__("covered", []), "corpus"),
            # the ids are all there, but not as state_dict writes them
            (lambda s: s["covered"].reverse(), "covered"),
            (lambda s: s["covered"].append(1), "covered"),
        ],
        ids=["corpus-feature-uncovered", "covered-empty", "unsorted", "repeated"],
    )
    def test_coverage_state_disagreeing_with_corpus_is_snapshot_error(
        self, tmp_path, scheduler, change, needle
    ):
        cfg = parse_config(
            _base_config(tmp_path / "out", schedulers=[scheduler], trials=1, steps=20)
        )
        result = run_experiment(cfg, snapshot_at=10)
        payload = read_snapshot(result.snapshot_path)
        change(payload["runners"][0]["state"]["scheduler"])
        write_snapshot(result.snapshot_path, payload)
        with pytest.raises(SnapshotError, match=needle):
            resume_experiment(result.snapshot_path)

    @pytest.mark.parametrize("name", ["rare-minus", "rare-plus", "sample", "greedy"])
    def test_favored_table_is_rebuilt_from_the_corpus(self, name):
        # a chain whose inputs' costs spread widely: a later, cheaper input
        # displaces the incumbents of every feature it covers
        edges = [
            Edge(i, frozenset({i - 1}) if i else frozenset(), 0.5, (0.1, 10.0), (1, 1000))
            for i in range(30)
        ]
        target = CfgTarget(tuple(edges))
        straight = FuzzCampaignRunner(target, make_scheduler(name, 30, 5), 200, 5)
        straight.run_to(60)
        state = json.loads(json.dumps(straight.state_dict()))
        assert "favored" not in state["scheduler"]
        resumed = FuzzCampaignRunner(target, make_scheduler(name, 30, 5), 200, 5)
        resumed.load_state(state)
        table = straight.scheduler.favored.entries
        assert resumed.scheduler.favored.entries == table
        corpus = straight.scheduler.insertion_order
        first = {
            k: next(i for i in corpus if k in straight.scheduler.corpus[i].features)
            for k in table
        }
        assert any(table[k][0] != first[k] for k in table), "no incumbent was displaced"
        straight.run_to()
        resumed.run_to()
        assert resumed.take_log().actions.tolist() == straight.take_log().actions[60:].tolist()

    @pytest.mark.parametrize("name", ["rare-minus", "rare-plus", "sample"])
    def test_resume_on_a_wide_dag_with_a_partial_mask(self, tmp_path, name):
        gen = np.random.default_rng(2024)
        edges = [{"id": 0, "p": 0.5}] + [
            {"id": i, "prereqs": [int(gen.integers(0, i))], "p": float(gen.uniform(0.01, 0.05))}
            for i in range(1, 240)
        ]
        cfg = parse_config(
            _base_config(
                tmp_path / "out",
                environment={"edges": edges},
                schedulers=[name],
                trials=2,
                steps=160,
            )
        )
        result = run_experiment(cfg, snapshot_at=70)
        for runner in read_snapshot(result.snapshot_path)["runners"]:
            covered = set().union(*(r["features"] for r in runner["state"]["scheduler"]["corpus"]))
            assert 1 < len(covered) < len(edges)  # only some features are selectable
        resume_experiment(result.snapshot_path)
        for trial in (0, 1):
            full = (tmp_path / "out" / trial_csv_name(name, trial)).read_text().splitlines()
            suffix = (
                (tmp_path / "out" / trial_csv_name(name, trial, resumed=True))
                .read_text()
                .splitlines()
            )
            assert len(suffix) == 91 and suffix[1:] == full[71:]

    @pytest.mark.parametrize("payload", [[], {"config": {}}, {"config": {}, "runners": 3}])
    def test_malformed_payload_is_snapshot_error(self, tmp_path, payload):
        path = tmp_path / "snap.json"
        write_snapshot(path, payload)
        with pytest.raises(SnapshotError, match="payload"):
            resume_experiment(path)

    def test_invalid_embedded_config_is_snapshot_error(self, tmp_path):
        result = run_experiment(parse_config(_base_config(tmp_path / "out")), snapshot_at=20)
        payload = read_snapshot(result.snapshot_path)
        payload["config"]["trials"] = "x"
        write_snapshot(result.snapshot_path, payload)  # the checksum still matches
        with pytest.raises(SnapshotError, match="invalid config.*trials"):
            resume_experiment(result.snapshot_path)

    def test_checksum_detects_corruption(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"config": {}, "snapshot_step": 1, "runners": []})
        body = json.loads(path.read_text())
        body["payload"]["snapshot_step"] = 2
        path.write_text(json.dumps(body))
        with pytest.raises(SnapshotError, match="checksum"):
            read_snapshot(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "snap.json"
        write_snapshot(path, {"config": {}, "snapshot_step": 1, "runners": []})
        body = json.loads(path.read_text())
        body["version"] = 99
        path.write_text(json.dumps(body))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(path)

    def test_unreadable_snapshot_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            read_snapshot(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        with pytest.raises(SnapshotError):
            read_snapshot(bad)
        bad.write_text(json.dumps({"something": 1}))
        with pytest.raises(SnapshotError):
            read_snapshot(bad)
        # not ASCII, an integer past Python's digit limit (ValueError once),
        # nesting past the recursion limit (RecursionError once)
        for body in (b'{"version": \xff}', b"[" + b"1" * 5000 + b"]", b"[" * 100_000):
            bad.write_bytes(body)
            with pytest.raises(SnapshotError, match="cannot load snapshot"):
                read_snapshot(bad)
