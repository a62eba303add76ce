import pytest

import checks
import run
from spans import Tracer
from workloads import WORKLOADS


def _round(seedsched, tmp_path, name, trials, steps):
    workload = WORKLOADS[name].scaled(trials, steps)
    bench = run.Bench(seedsched, workload, 9, tmp_path)
    _, codes = bench.round(Tracer(), full=False)
    return bench, codes


@pytest.mark.parametrize(
    "name, trials, steps", [("arms-k3", 2, 40), ("tree-2k", 1, 30), ("chain20-resume", 2, 40)]
)
def test_clean_round_passes(seedsched, tmp_path, name, trials, steps):
    bench, codes = _round(seedsched, tmp_path, name, trials, steps)
    result = checks.check_round(bench.out, bench.workload, codes)
    assert result.problems == []
    assert (result.attempted, result.failed) == (6 * trials, 0)
    assert result.steps == 6 * trials * steps
    assert result.csv_bytes > 0
    assert (result.snapshot_bytes > 0) == (bench.workload.snapshot_at is not None)


def _corrupt(path, line_no, column, value):
    lines = path.read_text().splitlines()
    cells = lines[line_no].split(",")
    cells[column] = value
    lines[line_no] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "column, value",
    [(0, "99"), (5, "0.05"), (6, "0"), (8, "1")],
    ids=["step", "regret", "covered", "select_ops"],
)
def test_corrupted_csv_counts_as_failure(seedsched, tmp_path, column, value):
    bench, codes = _round(seedsched, tmp_path, "arms-k3", 2, 40)
    _corrupt(bench.out / checks.trial_csv_name("sample", 1), 5, column, value)
    result = checks.check_round(bench.out, bench.workload, codes)
    assert result.failed == 1
    assert "sample-trial0001.csv" in result.problems[0]


def test_missing_row_and_bad_exit_code_fail(seedsched, tmp_path):
    bench, codes = _round(seedsched, tmp_path, "arms-k3", 1, 40)
    assert checks.check_round(bench.out, bench.workload, [0, 3]).failed == 6
    path = bench.out / checks.trial_csv_name("greedy", 0)
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_round(bench.out, bench.workload, codes).failed == 1


def test_resumed_rows_must_match_the_full_run(seedsched, tmp_path):
    bench, codes = _round(seedsched, tmp_path, "chain20-resume", 1, 40)
    path = bench.out / checks.trial_csv_name("uniform", 0, resumed=True)
    _corrupt(path, 3, 3, "0" if path.read_text().splitlines()[3].split(",")[3] != "0" else "1")
    result = checks.check_round(bench.out, bench.workload, codes)
    assert result.failed == 1


def test_digest_changes_with_any_byte(seedsched, tmp_path):
    bench, _ = _round(seedsched, tmp_path, "arms-k3", 1, 20)
    before = checks.digest(bench.out)
    assert checks.digest(bench.out) == before
    summary = bench.out / "summary.csv"
    summary.write_text(summary.read_text() + " ")
    assert checks.digest(bench.out) != before


def test_program_crash_fails_the_round(seedsched, tmp_path, monkeypatch):
    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(seedsched.cli, "run_experiment", crash)
    bench = run.Bench(seedsched, WORKLOADS["arms-k3"].scaled(1, 10), 9, tmp_path)
    _, codes = bench.round(Tracer(), full=False)
    assert codes == [-1]
    result = checks.check_round(bench.out, bench.workload, codes)
    assert result.failed == result.attempted == 6
