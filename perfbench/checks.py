"""Output checks for one round of a workload, and the outputs' digest.

A round passes when every trial's CSV log is well formed and consistent
with the workload: one row per step with consecutive step numbers,
coverage and corpus size that never decrease and never exceed K, regret
that matches the arm pulled (zero on DAG targets), a ``select_ops`` value
that is constant per scheduler, one summary row per scheduler, and, when
the workload resumes from a snapshot, resumed rows that equal the full
run's rows after the snapshot step.  Failures are counted per trial.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field
from pathlib import Path

from workloads import ARMS, SCHEDULERS, Workload

TRIAL_COLUMNS = (
    "step",
    "scheduler",
    "trial",
    "action",
    "interesting",
    "regret",
    "covered_features",
    "corpus_size",
    "select_ops",
    "update_ops",
)

SUMMARY_COLUMNS = (
    "scheduler",
    "trials",
    "final_cov_mean",
    "final_cov_ci_lo",
    "final_cov_ci_hi",
    "auc_mean",
    "auc_ci_lo",
    "auc_ci_hi",
    "mean_final_regret",
    "mwu_p_vs_baseline",
)


class CheckError(Exception):
    """An output file breaks one of the checks."""


@dataclass
class CheckedLog:
    """What the checks keep from one trial CSV."""

    lines: list[str]  # data lines, without the header
    select_ops: int  # the constant per-step value
    update_ops: int  # summed over the steps
    final_covered: int


@dataclass
class RoundCheck:
    """Result of checking one round's output directory."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    steps: int = 0
    select_ops: int = 0
    update_ops: int = 0
    discoveries: int = 0
    csv_bytes: int = 0
    snapshot_bytes: int = 0


def trial_csv_name(scheduler: str, trial: int, resumed: bool = False) -> str:
    return f"{scheduler}-trial{trial:04d}{'-resumed' if resumed else ''}.csv"


def read_trial_csv(
    path: Path, workload: Workload, scheduler: str, trial: int, first_step: int
) -> CheckedLog:
    """Parse and check one trial log whose rows run first_step..steps."""
    try:
        text = path.read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckError(f"{path.name}: unreadable: {exc}") from exc
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != TRIAL_COLUMNS:
        raise CheckError(f"{path.name}: missing or wrong header")
    expected_rows = workload.steps - first_step + 1
    if len(lines) - 1 != expected_rows:
        raise CheckError(f"{path.name}: {len(lines) - 1} rows, expected {expected_rows}")
    k = workload.k_size
    best = max(ARMS)
    ops_seen = set()
    update_ops = 0
    covered_prev = corpus_prev = 0
    for n, row in enumerate(csv.reader(lines[1:])):
        try:
            step, name, trial_s, action, interesting, regret, covered, corpus, sel, upd = row
            step, action, covered, corpus = int(step), int(action), int(covered), int(corpus)
            regret, sel, upd = float(regret), int(sel), int(upd)
        except ValueError as exc:
            raise CheckError(f"{path.name}: malformed row {n + 1}: {exc}") from exc
        where = f"{path.name}: step {step}"
        if step != first_step + n:
            raise CheckError(f"{where}: steps are not consecutive from {first_step}")
        if name != scheduler or trial_s != str(trial):
            raise CheckError(f"{where}: scheduler/trial columns do not match the file")
        if not 0 <= action < k or interesting not in ("0", "1"):
            raise CheckError(f"{where}: action or interesting flag out of range")
        if not (covered_prev <= covered <= k and corpus_prev <= corpus <= k and corpus >= 1):
            raise CheckError(f"{where}: coverage or corpus size decreased or exceeds K")
        expected_regret = best - ARMS[action] if workload.name == "arms-k3" else 0.0
        if regret != expected_regret:
            raise CheckError(f"{where}: regret {regret!r}, expected {expected_regret!r}")
        if sel <= 0 or upd <= 0:
            raise CheckError(f"{where}: op counters must be positive")
        covered_prev, corpus_prev = covered, corpus
        ops_seen.add(sel)
        update_ops += upd
    if len(ops_seen) != 1:
        raise CheckError(f"{path.name}: select_ops varies within the trial")
    return CheckedLog(lines[1:], ops_seen.pop(), update_ops, covered_prev)


def check_summary(path: Path, workload: Workload) -> None:
    try:
        rows = list(csv.reader(path.read_text(encoding="ascii").splitlines()))
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckError(f"summary.csv: unreadable: {exc}") from exc
    if not rows or tuple(rows[0]) != SUMMARY_COLUMNS:
        raise CheckError("summary.csv: missing or wrong header")
    if [r[0] for r in rows[1:]] != list(SCHEDULERS):
        raise CheckError("summary.csv: expected one row per scheduler, in config order")
    if any(len(r) != len(SUMMARY_COLUMNS) or r[1] != str(workload.trials) for r in rows[1:]):
        raise CheckError("summary.csv: malformed row")


def check_round(out_dir: Path, workload: Workload, exit_codes: list[int]) -> RoundCheck:
    """Check every trial of one round; a trial fails on any broken check."""
    result = RoundCheck(attempted=len(SCHEDULERS) * workload.trials)
    if any(exit_codes):
        result.failed = result.attempted
        result.problems.append(f"exit codes {exit_codes}")
        return result
    try:
        check_summary(out_dir / "summary.csv", workload)
    except CheckError as exc:
        result.failed = result.attempted
        result.problems.append(str(exc))
        return result
    snap = workload.snapshot_at
    for scheduler in SCHEDULERS:
        per_trial_ops: dict[int, int] = {}
        for trial in range(workload.trials):
            try:
                log = read_trial_csv(
                    out_dir / trial_csv_name(scheduler, trial), workload, scheduler, trial, 1
                )
                if snap is not None:
                    resumed = read_trial_csv(
                        out_dir / trial_csv_name(scheduler, trial, resumed=True),
                        workload, scheduler, trial, snap + 1,
                    )
                    if resumed.lines != log.lines[snap:]:
                        raise CheckError(
                            f"{trial_csv_name(scheduler, trial, True)}: differs from the "
                            f"full run's rows after step {snap}"
                        )
            except CheckError as exc:
                result.failed += 1
                result.problems.append(str(exc))
                continue
            per_trial_ops[trial] = log.select_ops
            result.steps += workload.steps
            result.select_ops += log.select_ops * workload.steps
            result.update_ops += log.update_ops
            result.discoveries += log.final_covered - workload.seeded
        if len(set(per_trial_ops.values())) > 1:
            result.failed += len(per_trial_ops)
            result.problems.append(f"{scheduler}: select_ops differs between trials")
    for path in out_dir.iterdir():
        if path.suffix == ".csv":
            result.csv_bytes += path.stat().st_size
        elif path.name.startswith("snapshot-"):
            result.snapshot_bytes += path.stat().st_size
    return result


def digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
