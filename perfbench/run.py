"""Benchmark for seedsched: end-to-end figures, or a traced per-layer split.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload arms-k3 --seed 1 --seconds 35 --trace 0

Each workload is an experiment written from ``--seed`` by ``workloads.py``
and run in-process through ``seedsched.cli.main(["simulate", ...])`` with
``--jobs 1`` (plus ``resume`` for ``chain20-resume``).  One round is one
such run; rounds repeat, closed-loop, while another round fits in
``--seconds``, and figures are medians over rounds.  Every round's outputs
are checked, and every round must reproduce the first round's bytes.

``--trace 0`` measures with tracing off.  The result line carries the
time of a round's ``cli.main`` calls and its steps per run_to time in
reference units (see ``reference.py``), ``setup_s`` (``import seedsched``
plus ``load_config`` in a fresh interpreter, median of several, scaled by
a reference kernel run in the same interpreter) and ``peak_rss_mb`` (the
growth of peak RSS from before the program's first run to the end of the
first measured round); the same figures in seconds, and per scheduler,
are printed and recorded.  Set-up
measurements count against ``--seconds``.
``--trace 1`` alternates untraced and traced rounds, and reports
per-layer metrics from spans recorded around the program's public
functions (see ``spans.py``); per-layer times and counts are per traced
round.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run record with every figure, the per-round samples and the outputs'
sha256 goes to ``perfbench/results/``; a traced run also writes its spans
there.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from reference import SETUP_KERNEL_S, ReferenceClock  # noqa: E402
from spans import Tracer, attributes, span_stats, trace_points  # noqa: E402
from workloads import OUTPUT_DIR, SCHEDULERS, WORKLOADS, Workload, write_inputs  # noqa: E402

SETUP_REPEATS = 11
WARMUP = (1, 50)  # trials, steps of the untimed warm-up round

# (name, unit, better); BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("wall_ref", "ref", "lower"),
    ("steps_per_ref", "steps/ref", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_SCHEDULER = tuple((f"steps_per_ref.{name}", "steps/ref", "higher") for name in SCHEDULERS)

PER_LAYER = PER_SCHEDULER + (
    ("rng.beta.calls", "count", "lower"),
    ("rng.beta.busy_s", "s", "lower"),
    ("rng.beta.shapes", "count", "lower"),
    ("bandit.select_action.self_s", "s", "lower"),
    ("bandit.update_posterior.calls", "count", "lower"),
    ("bandit.update_posterior.busy_s", "s", "lower"),
    ("coverage.absorb.busy_s", "s", "lower"),
    ("coverage.update_favored.calls", "count", "lower"),
    ("coverage.update_favored.busy_s", "s", "lower"),
    ("coverage.classify_interesting.calls", "count", "lower"),
    ("coverage.interesting_ratio", "ratio", "higher"),
    ("schedulers.next.self_s", "s", "lower"),
    ("schedulers.observe.self_s", "s", "lower"),
    ("schedulers.next.p50_us", "us", "lower"),
    ("schedulers.next.p99_us", "us", "lower"),
    ("schedulers.observe.p50_us", "us", "lower"),
    ("schedulers.observe.p99_us", "us", "lower"),
    ("schedulers.select_ops", "count", "lower"),
    ("schedulers.update_ops", "count", "lower"),
    ("simulator.run_to.calls", "count", "lower"),
    ("simulator.env_self_s", "s", "lower"),
    ("simulator.discoveries", "count", "higher"),
    ("simulator.discovery_yield", "count/step", "higher"),
    ("experiment.load_config.busy_s", "s", "lower"),
    ("experiment.write_trial_csv.busy_s", "s", "lower"),
    ("experiment.csv_bytes", "B", "lower"),
    ("experiment.snapshot_bytes", "B", "lower"),
    ("metrics.bootstrap_ci.busy_s", "s", "lower"),
    ("metrics.mann_whitney_u.busy_s", "s", "lower"),
    ("metrics.auc.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# Printed and recorded, but not on the result line.  The figures in
# seconds spread more from run to run on a shared machine than any bound
# the result line may carry (reference.py says why), and each trace figure
# here is exactly zero on some workload by design: no classification on
# arms-k3, no snapshot or resume outside chain20-resume.
REPORTED = (
    ("wall_s", "s"),
    ("steps_per_s", "steps/s"),
    *((f"steps_per_s.{name}", "steps/s") for name in SCHEDULERS),
    ("reference_s", "s"),
    ("setup_raw_s", "s"),
    ("setup_kernel_s", "s"),
    ("coverage.classify_interesting.busy_s", "s"),
    ("experiment.write_snapshot.busy_s", "s"),
    ("experiment.read_snapshot.busy_s", "s"),
    ("experiment.resume.busy_s", "s"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER + REPORTED}
UNITS.update(rounds="count", spans="count")  # layer.<name>.self_s default to "s"

# Set-up: a fresh interpreter imports the package and loads (reads,
# validates) the experiment config, between two passes of the set-up
# kernel.  numpy is imported before the timer starts: its import is mostly
# file reads, which varied between 60 and 150 ms from minute to minute on
# a shared 2-core VM, and it is not the program's own work.  Prints the
# set-up seconds and the mean seconds of the two kernel passes.
SETUP_CODE = """\
import sys, time
import numpy
sys.path.insert(0, sys.argv[3])
sys.path.insert(0, sys.argv[1])
from reference import setup_kernel

def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0

setup_kernel()
before = timed(setup_kernel)
t0 = time.perf_counter()
import seedsched
seedsched.load_config(sys.argv[2])
setup = time.perf_counter() - t0
after = timed(setup_kernel)
print(repr(setup), repr((before + after) / 2))
"""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program():
    """Import seedsched from this checkout's src/, never from elsewhere."""
    package = SRC / "seedsched"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no seedsched sources at {package}")
    sys.path.insert(0, str(SRC))
    import seedsched
    import seedsched.cli

    if Path(seedsched.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported seedsched from {seedsched.__file__}")
    return seedsched


def measure_setup(config: Path) -> list[tuple[float, float]]:
    """(set-up seconds, kernel seconds), once per fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(config), str(HERE)],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=config.parent,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed:\n{proc.stderr}")
        setup, kernel = proc.stdout.split()[-2:]
        times.append((float(setup), float(kernel)))
    return times


class Bench:
    """Runs rounds of one workload from its own working directory."""

    def __init__(self, seedsched, workload: Workload, seed: int, work: Path) -> None:
        self.seedsched = seedsched
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = write_inputs(workload, seed, work)
        self.out = work / OUTPUT_DIR

    def steps_per_scheduler(self) -> int:
        """Steps one scheduler's trials take in a round, resumed steps included."""
        w = self.workload
        per_trial = w.steps + (0 if w.snapshot_at is None else w.steps - w.snapshot_at)
        return per_trial * w.trials

    def argvs(self) -> list[list[str]]:
        w = self.workload
        simulate = ["simulate", "--config", self.config.name, "--jobs", "1"]
        if w.snapshot_at is None:
            return [simulate]
        snapshot = f"{OUTPUT_DIR}/snapshot-step{w.snapshot_at}.json"
        return [
            simulate + ["--snapshot-at", str(w.snapshot_at)],
            ["resume", "--snapshot", snapshot, "--jobs", "1"],
        ]

    def round(self, tracer: Tracer, full: bool) -> tuple[list[tuple[int, int]], list[int]]:
        """One round: (start, end) ns of each cli.main call, and their exit codes.

        With ``full`` every public function is traced; otherwise only the
        runners' ``run_to`` calls are.
        """
        shutil.rmtree(self.out, ignore_errors=True)
        points = trace_points(self.seedsched)
        if not full:
            points = [p for p in points if p[2] == "simulator.run_to"]
        before = attributes(points)
        cli = self.seedsched.cli
        codes = []
        calls = []
        cwd = Path.cwd()
        os.chdir(self.work)
        tracer.install(points)
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                for argv in self.argvs():
                    t0 = time.perf_counter_ns()
                    try:
                        codes.append(cli.main(argv))
                    except Exception:  # a crash fails the round's trials, not the run
                        traceback.print_exc()
                        codes.append(-1)
                    calls.append((t0, time.perf_counter_ns()))
        finally:
            tracer.restore()
            os.chdir(cwd)
        if attributes(points) != before:
            raise SystemExit("perfbench: traced functions were not restored")
        return calls, codes


class Outcome:
    """Checks each round's outputs; later rounds must repeat round one's bytes."""

    def __init__(self, bench: Bench) -> None:
        self.bench = bench
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: checks.RoundCheck | None = None
        self.digest = ""

    def add(self, codes: list[int]) -> checks.RoundCheck:
        out = self.bench.out
        digest = checks.digest(out) if out.is_dir() else "missing"
        if self.first is not None and digest == self.digest and not any(codes):
            result = self.first
        else:
            result = checks.check_round(out, self.bench.workload, codes)
            if self.first is None:
                self.first, self.digest = result, digest
            elif not result.failed:
                result.failed = result.attempted
                result.problems.append("outputs differ from the first round's")
        self.attempted += result.attempted
        self.failed += result.failed
        self.problems.extend(result.problems)
        return result


def run_rounds(deadline: float, one_round) -> list:
    """Repeat ``one_round`` while another round is expected to end by ``deadline``
    (a ``time.perf_counter`` value); at least one round runs."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_round())
        now = time.perf_counter()
        if now + (now - start) / len(results) > deadline:
            return results


def untraced_round(bench: Bench, outcome: Outcome, samples: dict[str, list[float]]) -> None:
    """Run one round with tracing off and append its figures to ``samples``.

    Only run_to is wrapped, with one timer pair per call; the reference
    kernel runs before and after the round and before a run_to call once a
    second has passed since its last run.  Wall figures cover the round's
    cli.main calls only, kernel runs excluded.
    """
    per_sched = bench.steps_per_scheduler()
    clock = ReferenceClock(bench.workload.k_size)
    clock.sample()
    tracer = Tracer(on_enter=clock.sample_if_due)
    calls, codes = bench.round(tracer, full=False)
    clock.sample()
    outcome.add(codes)
    a = tracer.arrays()
    by_s = dict.fromkeys(SCHEDULERS, 0.0)
    by_ref = dict.fromkeys(SCHEDULERS, 0.0)
    for trial, start, end in zip(*(a[k].tolist() for k in ("trial", "start_ns", "end_ns"))):
        name = tracer.trials[trial].rsplit(":", 1)[0]
        by_s[name] += (end - start) * 1e-9
        by_ref[name] += clock.units(start, end)
    figures = {
        "wall_ref": sum(clock.units(t0, t1) for t0, t1 in calls),
        "steps_per_ref": per_sched * len(SCHEDULERS) / sum(by_ref.values()),
        "wall_s": sum(clock.seconds(t0, t1) for t0, t1 in calls),
        "steps_per_s": per_sched * len(SCHEDULERS) / sum(by_s.values()),
        "reference_s": statistics.median(clock.kernel_seconds()),
    }
    for name in SCHEDULERS:
        figures[f"steps_per_ref.{name}"] = per_sched / by_ref[name]
        figures[f"steps_per_s.{name}"] = per_sched / by_s[name]
    for key, value in figures.items():
        samples.setdefault(key, []).append(value)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(bench: Bench, outcome: Outcome, deadline: float, rss_floor: int) -> tuple[dict, dict]:
    # Peak RSS is taken up to the end of the first measured round, above
    # ``rss_floor``; later rounds are left out: their number depends on
    # timing, and each adds the benchmark's own records and heap
    # fragmentation to the high-water mark.
    rss_peaks = []
    setup = measure_setup(bench.config)
    samples: dict[str, list[float]] = {}

    def one_round():
        untraced_round(bench, outcome, samples)
        rss_peaks.append(peak_rss_kb())

    run_rounds(deadline, one_round)
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    samples["setup_raw_s"] = [s for s, _ in setup]
    samples["setup_kernel_s"] = [k for _, k in setup]
    samples["setup_s"] = [s / k * SETUP_KERNEL_S for s, k in setup]
    for name in ("setup_s", "setup_raw_s", "setup_kernel_s"):
        metrics[name] = statistics.median(samples[name])
    metrics["peak_rss_mb"] = (rss_peaks[0] - rss_floor) / 1024
    metrics["rounds"] = len(samples["wall_s"])
    return metrics, samples


def per_layer(bench: Bench, outcome: Outcome, deadline: float) -> tuple[dict, dict]:
    # Untraced and traced rounds alternate, so both see the same machine.
    untraced: dict[str, list[float]] = {}
    tracer = Tracer()
    traced: list[float] = []
    checked = []

    def one_pair():
        untraced_round(bench, outcome, untraced)
        calls, codes = bench.round(tracer, full=True)
        traced.append(sum(t1 - t0 for t0, t1 in calls) * 1e-9)
        checked.append(outcome.add(codes))

    run_rounds(deadline, one_pair)
    n = len(traced)
    stats = span_stats(tracer)
    first = checked[0]

    def busy(name):
        return stats[name]["busy_s"] / n

    def own(name):
        return stats[name]["self_s"] / n

    def calls(name):
        return stats[name]["calls"] / n

    def pct_us(name, q):
        d = stats[name]["durations"]
        return float(np.percentile(d, q)) * 1e6 if d.size else 0.0

    classified = stats["coverage.classify_interesting"]["calls"]
    m = {name: statistics.median(untraced[name]) for name, *_ in PER_SCHEDULER}
    m.update({
        "rng.beta.calls": calls("rng.beta"),
        "rng.beta.busy_s": busy("rng.beta"),
        "rng.beta.shapes": tracer.tallies["rng.beta"] / n,
        "bandit.select_action.self_s": own("bandit.select_action"),
        "bandit.update_posterior.calls": calls("bandit.update_posterior"),
        "bandit.update_posterior.busy_s": busy("bandit.update_posterior"),
        "coverage.absorb.busy_s": busy("coverage.absorb"),
        "coverage.update_favored.calls": calls("coverage.update_favored"),
        "coverage.update_favored.busy_s": busy("coverage.update_favored"),
        "coverage.classify_interesting.calls": calls("coverage.classify_interesting"),
        "coverage.interesting_ratio": (
            tracer.tallies["coverage.classify_interesting"] / classified if classified else 0.0
        ),
        "schedulers.next.self_s": own("schedulers.next"),
        "schedulers.observe.self_s": own("schedulers.observe"),
        "schedulers.next.p50_us": pct_us("schedulers.next", 50),
        "schedulers.next.p99_us": pct_us("schedulers.next", 99),
        "schedulers.observe.p50_us": pct_us("schedulers.observe", 50),
        "schedulers.observe.p99_us": pct_us("schedulers.observe", 99),
        "schedulers.select_ops": first.select_ops,
        "schedulers.update_ops": first.update_ops,
        "simulator.run_to.calls": calls("simulator.run_to"),
        "simulator.env_self_s": own("simulator.run_to"),
        "simulator.discoveries": first.discoveries,
        "simulator.discovery_yield": first.discoveries / first.steps if first.steps else 0.0,
        "experiment.load_config.busy_s": busy("experiment.load_config"),
        "experiment.write_trial_csv.busy_s": busy("experiment.write_trial_csv"),
        "experiment.csv_bytes": first.csv_bytes,
        "experiment.snapshot_bytes": first.snapshot_bytes,
        "metrics.bootstrap_ci.busy_s": busy("metrics.bootstrap_ci"),
        "metrics.mann_whitney_u.busy_s": busy("metrics.mann_whitney_u"),
        "metrics.auc.busy_s": busy("metrics.auc") + busy("metrics.coverage_timeline"),
        "cli.main.self_s": own("cli.main"),
        "trace.wall_s": sum(traced) / n,
        "trace.self_sum_s": sum(s["self_s"] for s in stats.values()) / n,
        "trace.overhead_s": statistics.median(traced) - statistics.median(untraced["wall_s"]),
        "coverage.classify_interesting.busy_s": busy("coverage.classify_interesting"),
        "experiment.write_snapshot.busy_s": busy("experiment.write_snapshot"),
        "experiment.read_snapshot.busy_s": busy("experiment.read_snapshot"),
        "experiment.resume.busy_s": busy("experiment.resume"),
    })
    for name, s in stats.items():
        key = f"layer.{name.split('.', 1)[0]}.self_s"
        m[key] = m.get(key, 0.0) + s["self_s"] / n
    m["rounds"] = n
    m["spans"] = len(tracer)
    tracer.write(RESULTS / f"{bench.workload.name}-seed{bench.seed}-spans.npz")
    return m, {"wall_s": untraced["wall_s"], "trace.wall_s": traced}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + args.seconds
    seedsched = load_program()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    try:
        warmup = Bench(seedsched, workload.scaled(*WARMUP), args.seed, work / "warmup")
        bench = Bench(seedsched, workload, args.seed, work / "run")
        # The RSS high-water mark with the interpreter, numpy, the program's
        # modules and the benchmark's inputs in place, before the program's
        # first run: peak_rss_mb counts what the program adds to it.
        rss_floor = peak_rss_kb()
        warmup.round(Tracer(), full=False)
        outcome = Outcome(bench)
        if args.trace:
            measured, samples = per_layer(bench, outcome, deadline)
            reported = PER_LAYER
        else:
            measured, samples = end_to_end(bench, outcome, deadline, rss_floor)
            reported = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_ratio = outcome.failed / outcome.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in measured.items():
        print(f"  {name:<40} {value:>16.6g} {UNITS.get(name, 's')}")
    print(f"  {'failed_ratio':<40} {failed_ratio:>16.6g} ratio")
    print(f"  outputs sha256 {outcome.digest}")
    for problem in outcome.problems[:20]:
        print(f"  problem: {problem}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "outputs_sha256": outcome.digest,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_ratio": failed_ratio,
        "problems": outcome.problems,
        "metrics": {n: {"value": v, "unit": UNITS.get(n, "s")} for n, v in measured.items()},
        "samples": samples,
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(measured[name]), "unit": unit} for name, unit, _ in reported
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
