"""Command line interface.

Exit codes: 0 on success, 2 for configuration problems, 3 for runtime
failures (corrupt snapshots, replay divergence, I/O errors).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from .errors import ConfigError, SnapshotError
from .experiment import load_config, resume_experiment, run_experiment
from .simulator import replay_branch_demo

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seedsched",
        description="Bandit-based seed scheduling experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run an experiment from a JSON config")
    sim.add_argument("--config", required=True, help="path to the experiment config")
    sim.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    sim.add_argument(
        "--snapshot-at",
        type=int,
        default=None,
        metavar="STEP",
        help="write a resumable snapshot after STEP steps",
    )

    replay = sub.add_parser(
        "replay-fig2", help="replay the four-feature walkthrough and print its table"
    )
    replay.add_argument("--csv", default=None, help="also write the table as CSV")

    res = sub.add_parser("resume", help="resume a snapshotted campaign")
    res.add_argument("--snapshot", required=True, help="path to the snapshot file")
    res.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    return parser


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    result = run_experiment(config, jobs=args.jobs, snapshot_at=args.snapshot_at)
    print(f"wrote {len(result.trials)} trial logs to {result.output_dir}")
    print(f"wrote {result.output_dir / 'summary.csv'}")
    if result.snapshot_path is not None:
        print(f"wrote {result.snapshot_path}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    rows = replay_branch_demo()
    print(f"{'step':>4}  {'node':<6} {'alpha':>5} {'beta':>5} {'pbar':>5}")
    for row in rows:
        print(
            f"{row.step:>4}  {row.node:<6} {row.alpha:>5} {row.beta:>5} {row.pbar:>5.2f}"
        )
    if args.csv is not None:
        with Path(args.csv).open("w", newline="", encoding="ascii") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "node", "alpha", "beta", "pbar"])
            for row in rows:
                writer.writerow(
                    [row.step, row.node, row.alpha, row.beta, f"{row.pbar:.2f}"]
                )
        print(f"wrote {args.csv}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    result = resume_experiment(args.snapshot, jobs=args.jobs)
    print(f"resumed {len(result.trials)} trials; suffix logs in {result.output_dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "replay-fig2": _cmd_replay,
        "resume": _cmd_resume,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SnapshotError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
