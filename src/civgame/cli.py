"""Command-line entry point: simulate, analyze, and plot subcommands.

Exit codes: 0 success, 2 bad config or malformed CSV, 3 I/O failure,
4 policy classification precondition failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .agents import AgentKind
from .charts import ChartError, render_csv
from .config import ConfigError, load_config
from .experiment import run_trials, write_actions, write_learning_curve
from .matrix import (
    PolicyClassificationError,
    run_payoff_trials,
    train_policy,
    write_matrix_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CLASSIFICATION = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--seed", type=int, help="override the config seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="civgame",
        description="deterministic territory-game simulator and analyzer",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run trials, write learning CSVs")
    _add_common(sim)

    ana = subs.add_parser("analyze", help="train policies, extract the matrix game")
    _add_common(ana)

    plot = subs.add_parser("plot", help="render a CSV as an SVG chart")
    plot.add_argument("csv", help="learning_curve.csv or actions.csv")
    plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def cmd_simulate(args: argparse.Namespace) -> None:
    resolved = load_config(args.config, args.seed)
    cfg = resolved.run_config()
    out = args.out
    os.makedirs(out, exist_ok=True)  # a bad --out fails before any work
    trials = run_trials(cfg)
    write_learning_curve(trials, os.path.join(out, "learning_curve.csv"))
    write_actions(trials, os.path.join(out, "actions.csv"))
    with open(os.path.join(out, "run_manifest.txt"), "w", encoding="utf-8") as f:
        f.write(resolved.manifest())
    print(f"wrote learning_curve.csv, actions.csv, run_manifest.txt to {out}")


def cmd_analyze(args: argparse.Namespace) -> None:
    resolved = load_config(args.config, args.seed)
    cfg = resolved.analysis_config()
    out = args.out
    os.makedirs(out, exist_ok=True)  # a bad --out fails before any work
    coop = train_policy(cfg, AgentKind.HQLEARNER)
    defect = train_policy(cfg, AgentKind.QLEARNER)
    result = run_payoff_trials(cfg, coop, defect)
    write_matrix_csv(result, os.path.join(out, "matrix.csv"))
    n = len(result.per_trial)
    print(f"alpha: cooperative={coop.alpha:.3f} defecting={defect.alpha:.3f}")
    tally = {cls.value: count for cls, count in result.class_counts.items()}
    for name in sorted(tally):
        print(f"{name}: {tally[name]}/{n}")
    print(f"stag_hunt_fraction={result.stag_hunt_fraction}")


def cmd_plot(args: argparse.Namespace) -> None:
    svg = render_csv(args.csv)
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(svg)
    print(f"wrote {args.out}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cmd_simulate(args)
        elif args.command == "analyze":
            cmd_analyze(args)
        else:
            cmd_plot(args)
    except PolicyClassificationError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CLASSIFICATION
    except (ConfigError, ChartError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
